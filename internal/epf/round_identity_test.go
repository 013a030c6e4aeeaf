package epf

import (
	"hash/fnv"
	"slices"
	"testing"

	"vodplace/internal/mip"
)

// openSetHash folds every (video, open office) pair of an integer placement
// into one FNV-1a word: equal hashes at equal objectives pin the open sets.
func openSetHash(sol *mip.Solution) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for vi := range sol.Videos {
		for _, f := range sol.Videos[vi].Open {
			b[0], b[1], b[2], b[3] = byte(vi), byte(vi>>8), byte(vi>>16), byte(vi>>24)
			b[4], b[5], b[6], b[7] = byte(f.I), byte(f.I>>8), byte(f.I>>16), byte(f.I>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// integralTol is the tolerance below which a y value counts as integral
// (the shared stack-wide value; see the tolerance block in internal/mip).
const integralTol = mip.IntegralTol

// fractionalBlock reports whether the block holds a partial copy anywhere.
func fractionalBlock(bs *mip.VideoPlacement) bool {
	return slices.ContainsFunc(bs.Open, func(f mip.Frac) bool {
		return f.V > integralTol && f.V < 1-integralTol
	})
}

// roundIdentityCases are cold SolveInteger runs whose objective, open sets
// and RoundResolves were recorded once, at the commit that made rounding one
// loop from one seed per attempt (CHANGES.md lists the values they replaced).
// They pin the bits at every worker count.
var roundIdentityCases = []struct {
	name     string
	inst     func(t *testing.T) *mip.Instance
	opts     Options
	obj      float64
	open     uint64
	resolves int64
}{
	{name: "seed9-fast", inst: func(t *testing.T) *mip.Instance { return randomInstance(t, 9, 8, 60, 2.0, 100) },
		opts: Options{Seed: 5, MaxPasses: 30},
		obj:  18.025248338342234, open: 0x8bacbca77e1e6b9d, resolves: 360},
	{name: "seed11-fast", inst: func(t *testing.T) *mip.Instance { return randomInstance(t, 11, 10, 90, 2.0, 150) },
		opts: Options{Seed: 3, MaxPasses: 120},
		obj:  45.432641669501834, open: 0x21e92a8eb5534f3f, resolves: 540},
	{name: "seed17-fast-eps5", inst: func(t *testing.T) *mip.Instance { return randomInstance(t, 17, 10, 80, 2.0, 200) },
		opts: Options{Seed: 5, MaxPasses: 250, Epsilon: 0.05},
		obj:  33.29632022027962, open: 0x84b0fb14efa6ecc, resolves: 480},
	{name: "seed31-fast-tight", inst: func(t *testing.T) *mip.Instance { return randomInstance(t, 31, 12, 150, 1.5, 120) },
		opts: Options{Seed: 2, MaxPasses: 60, Epsilon: 0.05},
		obj:  76.24298873756459, open: 0x5f24b5d83ee4f9b3, resolves: 900},
	{name: "seed43-fast-eps5", inst: func(t *testing.T) *mip.Instance { return randomInstance(t, 43, 9, 200, 1.6, 150) },
		opts: Options{Seed: 7, MaxPasses: 60, Epsilon: 0.05},
		obj:  62.27433249065861, open: 0x25a1dbb79e6113f8, resolves: 1200},
}

func TestRoundMatchesRecordedParent(t *testing.T) {
	for _, tc := range roundIdentityCases {
		for _, workers := range []int{1, 2, 4} {
			opts := tc.opts
			opts.Workers = workers
			res, err := SolveInteger(tc.inst(t), opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if res.Objective != tc.obj || openSetHash(res.Sol) != tc.open || res.Stats.RoundResolves != tc.resolves {
				t.Errorf("%s workers=%d: objective %#v open %#x resolves %d, recorded %#v %#x %d",
					tc.name, workers, res.Objective, openSetHash(res.Sol), res.Stats.RoundResolves,
					tc.obj, tc.open, tc.resolves)
			}
		}
	}
}

// A cold rounding is one seed polished by one loop: every block solve of the
// phase is a visit of one of its polishPasses passes.
func TestColdRoundingVisitsOnce(t *testing.T) {
	for _, tc := range roundIdentityCases[1:4] {
		res, err := SolveInteger(tc.inst(t), tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		videos := len(res.Sol.Videos)
		if got, limit := res.Stats.RoundResolves, int64(polishPasses*videos); got > limit || res.Stats.RoundMode() != "full" {
			t.Errorf("%s: %s rounding solved %d blocks over %d videos, want a full one within %d passes (%d)",
				tc.name, res.Stats.RoundMode(), got, videos, polishPasses, limit)
		}
	}
}

// refThresholdRound is the threshold rounding as it was first written,
// building the candidate as a fresh mip.Solution from inst.Cost; it is the
// oracle for the seedBlocks threshold seed (thresholdBlock), which writes the
// same candidate in place through the warm ladder's seedWarmBlock.
func refThresholdRound(inst *mip.Instance, frac *mip.Solution) *mip.Solution {
	sol := mip.NewSolution(inst)
	for vi := range frac.Videos {
		fp := &frac.Videos[vi]
		var best int32 = -1
		var bestV float64
		var open []int32
		for _, f := range fp.Open {
			if f.V > bestV {
				bestV, best = f.V, f.I
			}
			if f.V >= 0.5 {
				open = append(open, f.I)
			}
		}
		if len(open) == 0 {
			if best < 0 {
				return nil // fractional solution misses a video entirely
			}
			open = append(open, best)
		}
		for _, i := range open {
			sol.Videos[vi].Open = append(sol.Videos[vi].Open, mip.Frac{I: i, V: 1})
		}
		d := &inst.Demands[vi]
		for k := range d.Js {
			j := int(d.Js[k])
			bi := open[0]
			bc := inst.Cost(int(open[0]), j)
			for _, i := range open[1:] {
				if c := inst.Cost(int(i), j); c < bc {
					bc, bi = c, i
				}
			}
			sol.Videos[vi].Assign[k] = []mip.Frac{{I: bi, V: 1}}
		}
	}
	return sol
}

func sameBlocks(sol []mip.VideoPlacement, want *mip.Solution) bool {
	for vi := range sol {
		if !slices.Equal(sol[vi].Open, want.Videos[vi].Open) {
			return false
		}
		for k := range sol[vi].Assign {
			if !slices.Equal(sol[vi].Assign[k], want.Videos[vi].Assign[k]) {
				return false
			}
		}
	}
	return true
}

// copyPoint deep-copies the solver's live point. Result.Sol takes the live
// rows themselves, so a test that goes on using the solver copies first.
func copyPoint(s *solver) *mip.Solution {
	out := mip.NewSolution(s.inst)
	for vi := range s.sol {
		out.Videos[vi].Open = slices.Clone(s.sol[vi].Open)
		for k, fr := range s.sol[vi].Assign {
			out.Videos[vi].Assign[k] = slices.Clone(fr)
		}
	}
	return out
}

// The threshold seed must load exactly the reference's candidate, and a video
// whose LP open row is empty must drop down the ladder — here, a cold solve,
// to the single cold copy — and leave every other block the reference's.
func TestLoadThresholdRoundMatchesReference(t *testing.T) {
	inst := randomInstance(t, 11, 10, 90, 2.0, 150)
	s, err := newSolver(inst, Options{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.initDescent()
	for i := 0; i < 4; i++ {
		if !s.descentPass() {
			t.Fatal("descent pass cancelled")
		}
	}
	frac, lp := copyPoint(s), s.packPoint(&WarmLP{})
	if !slices.ContainsFunc(s.sol, func(bs mip.VideoPlacement) bool { return fractionalBlock(&bs) }) {
		t.Fatal("no fractional videos after 4 passes")
	}

	if loaded, _ := s.seedBlocks(s.thresholdBlock(lp)); loaded != len(s.sol) {
		t.Fatalf("threshold seed took %d of %d blocks of a complete fractional solution", loaded, len(s.sol))
	}
	want := refThresholdRound(inst, frac)
	if !sameBlocks(s.sol, want) {
		t.Fatal("threshold seed differs from the reference")
	}

	// Cut the last video's open row out of the packed point, which then holds
	// no copy of it.
	last := len(frac.Videos) - 1
	r := lp.Row[last]
	cut := lp.Off[r+1] - lp.Off[r]
	lp.Frac = slices.Delete(lp.Frac, int(lp.Off[r]), int(lp.Off[r+1]))
	for x := int(r) + 1; x < len(lp.Off); x++ {
		lp.Off[x] -= cut
	}
	if loaded, _ := s.seedBlocks(s.thresholdBlock(lp)); loaded != last {
		t.Fatalf("threshold seed took %d blocks, want all but the one missing from the LP point (%d)", loaded, last)
	}
	ladder := s.sol[last]
	if len(ladder.Open) != 1 || ladder.Open[0].V != 1 {
		t.Errorf("video missing from the LP point seeded at %+v, want the cold single copy", ladder.Open)
	}
	for k, fr := range ladder.Assign {
		if len(fr) != 1 || fr[0] != ladder.Open[0] {
			t.Errorf("video missing from the LP point serves office %d from %+v, want its one copy", k, fr)
		}
	}
	s.sol[last] = want.Videos[last]
	if !sameBlocks(s.sol, want) {
		t.Fatal("a video missing from the LP point disturbed its neighbours' seeds")
	}
}

// TestDeprecatedModeBitsAreInert: Options.IncrementalPricing and
// Options.ParallelRound are kept only because the frozen benchmark sets them.
// All four settings must give the same solve, bit for bit, and it must be the
// recorded one.
func TestDeprecatedModeBitsAreInert(t *testing.T) {
	for _, tc := range roundIdentityCases[:1] {
		var base *Result
		for _, bits := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			opts := tc.opts
			opts.IncrementalPricing, opts.ParallelRound = bits[0], bits[1]
			res, err := SolveInteger(tc.inst(t), opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if base == nil {
				base = res
				if res.Objective != tc.obj || openSetHash(res.Sol) != tc.open {
					t.Errorf("%s: objective %#v open %#x, recorded %#v %#x", tc.name, res.Objective, openSetHash(res.Sol), tc.obj, tc.open)
				}
				continue
			}
			if res.Objective != base.Objective || !identicalDuals(res.RowDuals, base.RowDuals) ||
				openSetHash(res.Sol) != openSetHash(base.Sol) || res.Stats.RoundResolves != base.Stats.RoundResolves {
				t.Errorf("%s: bits %v changed the solve: objective %#v open %#x resolves %d, zero value gives %#v %#x %d",
					tc.name, bits, res.Objective, openSetHash(res.Sol), res.Stats.RoundResolves,
					base.Objective, openSetHash(base.Sol), base.Stats.RoundResolves)
			}
		}
	}
}
