package epf

import (
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"vodplace/internal/mip"
	"vodplace/internal/topology"
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

// mixedSizeInstance has videos on both sides of the rounding drift test.
// Offices 0-4 have small, contended disks; office 5 has a disk so large its
// dual underflows the test's absolute floor. Removing one of the large
// videos from a contended disk drifts that disk's dual, so the block is
// priced live; the tiny videos (in quiet chunks) and the giant ones that
// only fit office 5 leave every dual within roundDualTol and are priced at
// the chunk-frozen duals — the branch the random instances almost never take.
func mixedSizeInstance(t *testing.T) *mip.Instance {
	t.Helper()
	const nodes = 6
	g := topology.Random(nodes, 1.0, 77)
	var demands []mip.VideoDemand
	for v := 0; v < 300; v++ {
		size := 0.001
		switch {
		case v%50 == 3:
			size = 500
		case v%6 == 0:
			size = 2
		}
		d := mip.VideoDemand{Video: v, SizeGB: size, RateMbps: 2}
		for j := 0; j < nodes; j++ {
			if (v+j)%3 == 0 {
				continue
			}
			a := 10 * math.Pow(float64(v+1), -0.6) * float64(1+(v*7+j*3)%5)
			d.Js = append(d.Js, int32(j))
			d.Agg = append(d.Agg, a)
		}
		conc := make([]float64, len(d.Js))
		for k := range conc {
			conc[k] = math.Ceil(d.Agg[k] / 3)
		}
		d.Conc = [][]float64{conc}
		demands = append(demands, d)
	}
	disk := []float64{30, 30, 30, 30, 30, 1e5}
	inst, err := mip.NewInstance(g, disk, uniformCaps(g, 60), 1, demands)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// roundIdentityCases are cold SolveInteger runs whose objective, open sets
// and RoundResolves were recorded at e0b5da7, when rounding still solved
// every chunk on the worker pool at the frozen prices and re-solved the
// drifted blocks. Solving each block once, in commit order, at
// whichever prices the drift test picks must reproduce every number exactly,
// at any worker count.
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
		obj:  19.376048295216155, open: 0x55ed33afca3ee33b, resolves: 752},
	{name: "seed9-fast-sharded", inst: func(t *testing.T) *mip.Instance { return randomInstance(t, 9, 8, 60, 2.0, 100) },
		opts: Options{Seed: 5, MaxPasses: 30, Shards: 4},
		obj:  19.376048295216155, open: 0x55ed33afca3ee33b, resolves: 752},
	{name: "seed11-fast", inst: func(t *testing.T) *mip.Instance { return randomInstance(t, 11, 10, 90, 2.0, 150) },
		opts: Options{Seed: 3, MaxPasses: 120},
		obj:  48.23913946246022, open: 0x5b90555cc31a49d3, resolves: 1113},
	{name: "seed17-fast-eps5", inst: func(t *testing.T) *mip.Instance { return randomInstance(t, 17, 10, 80, 2.0, 200) },
		opts: Options{Seed: 5, MaxPasses: 250, Epsilon: 0.05},
		obj:  34.74355162277668, open: 0x1704509c8be5aae6, resolves: 987},
	{name: "seed31-fast-tight", inst: func(t *testing.T) *mip.Instance { return randomInstance(t, 31, 12, 150, 1.5, 120) },
		opts: Options{Seed: 2, MaxPasses: 60, Epsilon: 0.05},
		obj:  70.64685417006403, open: 0x73bb271cb07c65c6, resolves: 1884},
	{name: "seed43-fast-sharded", inst: func(t *testing.T) *mip.Instance { return randomInstance(t, 43, 9, 200, 1.6, 150) },
		opts: Options{Seed: 7, MaxPasses: 60, Epsilon: 0.05, Shards: 3},
		obj:  52.39064052280345, open: 0x77f2ae4077b6b8db, resolves: 2510},
	{name: "mixed-size", inst: mixedSizeInstance,
		opts: Options{Seed: 4, MaxPasses: 80, Epsilon: 0.05},
		obj:  56120.674011730705, open: 0x6c347468b3f6c7c5, resolves: 3232},
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
				t.Errorf("%s workers=%d: objective %#v open %#x resolves %d, parent recorded %#v %#x %d",
					tc.name, workers, res.Objective, openSetHash(res.Sol), res.Stats.RoundResolves,
					tc.obj, tc.open, tc.resolves)
			}
		}
	}
}

// refThresholdRound is the parent's thresholdRound, which built the
// candidate as a fresh mip.Solution for loadSolution to copy in; it is the
// oracle for loadThresholdRound, which writes the same candidate in place.
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

func sameBlocks(sol []blockSol, want *mip.Solution) bool {
	for vi := range sol {
		if !slices.Equal(sol[vi].open, want.Videos[vi].Open) {
			return false
		}
		for k := range sol[vi].assign {
			if !slices.Equal(sol[vi].assign[k], want.Videos[vi].Assign[k]) {
				return false
			}
		}
	}
	return true
}

// loadThresholdRound must load exactly the parent's threshold candidate, and
// a fractional solution that misses a video must leave the state untouched.
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
	frac := s.buildResult(4, false).Sol
	nFrac := 0
	for vi := range s.sol {
		if !integralBlock(&s.sol[vi]) {
			nFrac++
		}
	}
	if nFrac == 0 {
		t.Fatal("no fractional videos after 4 passes")
	}

	broken := s.buildResult(4, false).Sol
	broken.Videos[len(broken.Videos)-1].Open = nil
	if s.loadThresholdRound(broken) {
		t.Fatal("a fractional solution missing a video was accepted")
	}
	if !sameBlocks(s.sol, frac) {
		t.Fatal("the rejected candidate modified the solver state")
	}

	if !s.loadThresholdRound(frac) {
		t.Fatal("threshold rounding rejected a complete fractional solution")
	}
	if !sameBlocks(s.sol, refThresholdRound(inst, frac)) {
		t.Fatal("threshold candidate differs from the reference")
	}
}
