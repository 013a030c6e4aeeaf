package epf

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"vodplace/internal/mip"
)

// withoutPlacement is w as every state looked before rounding could resume:
// same LP point, duals and open sets, no integer assignment.
func withoutPlacement(w *WarmState) *WarmState {
	c := *w
	c.Assign = nil
	return &c
}

// warmCase is a cold integer solve of an instance, a patch to it, and the
// options both solves run under.
type warmCase struct {
	name      string
	inst      func(t *testing.T) *mip.Instance
	opts      Options
	patch     []int // videos whose demand scales 2.5×, offices unchanged
	addOffice int   // video that also gains a demand office, -1 for none
}

func (c *warmCase) solveCold(t *testing.T) *Result {
	t.Helper()
	cold, err := SolveInteger(c.inst(t), c.opts)
	if err != nil {
		t.Fatal(err)
	}
	return cold
}

func (c *warmCase) patched(t *testing.T) *mip.Instance {
	t.Helper()
	inst := c.inst(t)
	for _, vi := range c.patch {
		patchDemand(t, inst, vi, 2.5, false)
	}
	if c.addOffice >= 0 {
		patchDemand(t, inst, c.addOffice, 2, true)
	}
	return inst
}

var (
	smallDelta = warmCase{name: "seed43-fast",
		inst:  func(t *testing.T) *mip.Instance { return randomInstance(t, 43, 9, 200, 1.6, 150) },
		opts:  Options{Seed: 5, MaxPasses: 60, Epsilon: 0.05},
		patch: []int{0, 7, 19, 120}, addOffice: 33}
	wideDelta = warmCase{name: "seed31-fast-wide",
		inst: func(t *testing.T) *mip.Instance { return randomInstance(t, 31, 12, 150, 1.5, 120) },
		opts: Options{Seed: 2, MaxPasses: 60, Epsilon: 0.05},
		patch: []int{1, 4, 9, 16, 25, 36, 49, 64, 81, 100, 121, 144, 3, 6, 12, 24, 48, 96, 50, 60, 70, 80, 90,
			110, 130, 140, 2, 8, 18, 32, 72, 98, 128, 11, 22, 33, 44}, addOffice: 55}
)

// A warm state without an integer placement — hand-assembled, or exported by
// Solve — rounds from scratch without trying a resume. Objective, open sets,
// passes and RoundResolves were recorded with roundIdentityCases' (CHANGES.md
// lists the values they replaced); they must not move.
func TestWarmWithoutPlacementMatchesRecordedParent(t *testing.T) {
	for _, tc := range []struct {
		c        *warmCase
		obj      float64
		open     uint64
		resolves int64
		passes   int
	}{
		{&smallDelta, 52.997070227179094, 0xf9df5f7ea9139ee5, 1200, 1},
		{&wideDelta, 95.73281730918316, 0x8ef9ea739c9fc131, 900, 13},
	} {
		o := tc.c.opts
		o.Warm = withoutPlacement(tc.c.solveCold(t).Warm)
		res, err := SolveInteger(tc.c.patched(t), o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Objective != tc.obj || openSetHash(res.Sol) != tc.open ||
			res.Stats.RoundResolves != tc.resolves || res.Passes != tc.passes {
			t.Errorf("%s: objective %#v open %#x resolves %d passes %d, recorded %#v %#x %d %d",
				tc.c.name, res.Objective, openSetHash(res.Sol), res.Stats.RoundResolves, res.Passes,
				tc.obj, tc.open, tc.resolves, tc.passes)
		}
		if res.Stats.RoundMode() != "full" || res.Stats.RoundCarried != 0 || res.Stats.RoundRef != 0 {
			t.Errorf("%s: rounding %s, %d carried, reference %v; want a full rounding that tried nothing",
				tc.c.name, res.Stats.RoundMode(), res.Stats.RoundCarried, res.Stats.RoundRef)
		}
	}
}

// lpPhase builds a solver and runs its LP phase, leaving it where round()
// finds it, with the packed LP point round() is given.
func lpPhase(t *testing.T, inst *mip.Instance, o Options) (*solver, *WarmLP) {
	t.Helper()
	s, err := newSolver(inst, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	s.run(context.Background())
	s.roundBest, s.scratchBest = math.Inf(1), math.Inf(1)
	return s, s.packPoint(&WarmLP{})
}

// The no-leak rule, white box: a resume refused by an impossible reference
// (0) leaves behind nothing the from-scratch attempt reads. The local-search
// seeds and the shuffle stream are as the LP phase left them; the point, the
// activities and the scale are the threshold seed's own from the moment it
// has loaded (the path-dual table is rebuilt from the chunk's duals before
// every use). So the attempt visits what it would have visited without the
// resume and reaches the same best score.
func TestRejectedResumeLeavesNoTrace(t *testing.T) {
	for _, c := range []*warmCase{&smallDelta, &wideDelta} {
		cold := c.solveCold(t)
		impossible := *cold.Warm
		impossible.RoundRef = 0

		o := c.opts
		o.Warm = &impossible
		tried, lpSol := lpPhase(t, c.patched(t), o)
		o.Warm = withoutPlacement(cold.Warm)
		clean, cleanSol := lpPhase(t, c.patched(t), o)

		if _, resumed := tried.resumePlacement(); resumed {
			t.Fatalf("%s: a resume met reference 0", c.name)
		}
		if tried.stats.RoundCarried == 0 || math.IsInf(tried.roundBest, 1) {
			t.Fatalf("%s: the resume carried %d videos and scored %v; it did not run",
				c.name, tried.stats.RoundCarried, tried.roundBest)
		}
		if !math.IsInf(tried.scratchBest, 1) {
			t.Errorf("%s: the resume's score %v was booked as a from-scratch one", c.name, tried.scratchBest)
		}
		borrowed := func(stage string) {
			t.Helper()
			if !reflect.DeepEqual(tried.warmOpen, clean.warmOpen) {
				t.Errorf("%s, %s: local-search seeds differ", c.name, stage)
			}
		}
		same := func(stage string) {
			t.Helper()
			borrowed(stage)
			if !reflect.DeepEqual(tried.sol, clean.sol) {
				t.Errorf("%s, %s: points differ", c.name, stage)
			}
			if !slices.Equal(tried.act, clean.act) || tried.obj != clean.obj {
				t.Errorf("%s, %s: activities or objective differ", c.name, stage)
			}
			if tried.bObj != clean.bObj || tried.delta != clean.delta || tried.alpha != clean.alpha {
				t.Errorf("%s, %s: potential scale differs", c.name, stage)
			}
		}
		borrowed("after the refused resume")
		// What polishFrom does before its first visit, so the comparison
		// starts where the seed has loaded; the attempt below reloads the
		// same seed.
		for s, sol := range map[*solver]*WarmLP{tried: lpSol, clean: cleanSol} {
			s.seedBlocks(s.thresholdBlock(sol))
			s.recomputeState()
			s.retuneScale()
		}
		same("once the threshold seed has loaded")
		tried.polishFrom(tried.thresholdBlock(lpSol), tried.rng, polishPasses)
		clean.polishFrom(clean.thresholdBlock(cleanSol), clean.rng, polishPasses)
		same("after the from-scratch attempt")
		if tried.scratchBest != clean.scratchBest {
			t.Errorf("%s: best from-scratch score %v after a refused resume, %v without one",
				c.name, tried.scratchBest, clean.scratchBest)
		}
		if tried.rng.Int63() != clean.rng.Int63() {
			t.Errorf("%s: the resume drew from the shuffle stream", c.name)
		}
		if tried.roundBest > clean.roundBest {
			t.Errorf("%s: incumbent %v with the resume in, %v without", c.name, tried.roundBest, clean.roundBest)
		}
	}
}

// The same rule from outside: with reference 0 the solve reports a refused
// resume, hands on the reference a solve without the placement hands on, and
// returns that solve's result bit for bit — unless the refused point itself
// won the shared incumbent, which only a strictly better ratio can show.
func TestImpossibleReferenceRejects(t *testing.T) {
	for _, c := range []*warmCase{&smallDelta, &wideDelta} {
		cold := c.solveCold(t)
		impossible := *cold.Warm
		impossible.RoundRef = 0
		o := c.opts
		o.Warm = &impossible
		got, err := SolveInteger(c.patched(t), o)
		if err != nil {
			t.Fatal(err)
		}
		o.Warm = withoutPlacement(cold.Warm)
		want, err := SolveInteger(c.patched(t), o)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.RoundMode() != "rejected" || got.Stats.RoundRef != 0 {
			t.Errorf("%s: rounding %s against reference %v, want rejected against 0",
				c.name, got.Stats.RoundMode(), got.Stats.RoundRef)
		}
		if got.Warm.RoundRef != want.Warm.RoundRef || got.Warm.RoundRef <= 0 {
			t.Errorf("%s: hands on reference %v, the solve without a placement %v",
				c.name, got.Warm.RoundRef, want.Warm.RoundRef)
		}
		if got.Passes != want.Passes || got.LowerBound != want.LowerBound {
			t.Errorf("%s: LP phase differs: %d passes bound %v vs %d passes bound %v",
				c.name, got.Passes, got.LowerBound, want.Passes, want.LowerBound)
		}
		if extra := got.Stats.RoundResolves - want.Stats.RoundResolves; extra < 0 || extra > int64(resumePasses*len(got.Sol.Videos)) {
			t.Errorf("%s: the refused resume cost %d live-priced visits, at most %d are its own",
				c.name, extra, resumePasses*len(got.Sol.Videos))
		}
		switch {
		case got.Stats.RoundRatio < want.Stats.RoundRatio:
			if got.Stats.RoundRatio >= got.Warm.RoundRef {
				t.Errorf("%s: final ratio %v is the resume's, yet not below the from-scratch best %v",
					c.name, got.Stats.RoundRatio, got.Warm.RoundRef)
			}
		case got.Objective != want.Objective || !identicalSolutions(got.Sol, want.Sol):
			t.Errorf("%s: result differs from the solve without a placement (objective %v vs %v) at ratio %v vs %v",
				c.name, got.Objective, want.Objective, got.Stats.RoundRatio, want.Stats.RoundRatio)
		}
	}
}

// placedBlock reports whether block vi is exactly the carried integer block:
// the carried open set at full copies, each row on its carried assignment.
func placedBlock(s *solver, vi int, w *WarmState) bool {
	open := warmOpen(w, s.inst.Demands[vi].Video)
	bs := &s.sol[vi]
	if len(bs.Open) != len(open) {
		return false
	}
	for x, f := range bs.Open {
		if f.I != open[x] || f.V != 1 {
			return false
		}
	}
	r := int(w.LP.Row[w.videoPos(s.inst.Demands[vi].Video)]) + 1
	for k, fr := range bs.Assign {
		if r+k >= len(w.Assign) || len(fr) != 1 || fr[0].I != w.Assign[r+k] || fr[0].V != 1 {
			return false
		}
	}
	return true
}

// TestPlacementFallsBackPerVideo walks the rounding ladder: a video whose
// demand offices changed, one assigned to an office out of range, one
// assigned to an office that holds no copy and the videos past the end of a
// truncated assignment array fall back to the open-set seed; an unknown video
// and one whose open set names a missing office fall back to the cold copy —
// and every other block is the carried one, untouched by its neighbours'
// trouble.
func TestPlacementFallsBackPerVideo(t *testing.T) {
	inst, cold := warmBase(t)
	const changed, unknown, badOffice, unopened, badOpen = 3, 11, 20, 31, 42
	patchDemand(t, inst, changed, 2, true)
	patchDemand(t, inst, 50, 3, false) // demand moved, offices did not: still carried

	w := cloneWarm(cold.Warm)
	w.Pos[inst.Demands[unknown].Video] = -1
	row := func(vi int) int { return int(w.LP.Row[vi]) + 1 }
	w.Assign[row(badOffice)] = int32(inst.NumVHOs())
	for i := int32(0); ; i++ {
		if !slices.Contains(warmOpen(w, inst.Demands[unopened].Video), i) {
			w.Assign[row(unopened)] = i
			break
		}
	}
	p := w.videoPos(inst.Demands[badOpen].Video)
	w.Open[w.OpenOff[p+1]-1] = int32(inst.NumVHOs())
	truncated := len(inst.Demands) - 4
	w.Assign = w.Assign[:w.LP.Row[truncated]]

	s, err := newSolver(inst, Options{Seed: 5, Warm: w})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	carried, warm := s.seedBlocks(s.placeBlock)
	seeded := []int{changed, badOffice, unopened}
	for vi := truncated; vi < len(inst.Demands); vi++ {
		seeded = append(seeded, vi)
	}
	coldSeeded := []int{unknown, badOpen}
	if want := len(inst.Demands) - len(seeded) - len(coldSeeded); carried != want || warm != want+len(seeded) {
		t.Errorf("carried %d warm %d, want %d carried and %d more open-set seeded", carried, warm, want, len(seeded))
	}
	for vi := range s.sol {
		// (A fallen-back block can coincide with the carried one — the seed
		// serves every office from its cheapest copy, as a placement often
		// does — so the counts above are what pins the fallbacks.)
		if !slices.Contains(seeded, vi) && !slices.Contains(coldSeeded, vi) && !placedBlock(s, vi, w) {
			t.Errorf("video %d: block is not the carried one", vi)
		}
		if fractionalBlock(&s.sol[vi]) {
			t.Errorf("video %d seeded fractionally: %+v", vi, s.sol[vi].Open)
		}
	}
	for _, vi := range seeded {
		var open []int32
		for _, f := range s.sol[vi].Open {
			open = append(open, f.I)
		}
		if want := warmOpen(cold.Warm, inst.Demands[vi].Video); !slices.Equal(open, want) {
			t.Errorf("video %d seeded at %v, carried open set %v", vi, open, want)
		}
	}
	for _, vi := range coldSeeded {
		if len(s.sol[vi].Open) != 1 {
			t.Errorf("video %d seeded at %+v, want the cold single copy", vi, s.sol[vi].Open)
		}
	}

	// The whole solve stands on the garbled state, and says what it carried.
	res, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250, Warm: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RoundCarried != carried {
		t.Errorf("solve carried %d videos into rounding, the ladder %d", res.Stats.RoundCarried, carried)
	}
	if v := res.Sol.Check(); v.Unserved > mip.FeasTol || v.XExceedsY > mip.FeasTol {
		t.Errorf("mixed-ladder resumed solve violates block constraints: %+v", v)
	}

	// Nothing to resume: no assignment, an assignment without the LP point it
	// is indexed on, a point for another office count. Rounding runs in full
	// and never tries.
	noLP := *cold.Warm
	noLP.LP = nil
	lp := *cold.Warm.LP
	lp.Offices++
	foreign := *cold.Warm
	foreign.LP = &lp
	for name, state := range map[string]*WarmState{
		"no assignment": withoutPlacement(cold.Warm), "no LP point": &noLP, "foreign office count": &foreign,
	} {
		res, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250, Warm: state})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.RoundMode() != "full" || res.Stats.RoundCarried != 0 {
			t.Errorf("%s: rounding %s with %d videos carried, want full with none",
				name, res.Stats.RoundMode(), res.Stats.RoundCarried)
		}
	}
}
