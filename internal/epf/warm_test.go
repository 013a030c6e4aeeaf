package epf

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vodplace/internal/mip"
)

// warmBase builds the reference instance for the warm-start tests and a cold
// solve of it whose Result.Warm seeds the warm solves under test.
func warmBase(t *testing.T) (*mip.Instance, *Result) {
	t.Helper()
	inst := randomInstance(t, 17, 10, 80, 2.0, 200)
	res, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm == nil {
		t.Fatal("cold solve did not export warm state")
	}
	return inst, res
}

func TestWarmExport(t *testing.T) {
	inst, res := warmBase(t)
	w := res.Warm
	if len(w.RowDuals) != len(res.RowDuals) {
		t.Fatalf("warm duals: %d rows, result has %d", len(w.RowDuals), len(res.RowDuals))
	}
	if w.Delta <= 0 {
		t.Errorf("exported Delta = %g, want > 0", w.Delta)
	}
	if len(w.OpenOff) != len(inst.Demands)+1 {
		t.Fatalf("warm state covers %d positions, instance has %d videos", len(w.OpenOff)-1, len(inst.Demands))
	}
	for vi := range inst.Demands {
		if p := w.videoPos(inst.Demands[vi].Video); p != vi {
			t.Fatalf("video %d carried at position %d, want %d", inst.Demands[vi].Video, p, vi)
		}
		open := warmOpen(w, inst.Demands[vi].Video)
		if len(open) == 0 {
			t.Fatalf("video %d exported an empty open set", inst.Demands[vi].Video)
		}
		for _, o := range open {
			if o < 0 || int(o) >= inst.NumVHOs() {
				t.Fatalf("video %d exported office %d out of range", inst.Demands[vi].Video, o)
			}
		}
	}
}

// TestWarmSolveValidAndCertified is the core tentpole invariant: a warm
// re-solve must stand on its own — audited feasibility claims and a lower
// bound its own duals certify on its own instance — and must land within the
// certified duality gap of the cold solve.
func TestWarmSolveValidAndCertified(t *testing.T) {
	inst, cold := warmBase(t)
	warm, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250, Warm: cold.Warm})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.WarmVideos != len(inst.Demands) {
		t.Errorf("warm-seeded %d of %d videos, want all (same catalog)",
			warm.Stats.WarmVideos, len(inst.Demands))
	}
	if v := warm.Sol.Check(); v.Unserved > mip.FeasTol || v.XExceedsY > mip.FeasTol {
		t.Errorf("warm solution violates block constraints: %+v", v)
	}
	// The warm bound must be certified by the warm result's own duals.
	if warm.LowerBound > warm.Objective+1e-9 {
		t.Errorf("warm lb %g exceeds its own objective %g", warm.LowerBound, warm.Objective)
	}
	// Parity: warm and cold objectives bracket the same optimum, so each must
	// lie within the other's certified gap.
	if warm.Objective < cold.LowerBound-1e-9 {
		t.Errorf("warm objective %g below cold certified bound %g", warm.Objective, cold.LowerBound)
	}
	if cold.Objective < warm.LowerBound-1e-9 {
		t.Errorf("cold objective %g below warm certified bound %g", cold.Objective, warm.LowerBound)
	}
	// The whole point: re-solving the same instance from its own final state
	// must not take more passes than the cold solve.
	if warm.Passes > cold.Passes {
		t.Errorf("warm re-solve took %d passes, cold took %d", warm.Passes, cold.Passes)
	}
}

// TestWarmWorkerInvariance: the determinism contract survives warm seeding —
// identical bytes at any worker count.
func TestWarmWorkerInvariance(t *testing.T) {
	inst, cold := warmBase(t)
	var ref *Result
	for _, workers := range []int{1, 3, 7} {
		res, err := SolveInteger(inst, Options{
			Seed: 5, MaxPasses: 250, Workers: workers, Warm: cold.Warm,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Objective != ref.Objective || res.LowerBound != ref.LowerBound || res.Passes != ref.Passes {
			t.Errorf("workers=%d: (obj %v lb %v passes %d) != workers=1 (obj %v lb %v passes %d)",
				workers, res.Objective, res.LowerBound, res.Passes,
				ref.Objective, ref.LowerBound, ref.Passes)
		}
		for vi := range ref.Sol.Videos {
			a, b := ref.Sol.Videos[vi].Open, res.Sol.Videos[vi].Open
			if len(a) != len(b) {
				t.Fatalf("workers=%d: video %d open-set size differs", workers, vi)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d: video %d open entry %d differs", workers, vi, i)
				}
			}
		}
	}
}

// TestWarmDualMismatchFallsBack: a warm state whose dual vector does not
// match the new instance's row count (topology or slice-count change) must
// not poison the solve — duals are dropped, per-video seeds still apply.
func TestWarmDualMismatchFallsBack(t *testing.T) {
	inst, cold := warmBase(t)
	w := *cold.Warm
	w.RowDuals = w.RowDuals[:len(w.RowDuals)-1]
	res, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250, Warm: &w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WarmVideos == 0 {
		t.Error("per-video seeding should survive a dual-dimension mismatch")
	}
	if res.LowerBound > res.Objective+1e-9 {
		t.Errorf("lb %g exceeds objective %g after dual fallback", res.LowerBound, res.Objective)
	}

	// NaN / negative duals are likewise rejected rather than trusted.
	w2 := *cold.Warm
	w2.RowDuals = append([]float64(nil), cold.Warm.RowDuals...)
	w2.RowDuals[0] = math.NaN()
	if _, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250, Warm: &w2}); err != nil {
		t.Fatalf("NaN dual in warm state must fall back, not fail: %v", err)
	}
}

// TestWarmCatalogChurn: videos absent from the warm state (new releases) and
// warm entries with out-of-range offices (topology shrank) fall back to the
// cold init per video; everything else still seeds.
func TestWarmCatalogChurn(t *testing.T) {
	inst, cold := warmBase(t)

	w := &WarmState{
		RowDuals: cold.Warm.RowDuals,
		Delta:    cold.Warm.Delta,
		Pos:      slices.Clone(cold.Warm.Pos),
		OpenOff:  cold.Warm.OpenOff,
		Open:     slices.Clone(cold.Warm.Open),
	}
	dropped := 0
	for id, p := range w.Pos {
		switch {
		case p < 0:
		case id%5 == 0: // churned out of the catalog
			w.Pos[id] = -1
			dropped++
		case id%7 == 1: // stale entry pointing at a removed office
			w.Open[w.OpenOff[p]] = int32(inst.NumVHOs())
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("test instance produced no churned videos; widen the filter")
	}

	res, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250, Warm: w})
	if err != nil {
		t.Fatal(err)
	}
	want := len(inst.Demands) - dropped
	if res.Stats.WarmVideos != want {
		t.Errorf("WarmVideos = %d, want %d (churned entries must fall back cold)",
			res.Stats.WarmVideos, want)
	}
	if v := res.Sol.Check(); v.Unserved > mip.FeasTol || v.XExceedsY > mip.FeasTol {
		t.Errorf("churned warm solve violates block constraints: %+v", v)
	}
	if res.Objective < cold.LowerBound-1e-9 {
		t.Errorf("churned warm objective %g below certified bound %g", res.Objective, cold.LowerBound)
	}
}

// TestColdPathUnchangedByWarmPlumbing: Options without Warm must produce the
// exact bytes the pre-warm solver produced — the export of warm state must
// be numerically inert.
func TestColdPathUnchangedByWarmPlumbing(t *testing.T) {
	inst := randomInstance(t, 23, 8, 60, 2.0, 200)
	a, err := SolveInteger(inst, Options{Seed: 9, MaxPasses: 200})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveInteger(inst, Options{Seed: 9, MaxPasses: 200})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.LowerBound != b.LowerBound || a.Passes != b.Passes {
		t.Errorf("cold solve not reproducible: (%v,%v,%d) vs (%v,%v,%d)",
			a.Objective, a.LowerBound, a.Passes, b.Objective, b.LowerBound, b.Passes)
	}
	if a.Stats.WarmVideos != 0 || a.Stats.ResumedVideos != 0 {
		t.Errorf("cold solve reports WarmVideos = %d, ResumedVideos = %d", a.Stats.WarmVideos, a.Stats.ResumedVideos)
	}
	if st := a.Stats; st.RoundCarried != 0 || st.RoundResumed != 0 || st.RoundRef != 0 || st.RoundMode() != "full" {
		t.Errorf("cold solve reports a %s rounding: %d carried, resumed %d, reference %v",
			st.RoundMode(), st.RoundCarried, st.RoundResumed, st.RoundRef)
	}
	// Carrying the LP point out is inert too: both exports describe the same
	// point, and it is a copy — the result's own solution does not alias it.
	if !reflect.DeepEqual(a.Warm.LP, b.Warm.LP) {
		t.Error("cold solves of one instance exported different LP points")
	}
	for i := range a.Warm.LP.Frac {
		a.Warm.LP.Frac[i].V = -1
	}
	// So is carrying the integer placement: one office per LP row, each row
	// on an office the video holds, under the ratio the rounding reported.
	if !slices.Equal(a.Warm.Assign, b.Warm.Assign) || a.Warm.RoundRef != b.Warm.RoundRef {
		t.Error("cold solves of one instance exported different placements or references")
	}
	if a.Warm.RoundRef != a.Stats.RoundRatio || a.Warm.RoundRef < 1 {
		t.Errorf("cold solve hands on reference %v at ratio %v", a.Warm.RoundRef, a.Stats.RoundRatio)
	}
	if len(a.Warm.Assign) != len(a.Warm.LP.J) {
		t.Fatalf("placement covers %d rows, the LP point has %d", len(a.Warm.Assign), len(a.Warm.LP.J))
	}
	for vi := range inst.Demands {
		r := int(a.Warm.LP.Row[vi])
		if a.Warm.Assign[r] != -1 {
			t.Fatalf("video %d: open row carries office %d", vi, a.Warm.Assign[r])
		}
		for k, fr := range a.Sol.Videos[vi].Assign {
			if len(fr) != 1 || fr[0].I != a.Warm.Assign[r+1+k] {
				t.Fatalf("video %d row %d: solution serves from %+v, placement carries %d", vi, k, fr, a.Warm.Assign[r+1+k])
			}
		}
	}
	for i := range a.Warm.Assign {
		a.Warm.Assign[i] = -7
	}
	if !identicalSolutions(a.Sol, b.Sol) {
		t.Error("scribbling over the exported state changed the result's solution")
	}
	// An LP solve has no placement to hand on.
	if lp := mustSolve(t, inst, Options{Seed: 9, MaxPasses: 200}); lp.Warm.Assign != nil || lp.Warm.RoundRef != 0 {
		t.Errorf("Solve exported a placement (%d rows) or a reference (%v)", len(lp.Warm.Assign), lp.Warm.RoundRef)
	}
}

// lpRows returns video p's rows of a carried LP point: the open row, then
// one assignment row per demand office.
func lpRows(lp *WarmLP, p int) (js []int32, rows [][]mip.Frac) {
	lo, hi := int(lp.Row[p]), int(lp.Row[p+1])
	for r := lo; r < hi; r++ {
		rows = append(rows, lp.Frac[lp.Off[r]:lp.Off[r+1]])
	}
	return lp.J[lo+1 : hi], rows
}

// blockEqualsLP reports whether a solver block is exactly video p's block
// of the carried point.
func blockEqualsLP(bs *mip.VideoPlacement, lp *WarmLP, p int) bool {
	_, rows := lpRows(lp, p)
	if len(rows) != 1+len(bs.Assign) || !slices.Equal(bs.Open, rows[0]) {
		return false
	}
	for k := range bs.Assign {
		if !slices.Equal(bs.Assign[k], rows[1+k]) {
			return false
		}
	}
	return true
}

// TestWarmExportCarriesLPPoint: the LP point on a Result is the fractional
// solution the descent ended on, row for row, with the Js it was built for —
// Result.Sol itself after Solve, the point rounding started from after
// SolveInteger (not the integer placement).
func TestWarmExportCarriesLPPoint(t *testing.T) {
	inst := randomInstance(t, 17, 10, 80, 2.0, 200)
	opts := Options{Seed: 5, MaxPasses: 250}
	lpRes := mustSolve(t, inst, opts)
	intRes, err := SolveInteger(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"Solve": lpRes, "SolveInteger": intRes} {
		lp := res.Warm.LP
		if lp == nil {
			t.Fatalf("%s exported no LP point", name)
		}
		if lp.Offices != inst.NumVHOs() || len(lp.Row) != len(inst.Demands)+1 {
			t.Fatalf("%s: LP point for %d offices, %d videos; instance has %d, %d",
				name, lp.Offices, len(lp.Row)-1, inst.NumVHOs(), len(inst.Demands))
		}
		fractional := false
		for vi := range inst.Demands {
			if got := res.Warm.videoPos(inst.Demands[vi].Video); got != vi {
				t.Fatalf("%s: video %d carried at position %d", name, vi, got)
			}
			js, rows := lpRows(lp, vi)
			want := &lpRes.Sol.Videos[vi]
			if !slices.Equal(js, inst.Demands[vi].Js) || !slices.Equal(rows[0], want.Open) {
				t.Fatalf("%s: video %d carried Js/open row differ from the LP solution", name, vi)
			}
			for k := range want.Assign {
				if !slices.Equal(rows[1+k], want.Assign[k]) {
					t.Fatalf("%s: video %d assignment row %d differs from the LP solution", name, vi, k)
				}
			}
			for _, f := range rows[0] {
				fractional = fractional || (f.V > integralTol && f.V < 1-integralTol)
			}
		}
		if !fractional {
			t.Errorf("%s: carried point is integral; the instance is too loose to tell LP from rounded", name)
		}
	}
}

// patchDemand scales video vi's demand by f in place, keeping its demand
// offices; addOffice additionally lists one more demand office, which
// changes the video's Js.
func patchDemand(t *testing.T, inst *mip.Instance, vi int, f float64, addOffice bool) {
	t.Helper()
	d := &inst.Demands[vi]
	js := append([]int32(nil), d.Js...)
	agg := make([]float64, len(js))
	for k := range agg {
		agg[k] = d.Agg[k] * f
	}
	if addOffice {
		for j := int32(0); int(j) < inst.NumVHOs(); j++ {
			if k, found := slices.BinarySearch(js, j); !found {
				js = slices.Insert(js, k, j)
				agg = slices.Insert(agg, k, 1.0)
				break
			}
		}
		if len(js) == len(d.Js) {
			t.Fatalf("video %d already has demand at every office", vi)
		}
	}
	conc := make([][]float64, inst.Slices)
	for ts := range conc {
		conc[ts] = make([]float64, len(js))
		for k := range js {
			conc[ts][k] = math.Ceil(agg[k] / 4)
		}
	}
	if err := inst.ApplyDemandDelta(vi, js, agg, conc); err != nil {
		t.Fatal(err)
	}
}

// TestResumeFallsBackPerVideo walks the warm ladder: a video whose demand
// offices changed, a video the carried state does not know, and a carried
// point for another office count each drop to the open-set (or cold) seed
// for that video only; every other block is loaded from the LP point
// untouched.
func TestResumeFallsBackPerVideo(t *testing.T) {
	inst, cold := warmBase(t)
	const changed, unknown = 3, 11
	patchDemand(t, inst, changed, 2, true)
	patchDemand(t, inst, 20, 3, false) // demand moved, offices did not: still resumed

	w := *cold.Warm
	w.Pos = slices.Clone(w.Pos)
	w.Pos[inst.Demands[unknown].Video] = -1
	s, err := newSolver(inst, Options{Seed: 5, Warm: &w})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if want := len(inst.Demands) - 2; s.stats.ResumedVideos != want || s.stats.WarmVideos != want+1 {
		t.Errorf("resumed %d warm %d, want %d resumed and the changed video open-set seeded (%d warm)",
			s.stats.ResumedVideos, s.stats.WarmVideos, want, want+1)
	}
	for vi := range s.sol {
		resumed := blockEqualsLP(&s.sol[vi], w.LP, vi)
		if want := vi != changed && vi != unknown; resumed != want {
			t.Errorf("video %d: loaded from the LP point = %v, want %v", vi, resumed, want)
		}
	}
	// The changed video holds exactly its carried open set, at full copies.
	var open []int32
	for _, f := range s.sol[changed].Open {
		if f.V != 1 {
			t.Errorf("changed video seeded fractionally: %+v", s.sol[changed].Open)
		}
		open = append(open, f.I)
	}
	if want := warmOpen(cold.Warm, inst.Demands[changed].Video); !slices.Equal(open, want) {
		t.Errorf("changed video seeded at %v, carried open set %v", open, want)
	}
	// The unknown video got the cold single-copy init.
	if len(s.sol[unknown].Open) != 1 {
		t.Errorf("unknown video seeded at %+v, want the cold single copy", s.sol[unknown].Open)
	}

	// A point built for another office count is ignored wholesale; the open
	// sets (validated per office) still seed.
	lp := *cold.Warm.LP
	lp.Offices++
	w2 := *cold.Warm
	w2.LP = &lp
	s2, err := newSolver(inst, Options{Seed: 5, Warm: &w2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.close()
	if s2.stats.ResumedVideos != 0 || s2.stats.WarmVideos != len(inst.Demands) {
		t.Errorf("office-count mismatch: resumed %d warm %d, want 0 and %d",
			s2.stats.ResumedVideos, s2.stats.WarmVideos, len(inst.Demands))
	}
	res, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250, Warm: &w})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Sol.Check(); v.Unserved > mip.FeasTol || v.XExceedsY > mip.FeasTol {
		t.Errorf("mixed-ladder warm solve violates block constraints: %+v", v)
	}
}

// warmOpen returns the open set w carries for catalog video id, nil when it
// carries none.
func warmOpen(w *WarmState, id int) []int32 {
	p := w.videoPos(id)
	if p < 0 {
		return nil
	}
	return w.Open[w.OpenOff[p]:w.OpenOff[p+1]]
}

// cloneWarm deep-copies a WarmState.
func cloneWarm(w *WarmState) *WarmState {
	c := *w
	c.RowDuals = slices.Clone(w.RowDuals)
	c.Assign = slices.Clone(w.Assign)
	c.Pos, c.OpenOff, c.Open = slices.Clone(w.Pos), slices.Clone(w.OpenOff), slices.Clone(w.Open)
	lp := *w.LP
	lp.Row, lp.J, lp.Off, lp.Frac = slices.Clone(lp.Row), slices.Clone(lp.J), slices.Clone(lp.Off), slices.Clone(lp.Frac)
	c.LP = &lp
	if w.Bound != nil {
		b := *w.Bound
		b.Duals, b.Term = slices.Clone(b.Duals), slices.Clone(b.Term)
		b.PathLinks, b.PathOff = slices.Clone(b.PathLinks), slices.Clone(b.PathOff)
		b.Inputs = make([][]uint32, len(w.Bound.Inputs))
		for p, in := range w.Bound.Inputs {
			b.Inputs[p] = slices.Clone(in)
		}
		c.Bound = &b
	}
	return &c
}

// TestWarmStateReadOnlyToConsumer: the server reuses its warm state after a
// rejected attempt and pipelines keep old ones around, so a consuming solve
// copies out of the state and never writes. Two solves share one state
// concurrently (the race detector watches), and the state is byte-identical
// to a deep copy taken before.
func TestWarmStateReadOnlyToConsumer(t *testing.T) {
	inst, cold := warmBase(t)
	before := cloneWarm(cold.Warm)
	insts := []*mip.Instance{inst, randomInstance(t, 17, 10, 80, 2.0, 200)}
	patchDemand(t, insts[1], 5, 2.5, false)
	var wg sync.WaitGroup
	for i := range insts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := SolveInteger(insts[i], Options{Seed: 5, MaxPasses: 250, Workers: 2, Warm: cold.Warm})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(before, cold.Warm) {
		t.Error("consuming solves modified the shared WarmState")
	}
}

// TestWarmStateDetachedFromResultSol is the producing side of the same rule.
// Result.Sol's rows are the solver's own, handed over when the solve ends,
// and serve.Snapshot keeps them alive while the next solve consumes
// Result.Warm — so the state must share no memory with them. Every row of a
// SolveInteger result's Sol is scribbled over, to its full capacity; the warm
// state stays byte-equal to a clone taken first, and a re-solve from it is
// bit-identical to one from the clone. Both a cold producer (rows grown one
// by one) and a resumed one (rows carved from one arena) are held to it.
func TestWarmStateDetachedFromResultSol(t *testing.T) {
	inst, cold := warmBase(t)
	resolve := func(w *WarmState) *Result {
		t.Helper()
		res, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250, Warm: w})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for name, res := range map[string]*Result{"cold": cold, "resumed": resolve(cold.Warm)} {
		before := cloneWarm(res.Warm)
		scribble := func(fr []mip.Frac) {
			fr = fr[:cap(fr)]
			for i := range fr {
				fr[i] = mip.Frac{I: -7, V: -7}
			}
		}
		for vi := range res.Sol.Videos {
			p := &res.Sol.Videos[vi]
			scribble(p.Open)
			for _, fr := range p.Assign {
				scribble(fr)
			}
		}
		if !reflect.DeepEqual(before, res.Warm) {
			t.Fatalf("%s: scribbling over Result.Sol changed Result.Warm", name)
		}
		got, want := resolve(res.Warm), resolve(before)
		if got.Objective != want.Objective || got.LowerBound != want.LowerBound || got.Passes != want.Passes ||
			!identicalDuals(got.RowDuals, want.RowDuals) || !identicalSolutions(got.Sol, want.Sol) {
			t.Errorf("%s: re-solve from the state differs from one from its clone: (%v, %v, %d) vs (%v, %v, %d)",
				name, got.Objective, got.LowerBound, got.Passes, want.Objective, want.LowerBound, want.Passes)
		}
	}
}
