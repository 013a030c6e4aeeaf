package epf_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/verify"
)

// patchDemand rewrites video vi's demand in place, keeping its demand offices
// (the shape of a serving-plane demand update): edit gets dense copies of the
// per-office aggregates and of each slice's per-office concurrency.
func patchDemand(t testing.TB, inst *mip.Instance, vi int, edit func(agg []float64, conc [][]float64)) {
	t.Helper()
	d := &inst.Demands[vi]
	agg := slices.Clone(d.Agg)
	conc := make([][]float64, inst.Slices)
	for s := range conc {
		conc[s] = make([]float64, len(d.Js))
	}
	for k := range d.Js {
		ts, vs := d.ConcNZ(k)
		for x, s := range ts {
			conc[s][k] = vs[x]
		}
	}
	edit(agg, conc)
	if err := inst.ApplyDemandDelta(vi, d.Js, agg, conc); err != nil {
		t.Fatal(err)
	}
}

// scaleDemand multiplies video vi's demand by f.
func scaleDemand(t testing.TB, inst *mip.Instance, vi int, f float64) {
	t.Helper()
	patchDemand(t, inst, vi, func(agg []float64, conc [][]float64) {
		for k := range agg {
			agg[k] *= f
		}
		for _, row := range conc {
			for k := range row {
				row[k] = math.Ceil(row[k] * f)
			}
		}
	})
}

// patchedPair solves a seeded random instance cold and returns that result
// with a second copy of the instance that patch has edited: the two halves of
// a warm re-solve fixture.
func patchedPair(t testing.TB, seed int64, shape verify.InstanceOpts, opts epf.Options, patch func(inst *mip.Instance)) (*epf.Result, *mip.Instance) {
	t.Helper()
	base, err := verify.RandomInstance(seed, shape)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := epf.SolveInteger(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := verify.RandomInstance(seed, shape)
	if err != nil {
		t.Fatal(err)
	}
	patch(inst)
	return prev, inst
}

// TestResumeEconomy is the resume contract on the differential corpus: after
// a demand patch to k videos (one, 1-2 %, a quarter of the catalog), a
// re-solve seeded with the previous Result.Warm converges, passes the
// independent audit, lands within the differential band of a cold solve of
// the same patched instance, and over the sweep takes fewer descent passes
// than the same warm state without its LP point (the open-set-only seed that
// was all a WarmState carried before) — the economy, not just the validity.
// These 120-video instances converge cold in 7-12 passes, so the saving is a
// few passes each; the benchmark's 2000-video steady-hot workload is where it
// is 17 → 1.
//
// Per fixture the resumed solve takes no more passes than the open-set seed,
// except on seeds 2 and 4 with a quarter of the catalog patched (5 and 6
// passes against 4; both recorded in openSetWins). There both solves hold an
// incumbent from pass 1 on a carried bound that stands throughout, so each
// stops when its own descent comes within ε of that bound, and the open-set
// descent gets there first. The per-fixture inequality held on them only
// while a probe polish on pass 3 raised the stale bound under both solves
// alike, so that both stopped there; carriedBoundHolds now skips that probe.
func TestResumeEconomy(t *testing.T) {
	const (
		videos = 120
		band   = 0.10 // verify's lpBand: the differential band
	)
	type fixture struct {
		seed    int64
		patched int
	}
	openSetWins := map[fixture][2]int{{2, videos / 4}: {5, 4}, {4, videos / 4}: {6, 4}}
	shape := verify.InstanceOpts{Nodes: 8, Videos: videos, Slices: 2}
	var resumedPasses, openSetPasses int
	for seed := int64(1); seed <= 8; seed++ {
		opts := epf.Options{Seed: seed, MaxPasses: 300, Epsilon: 0.05}
		base, err := verify.RandomInstance(seed, shape)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := epf.SolveInteger(base, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !prev.Converged {
			t.Fatalf("seed %d: cold solve of the unpatched instance did not converge", seed)
		}
		for _, k := range []int{1, 2, videos / 4} {
			name := fmt.Sprintf("seed %d, %d patched", seed, k)
			inst, err := verify.RandomInstance(seed, shape)
			if err != nil {
				t.Fatal(err)
			}
			for x := 0; x < k; x++ {
				scaleDemand(t, inst, int(seed+int64(7*x))%videos, 1.25+0.25*float64(x%4))
			}

			cold, err := epf.SolveInteger(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			wopts := opts
			wopts.Warm = prev.Warm
			warm, err := epf.SolveInteger(inst, wopts)
			if err != nil {
				t.Fatal(err)
			}
			openSet := *prev.Warm
			openSet.LP = nil
			wopts.Warm = &openSet
			restarted, err := epf.SolveInteger(inst, wopts)
			if err != nil {
				t.Fatal(err)
			}

			if warm.Stats.ResumedVideos != videos || restarted.Stats.ResumedVideos != 0 {
				t.Errorf("%s: resumed %d videos (want all %d), %d without the LP point (want 0)",
					name, warm.Stats.ResumedVideos, videos, restarted.Stats.ResumedVideos)
			}
			if !warm.Converged {
				t.Errorf("%s: resumed solve did not converge in %d passes", name, warm.Passes)
			}
			if rep := verify.Audit(inst, warm); !rep.Ok() {
				t.Errorf("%s: resumed solve fails the audit: %v", name, rep.Err())
			}
			if dev := math.Abs(warm.Objective-cold.Objective) / cold.Objective; dev > band {
				t.Errorf("%s: resumed objective %.1f is %.1f%% from the cold solve's %.1f, band %.0f%%",
					name, warm.Objective, 100*dev, cold.Objective, 100*band)
			}
			if rec, ok := openSetWins[fixture{seed, k}]; ok {
				if warm.Passes != rec[0] || restarted.Passes != rec[1] {
					t.Errorf("%s: resumed solve took %d passes, the open-set seed %d; recorded %d, %d",
						name, warm.Passes, restarted.Passes, rec[0], rec[1])
				}
			} else if warm.Passes > restarted.Passes {
				t.Errorf("%s: resumed solve took %d passes, the open-set seed %d", name, warm.Passes, restarted.Passes)
			}
			resumedPasses += warm.Passes
			openSetPasses += restarted.Passes
		}
	}
	t.Logf("descent passes over the sweep: %d resumed, %d from the open-set seed", resumedPasses, openSetPasses)
	if resumedPasses >= openSetPasses {
		t.Errorf("resuming saved no passes over the sweep: %d vs %d", resumedPasses, openSetPasses)
	}
}

// sameResult reports whether two integer results are the same bits.
func sameResult(a, b *epf.Result) bool {
	if a.Objective != b.Objective || a.LowerBound != b.LowerBound || a.Passes != b.Passes {
		return false
	}
	for vi := range a.Sol.Videos {
		pa, pb := &a.Sol.Videos[vi], &b.Sol.Videos[vi]
		if !slices.Equal(pa.Open, pb.Open) {
			return false
		}
		for k := range pa.Assign {
			if !slices.Equal(pa.Assign[k], pb.Assign[k]) {
				return false
			}
		}
	}
	return true
}

// TestRoundResume is the rounding half of the resume contract, on a looser
// 400-video corpus (the 120-video one above is polished to a standstill, so
// a resume lands within 0.1 % of its reference on either side). The rule is
// data-dependent by design, so outcomes are tallied over the sweep and the
// invariants are asserted per case: every video's block is carried; an
// accepted resume passes the audit, converged, at a ratio no worse than the
// reference, which it hands on unchanged; a refused one hands on what the
// same state without its placement hands on and returns that solve's result
// bit for bit — unless the refused point itself won the shared incumbent,
// which shows as a strictly better ratio. Re-solving the unchanged instance
// resumes the placement it is serving; one-video and 1 % patches mostly do;
// quarter-catalog patches do not.
func TestRoundResume(t *testing.T) {
	const videos = 400
	shape := verify.InstanceOpts{Nodes: 10, Videos: videos, Slices: 2, DiskFactor: 3, LinkCapMbps: 400}
	var small, smallResumed, wide, wideResumed int
	for seed := int64(1); seed <= 8; seed++ {
		opts := epf.Options{Seed: seed, MaxPasses: 300, Epsilon: 0.05}
		base, err := verify.RandomInstance(seed, shape)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := epf.SolveInteger(base, opts)
		if err != nil {
			t.Fatal(err)
		}
		if prev.Stats.RoundMode() != "full" || prev.Warm.RoundRef != prev.Stats.RoundRatio || prev.Warm.RoundRef < 1 {
			t.Fatalf("seed %d: cold rounding %s hands on reference %v at ratio %v",
				seed, prev.Stats.RoundMode(), prev.Warm.RoundRef, prev.Stats.RoundRatio)
		}
		for _, k := range []int{0, 1, videos / 100, videos / 4} {
			name := fmt.Sprintf("seed %d, %d patched", seed, k)
			inst, err := verify.RandomInstance(seed, shape)
			if err != nil {
				t.Fatal(err)
			}
			for x := 0; x < k; x++ {
				scaleDemand(t, inst, int(seed+int64(7*x))%videos, 1.25+0.25*float64(x%4))
			}
			wopts := opts
			wopts.Warm = prev.Warm
			warm, err := epf.SolveInteger(inst, wopts)
			if err != nil {
				t.Fatal(err)
			}
			st := warm.Stats
			if st.RoundCarried != videos || st.RoundRef != prev.Warm.RoundRef {
				t.Errorf("%s: %d videos carried against reference %v, want all %d against %v",
					name, st.RoundCarried, st.RoundRef, videos, prev.Warm.RoundRef)
			}
			if rep := verify.Audit(inst, warm); !rep.Ok() {
				t.Errorf("%s: %s rounding fails the audit: %v", name, st.RoundMode(), rep.Err())
			}
			switch k {
			case 0:
				// The carried point is rescored from rebuilt activities and the
				// reference came from incrementally updated ones, so a placement
				// the polish cannot improve ties its reference to the last few
				// bits; a miss by more than that is a real refusal.
				if st.RoundResumed != 1 && st.RoundRatio > st.RoundRef*(1+1e-12) {
					t.Errorf("%s: the unchanged instance did not resume (ratio %v, reference %v)", name, st.RoundRatio, st.RoundRef)
				}
			case videos / 4:
				wide++
				wideResumed += st.RoundResumed
			default:
				small++
				smallResumed += st.RoundResumed
			}
			if st.RoundResumed == 1 {
				if st.RoundRatio > st.RoundRef || warm.Warm.RoundRef != prev.Warm.RoundRef {
					t.Errorf("%s: resumed at ratio %v against reference %v, handing on %v",
						name, st.RoundRatio, st.RoundRef, warm.Warm.RoundRef)
				}
				if !warm.Converged {
					t.Errorf("%s: resumed solve did not converge", name)
				}
				continue
			}
			stripped := *prev.Warm
			stripped.Assign = nil
			wopts.Warm = &stripped
			full, err := epf.SolveInteger(inst, wopts)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Warm.RoundRef != full.Warm.RoundRef {
				t.Errorf("%s: refused resume hands on reference %v, the state without a placement %v",
					name, warm.Warm.RoundRef, full.Warm.RoundRef)
			}
			if !sameResult(warm, full) && st.RoundRatio >= full.Stats.RoundRatio {
				t.Errorf("%s: refused resume returns objective %v at ratio %v, the state without a placement %v at %v",
					name, warm.Objective, st.RoundRatio, full.Objective, full.Stats.RoundRatio)
			}
		}
	}
	t.Logf("resumed: %d of %d one-video and 1 %% patches, %d of %d quarter-catalog patches",
		smallResumed, small, wideResumed, wide)
	if 3*smallResumed < small {
		t.Errorf("only %d of %d one-video and 1 %% patches resumed", smallResumed, small)
	}
	if 4*wideResumed > wide {
		t.Errorf("%d of %d quarter-catalog patches resumed", wideResumed, wide)
	}
}

// TestRoundReferenceChain: the reference is set by roundings that ran from
// scratch and only by them. full → resumed → resumed hands the first value
// down unchanged; a refused resume replaces it with that round's best
// from-scratch ratio — not the final incumbent's, which on this instance is
// the refused point's own and better than anything the from-scratch attempt
// visited.
func TestRoundReferenceChain(t *testing.T) {
	const videos, seed = 120, 10
	shape := verify.InstanceOpts{Nodes: 8, Videos: videos, Slices: 2}
	opts := epf.Options{Seed: seed, MaxPasses: 300, Epsilon: 0.05}
	solve := func(patched int, w *epf.WarmState) *epf.Result {
		t.Helper()
		inst, err := verify.RandomInstance(seed, shape)
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < patched; x++ {
			scaleDemand(t, inst, int(seed+int64(7*x))%videos, 1.25+0.25*float64(x%4))
		}
		o := opts
		o.Warm = w
		res, err := epf.SolveInteger(inst, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := solve(0, nil)
	first := solve(0, full.Warm)
	second := solve(0, first.Warm)
	for i, res := range []*epf.Result{first, second} {
		if res.Stats.RoundMode() != "resumed" || res.Warm.RoundRef != full.Warm.RoundRef {
			t.Fatalf("re-solve %d: rounding %s hands on reference %v, the full rounding set %v",
				i+1, res.Stats.RoundMode(), res.Warm.RoundRef, full.Warm.RoundRef)
		}
	}
	refused := solve(videos/4, second.Warm)
	stripped := *second.Warm
	stripped.Assign = nil
	scratch := solve(videos/4, &stripped)
	if refused.Stats.RoundMode() != "rejected" || refused.Stats.RoundRef != full.Warm.RoundRef {
		t.Fatalf("quarter-catalog patch: rounding %s against reference %v, want rejected against %v",
			refused.Stats.RoundMode(), refused.Stats.RoundRef, full.Warm.RoundRef)
	}
	if refused.Warm.RoundRef != scratch.Warm.RoundRef || scratch.Warm.RoundRef != scratch.Stats.RoundRatio {
		t.Errorf("refused resume hands on reference %v; the from-scratch attempt alone reaches %v (handing on %v)",
			refused.Warm.RoundRef, scratch.Stats.RoundRatio, scratch.Warm.RoundRef)
	}
	if refused.Stats.RoundRatio >= refused.Warm.RoundRef {
		t.Errorf("the refused point no longer wins this instance's incumbent (final ratio %v, from-scratch best %v): "+
			"the test cannot tell the two apart, pick another seed", refused.Stats.RoundRatio, refused.Warm.RoundRef)
	}
}
