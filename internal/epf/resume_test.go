package epf_test

import (
	"fmt"
	"math"
	"testing"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/verify"
)

// scaleDemand multiplies video vi's demand by f in place, keeping its demand
// offices (the shape of a serving-plane demand update).
func scaleDemand(t *testing.T, inst *mip.Instance, vi int, f float64) {
	t.Helper()
	d := &inst.Demands[vi]
	agg := make([]float64, len(d.Js))
	for k := range agg {
		agg[k] = d.Agg[k] * f
	}
	conc := make([][]float64, inst.Slices)
	for s := range conc {
		conc[s] = make([]float64, len(d.Js))
	}
	for k := range d.Js {
		ts, vs := d.ConcNZ(k)
		for x, s := range ts {
			conc[s][k] = math.Ceil(vs[x] * f)
		}
	}
	if err := inst.ApplyDemandDelta(vi, d.Js, agg, conc); err != nil {
		t.Fatal(err)
	}
}

// TestResumeEconomy is the resume contract on the differential corpus: after
// a demand patch to k videos (one, 1-2 %, a quarter of the catalog), a
// re-solve seeded with the previous Result.Warm converges, passes the
// independent audit, lands within the differential band of a cold solve of
// the same patched instance, and takes no more descent passes than the same
// warm state without its LP point (the open-set-only seed that was all a
// WarmState carried before) — the economy, not just the validity. These
// 120-video instances converge cold in 7-12 passes, so the saving is a few
// passes each; the benchmark's 2000-video steady-hot workload is where it is
// 17 → 1.
func TestResumeEconomy(t *testing.T) {
	const (
		videos = 120
		band   = 0.10 // verify.Options.LPBand's default: the differential band
	)
	shape := verify.InstanceOpts{Nodes: 8, Videos: videos, Slices: 2}
	var resumedPasses, openSetPasses int
	for seed := int64(1); seed <= 8; seed++ {
		opts := epf.Options{Seed: seed, MaxPasses: 300, Epsilon: 0.05,
			IncrementalPricing: true, ParallelRound: true}
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
			if warm.Passes > restarted.Passes {
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
