package core

import (
	"testing"

	"vodplace/internal/catalog"
	"vodplace/internal/epf"
	"vodplace/internal/topology"
	"vodplace/internal/workload"
)

// warmSystem builds the multi-period setup the warm-start tests and the
// pipeline benchmarks share: a denser trace than testSystem (15 requests per
// video per day) so successive daily instances drift marginally — the §VI-C
// regime cross-period warm starts are designed for — instead of being
// dominated by sampling noise.
func warmSystem(tb testing.TB) (*System, *workload.Trace) {
	tb.Helper()
	g := topology.Random(10, 1.2, 4)
	lib := catalog.Generate(catalog.Config{NumVideos: 600, Weeks: 2, NumSeries: 2}, 6)
	tr := workload.GenerateTrace(lib, workload.TraceConfig{
		Days: 14, NumVHOs: 10, RequestsPerVideoPerDay: 15,
	}, 9)
	s := &System{
		G:           g,
		Lib:         lib,
		DiskGB:      UniformDisk(lib, 10, 2.0),
		LinkCapMbps: UniformLinks(g, 40000),
	}
	return s, tr
}

// warmOptions is the daily re-placement configuration for warmSystem: one
// placement per day over the second week, migration-penalized, at the 5%
// tolerance the integrality gap of the dense instances needs.
func warmOptions() MIPOptions {
	return MIPOptions{
		UpdateEveryDays: 1,
		UpdateWeight:    0.5,
		Solver:          epf.Options{Seed: 1, MaxPasses: 400, Epsilon: 0.05},
	}
}

// TestRunMIPWarmParity runs the same daily pipeline cold and warm and checks
// the tentpole contract: every warm solve is independently audited (Verify:
// true runs verify.Audit, certificate included, on each period), each day's
// warm objective stays within the certified tolerance band of the cold
// solve's, the first period runs cold, later periods reuse carried state, and
// the warm pipeline converges in materially fewer total passes.
func TestRunMIPWarmParity(t *testing.T) {
	s, tr := warmSystem(t)
	opts := warmOptions()
	opts.Verify = true
	cold, err := s.RunMIP(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	wopts := opts
	wopts.Warm = true
	warm, err := s.RunMIP(tr, wopts)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Plans) != len(cold.Plans) {
		t.Fatalf("warm run has %d plans, cold has %d", len(warm.Plans), len(cold.Plans))
	}
	var coldPasses, warmPasses int
	for i := range cold.Plans {
		cp, wp := cold.Plans[i], warm.Plans[i]
		if cp.Day != wp.Day {
			t.Fatalf("plan %d: days differ (%d vs %d)", i, cp.Day, wp.Day)
		}
		coldPasses += cp.Result.Passes
		warmPasses += wp.Result.Passes
		if !cp.Result.Converged || !wp.Result.Converged {
			t.Fatalf("day %d: solves did not converge (cold %v, warm %v)",
				cp.Day, cp.Result.Converged, wp.Result.Converged)
		}
		// Both solves ended ε-converged on the same instance, so both
		// objectives lie in [opt·(1−O(ε)), opt·(1+ε)] — within ~2ε+slack of
		// each other relatively (ε = 0.05 here).
		if rel := relDiff(wp.Result.Objective, cp.Result.Objective); rel > 0.12 {
			t.Errorf("day %d: warm objective %g vs cold %g (rel diff %.3f) outside tolerance band",
				cp.Day, wp.Result.Objective, cp.Result.Objective, rel)
		}
		if i == 0 {
			if wp.Result.Stats.WarmVideos != 0 {
				t.Errorf("first period seeded %d videos; must run cold", wp.Result.Stats.WarmVideos)
			}
			if wp.Result.Objective != cp.Result.Objective || wp.Result.Passes != cp.Result.Passes {
				t.Errorf("first period differs between runs; warm mode must not touch the cold first solve")
			}
		} else if wp.Result.Stats.WarmVideos == 0 {
			t.Errorf("day %d: no videos warm-seeded despite carried state", wp.Day)
		}
	}
	// The point of the exercise: warm re-solves converge in materially fewer
	// passes over the week (typically ~2.4×; require a comfortable margin).
	if float64(warmPasses) > 0.8*float64(coldPasses) {
		t.Errorf("warm pipeline took %d total passes vs cold %d; expected a clear reduction",
			warmPasses, coldPasses)
	}
	t.Logf("total passes: cold %d, warm %d", coldPasses, warmPasses)
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	if m == 0 {
		return d
	}
	return d / m
}

// TestRunMIPWarmWorkerInvariance: warm mode keeps the solver's determinism
// contract — the whole pipeline produces identical numbers at any worker
// count.
func TestRunMIPWarmWorkerInvariance(t *testing.T) {
	s, tr := warmSystem(t)
	var ref *MIPRun
	for _, workers := range []int{1, 4} {
		opts := warmOptions()
		opts.Warm = true
		opts.Verify = true
		opts.Solver.Workers = workers
		run, err := s.RunMIP(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = run
			continue
		}
		for i := range ref.Plans {
			a, b := ref.Plans[i].Result, run.Plans[i].Result
			if a.Objective != b.Objective || a.LowerBound != b.LowerBound || a.Passes != b.Passes {
				t.Errorf("workers=%d day %d: (obj %v lb %v passes %d) != workers=1 (obj %v lb %v passes %d)",
					workers, ref.Plans[i].Day, b.Objective, b.LowerBound, b.Passes,
					a.Objective, a.LowerBound, a.Passes)
			}
		}
	}
}
