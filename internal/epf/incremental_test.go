package epf

import (
	"math"
	"testing"
)

// IncrementalPricing changes floating-point trajectories (delta-updated
// path duals, warm-started block solves) but must stay
// a correct solver: same feasibility and optimality guarantees, just a
// different path to them.
func TestIncrementalPricingSolves(t *testing.T) {
	inst := randomInstance(t, 21, 8, 60, 2.0, 100)
	res := mustSolve(t, inst, Options{Seed: 5, MaxPasses: 120, IncrementalPricing: true})
	if !res.Converged {
		t.Fatalf("incremental-pricing solve did not converge: gap %g, violation %+v", res.Gap, res.Violation)
	}
	v := res.Violation
	if v.Unserved > 1e-6 || v.XExceedsY > 1e-6 {
		t.Errorf("block constraints violated: %+v", v)
	}
	if res.Objective < res.LowerBound*(1-1e-9) {
		t.Errorf("objective %g below certified lower bound %g", res.Objective, res.LowerBound)
	}
	if res.Gap > 0.011 {
		t.Errorf("gap %g exceeds epsilon", res.Gap)
	}

	// The default solver on the same instance must agree on what "optimal"
	// means: both converged points sit within epsilon of a shared optimum,
	// so their objectives can differ by at most about two epsilons.
	base := mustSolve(t, randomInstance(t, 21, 8, 60, 2.0, 100), Options{Seed: 5, MaxPasses: 120})
	if base.Converged {
		rel := math.Abs(res.Objective-base.Objective) / math.Max(1, base.Objective)
		if rel > 0.03 {
			t.Errorf("incremental objective %g vs default %g: relative difference %g too large",
				res.Objective, base.Objective, rel)
		}
	}
}

// The determinism contract holds in the fast mode too: delta updates and
// warm starts run per block on the driver or in index-addressed slots, so
// the worker count still never changes the result.
func TestIncrementalPricingWorkerInvariance(t *testing.T) {
	opts := Options{Seed: 5, MaxPasses: 30, IncrementalPricing: true}
	a := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100), opts)
	for _, workers := range []int{3, 8} {
		o := opts
		o.Workers = workers
		b := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100), o)
		if a.LowerBound != b.LowerBound || a.Objective != b.Objective {
			t.Errorf("Workers=1 vs %d: (%.17g, %.17g) vs (%.17g, %.17g)",
				workers, a.Objective, a.LowerBound, b.Objective, b.LowerBound)
		}
		if !identicalSolutions(a.Sol, b.Sol) {
			t.Errorf("Workers=1 vs %d: solutions differ", workers)
		}
	}
}
