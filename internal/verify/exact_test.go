package verify

import (
	"math"
	"testing"

	"vodplace/internal/epf"
	"vodplace/internal/simplex"
)

// lpBand is the allowed relative deviation of the EPF objective from the
// exact LP optimum: the objective must land in [opt·(1−lpBand),
// opt·(1+lpBand)], matching the solver's documented "within a few percent of
// OPT while using up to (1+ε) of each capacity" contract.
const lpBand = 0.10

// TestEPFAgainstExactLP is the acceptance sweep: 50 seeded random instances
// small enough for the dense simplex, each solved exactly and by the EPF
// solver — cold, warm from the cold solve's carryover, and rounded to
// integers. Every result passes the certificate audit, no bound the solver
// claims or the certifier re-derives exceeds the LP optimum, and the
// objectives land in a band around it.
func TestEPFAgainstExactLP(t *testing.T) {
	var worstLP, worstGap float64
	for seed := int64(1); seed <= 50; seed++ {
		inst, err := RandomInstance(seed, InstanceOpts{})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		lp, _, err := simplex.BuildPlacementLP(inst)
		if err != nil {
			t.Errorf("seed %d: build LP: %v", seed, err)
			continue
		}
		lpRes, err := simplex.Solve(lp)
		if err != nil {
			t.Errorf("seed %d: simplex: %v", seed, err)
			continue
		}
		if lpRes.Status != simplex.Optimal {
			t.Errorf("seed %d: simplex status %v", seed, lpRes.Status)
			continue
		}
		opt := lpRes.Objective
		tol := CertTol * (1 + opt)

		// solveLP runs one LP solve and checks it against opt: certificates,
		// bound soundness, the objective band. label prefixes its failures.
		solveLP := func(label string, opts epf.Options) *epf.Result {
			res, err := epf.Solve(inst, opts)
			if err != nil {
				t.Errorf("seed %d: %sepf: %v", seed, label, err)
				return nil
			}
			ar := Audit(inst, res)
			if !ar.Ok() {
				t.Errorf("seed %d: %sLP audit: %v", seed, label, ar.Err())
			}
			if ar.CertifiedLB > opt+tol {
				t.Errorf("seed %d: %scertified bound %g exceeds exact LP optimum %g", seed, label, ar.CertifiedLB, opt)
			}
			if res.LowerBound > opt+tol {
				t.Errorf("seed %d: %sEPF lower bound %g exceeds exact LP optimum %g", seed, label, res.LowerBound, opt)
			}
			worstLP = max(worstLP, math.Abs(res.Objective-opt)/math.Max(1, opt))
			if res.Objective > opt*(1+lpBand)+CertTol || res.Objective < opt*(1-lpBand)-CertTol {
				t.Errorf("seed %d: %sEPF objective %g outside ±%.0f%% band around LP optimum %g (violation %+v)",
					seed, label, res.Objective, 100*lpBand, opt, res.Violation)
			}
			return res
		}
		opts := epf.Options{Seed: seed, MaxPasses: 200}
		res := solveLP("", opts)
		if res == nil {
			continue
		}
		// The resumed trajectory must hold the same certificates.
		warm := opts
		warm.Warm = res.Warm
		if solveLP("warm ", warm) == nil {
			continue
		}

		intRes, err := epf.SolveInteger(inst, opts)
		if err != nil {
			t.Errorf("seed %d: epf integer: %v", seed, err)
			continue
		}
		ar := Audit(inst, intRes)
		if !ar.Ok() {
			t.Errorf("seed %d: integer audit: %v", seed, ar.Err())
		}
		if !intRes.Sol.IsIntegral(1e-4) {
			t.Errorf("seed %d: rounded solution not integral", seed)
		}
		// The certified bound applies to feasible solutions only: a rounded
		// solution that overruns capacities by ε buys extra capacity and may
		// dip below the LP optimum. When rounding happens to be
		// capacity-feasible, the bound is binding.
		feasible := intRes.Violation.Disk <= CertTol && intRes.Violation.Link <= CertTol
		if feasible && ar.CertifiedLB > 0 &&
			intRes.Objective < ar.CertifiedLB-CertTol*(1+ar.CertifiedLB) {
			t.Errorf("seed %d: feasible integer objective %g below certified LP bound %g", seed, intRes.Objective, ar.CertifiedLB)
		}
		if ar.CertifiedLB > 0 {
			worstGap = max(worstGap, (intRes.Objective-ar.CertifiedLB)/ar.CertifiedLB)
		}
		// Rounding granularity on small instances is coarse, so the band
		// around the LP optimum is wide; the tight band is the LP's above.
		if intRes.Objective > opt*1.60+CertTol || intRes.Objective < opt*0.60-CertTol {
			t.Errorf("seed %d: integer objective %g implausibly far from LP optimum %g (violation %+v)",
				seed, intRes.Objective, opt, intRes.Violation)
		}
	}
	t.Logf("worst LP deviation %.4f, worst integer gap over the certified bound %.4f", worstLP, worstGap)
}
