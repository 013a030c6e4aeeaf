package verify

import (
	"context"
	"fmt"
	"math"

	"vodplace/internal/epf"
	"vodplace/internal/facloc"
	"vodplace/internal/mip"
	"vodplace/internal/simplex"
)

// Options configures a Differential sweep.
type Options struct {
	// Instances is the number of seeded random placement instances to sweep.
	// Default 50.
	Instances int
	// UFLs is the number of seeded random facility-location problems to
	// cross-check against brute force. Default 50.
	UFLs int
	// Seed is the base seed; instance i uses Seed+i. Default 1.
	Seed int64
	// Instance parameterizes the random placement instances.
	Instance InstanceOpts
	// OnInstance, when non-nil, is invoked after each placement instance
	// completes (with its 0-based index). Used for progress and for the
	// cancellation tests.
	OnInstance func(i int)
}

// diffMaxPasses is the pass budget of the solves under test, enough for the
// small random instances to converge.
const diffMaxPasses = 200

// lpBand is the allowed relative deviation of the EPF objective from the
// exact LP optimum, in units of the solver's ε-feasibility slack: the
// objective must land in [opt·(1−lpBand), opt·(1+lpBand)], matching the
// solver's documented "within a few percent of OPT while using up to (1+ε)
// of each capacity" contract.
const lpBand = 0.10

func (o Options) defaults() Options {
	if o.Instances == 0 {
		o.Instances = 50
	}
	if o.UFLs == 0 {
		o.UFLs = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// DiffReport aggregates a Differential sweep. Counters report how much of
// the sweep actually ran (a cancelled sweep returns partial counts), the
// Worst* fields the most extreme observed deviations, and Failures every
// hard disagreement between solvers or failed certificate.
type DiffReport struct {
	// Instances / UFLs is how many placement instances / UFL problems
	// completed.
	Instances int
	UFLs      int
	// WorstLPDev is the largest |EPF objective − LP optimum| / LP optimum.
	WorstLPDev float64
	// WorstLBExcess is the largest (EPF lower bound − LP optimum)/LP optimum;
	// any positive value beyond tolerance is a soundness failure.
	WorstLBExcess float64
	// WorstIntGap is the largest (integer objective − certified LB)/certified
	// LB: the certificate-derived integrality + approximation gap.
	WorstIntGap float64
	// WorstUFLHeurGap is the largest (heuristic cost − brute-force optimum) /
	// optimum over the UFL sweep.
	WorstUFLHeurGap float64
	// Failures lists every hard disagreement found; empty means the sweep
	// passed.
	Failures []string
}

// Ok reports whether the sweep found no hard failures.
func (d *DiffReport) Ok() bool { return len(d.Failures) == 0 }

func (d *DiffReport) failf(format string, args ...any) {
	d.Failures = append(d.Failures, fmt.Sprintf(format, args...))
}

// String summarizes the sweep for logs.
func (d *DiffReport) String() string {
	return fmt.Sprintf("differential: %d instances (worst LP dev %.4f, LB excess %.2g, int gap %.4f), %d UFLs (worst heuristic gap %.4f), %d failures",
		d.Instances, d.WorstLPDev, d.WorstLBExcess, d.WorstIntGap, d.UFLs, d.WorstUFLHeurGap, len(d.Failures))
}

// Differential runs the cross-solver harness: seeded random placement
// instances are solved exactly (dense simplex) and approximately (EPF, then
// integer rounding), every result is audited by the certificate checkers,
// and the two objectives are compared; seeded random UFL problems cross the
// facloc heuristics and dual ascent against brute-force enumeration.
//
// Cancellation follows the repository contract: ctx is checked between
// instances, and a cancelled sweep returns the partial report alongside
// ctx.Err(). The report is deterministic for a fixed Options.
func Differential(ctx context.Context, opts Options) (*DiffReport, error) {
	o := opts.defaults()
	rep := &DiffReport{}
	for i := 0; i < o.Instances; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		seed := o.Seed + int64(i)
		if err := diffInstance(rep, seed, o); err != nil {
			rep.failf("instance seed %d: %v", seed, err)
		}
		rep.Instances++
		if o.OnInstance != nil {
			o.OnInstance(i)
		}
	}
	for i := 0; i < o.UFLs; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		diffUFL(rep, o.Seed+int64(i))
		rep.UFLs++
	}
	return rep, nil
}

// diffInstance runs one placement instance through the exact LP, the EPF
// solver and integer rounding, auditing and comparing everything. A returned
// error means the instance could not be processed at all; comparison
// failures are appended to rep directly.
func diffInstance(rep *DiffReport, seed int64, o Options) error {
	inst, err := RandomInstance(seed, o.Instance)
	if err != nil {
		return err
	}

	lp, _, err := simplex.BuildPlacementLP(inst)
	if err != nil {
		return fmt.Errorf("build LP: %w", err)
	}
	lpRes, err := simplex.Solve(lp)
	if err != nil {
		return fmt.Errorf("simplex: %w", err)
	}
	if lpRes.Status != simplex.Optimal {
		return fmt.Errorf("simplex status %v", lpRes.Status)
	}
	opt := lpRes.Objective

	epfOpts := epf.Options{Seed: seed, MaxPasses: diffMaxPasses}
	res, err := diffLP(rep, inst, seed, "", opt, epfOpts)
	if err != nil {
		return err
	}
	// Warm re-solve of the same instance from the cold solve's carryover: the
	// resumed trajectory must hold the same certificates on the same corpus.
	warmOpts := epfOpts
	warmOpts.Warm = res.Warm
	if _, err := diffLP(rep, inst, seed, "warm ", opt, warmOpts); err != nil {
		return err
	}
	diffInteger(rep, inst, seed, opt, epfOpts)
	return nil
}

// diffLP runs one LP solve and audits it against the exact optimum opt —
// certificates, bound soundness, the objective band. label prefixes failure
// messages.
func diffLP(rep *DiffReport, inst *mip.Instance, seed int64, label string, opt float64, epfOpts epf.Options) (*epf.Result, error) {
	res, err := epf.Solve(inst, epfOpts)
	if err != nil {
		return nil, fmt.Errorf("%sepf: %w", label, err)
	}
	ar := Audit(inst, res)
	if !ar.Ok() {
		rep.failf("seed %d: %sLP audit: %v", seed, label, ar.Err())
	}
	// Soundness: neither the claimed Lagrangian bound nor the one the
	// independent certifier re-derives from the exported duals may exceed the
	// true LP optimum.
	if ar.CertifiedLB > opt+CertTol*(1+opt) {
		rep.failf("seed %d: %scertified bound %g exceeds exact LP optimum %g", seed, label, ar.CertifiedLB, opt)
	}
	if ex := (res.LowerBound - opt) / math.Max(1, opt); ex > rep.WorstLBExcess {
		rep.WorstLBExcess = ex
	}
	if res.LowerBound > opt+CertTol*(1+opt) {
		rep.failf("seed %d: %sEPF lower bound %g exceeds exact LP optimum %g", seed, label, res.LowerBound, opt)
	}
	// Accuracy: the ε-feasible objective must track the LP optimum.
	if dev := math.Abs(res.Objective-opt) / math.Max(1, opt); dev > rep.WorstLPDev {
		rep.WorstLPDev = dev
	}
	if res.Objective > opt*(1+lpBand)+CertTol || res.Objective < opt*(1-lpBand)-CertTol {
		rep.failf("seed %d: %sEPF objective %g outside ±%.0f%% band around LP optimum %g (violation %+v)",
			seed, label, res.Objective, 100*lpBand, opt, res.Violation)
	}
	return res, nil
}

// diffInteger runs the integer rounding pipeline under the given solver
// options and audits the result: integrality, certificate, the
// feasible-solutions-only bound, and a wide sanity band around the LP
// optimum.
func diffInteger(rep *DiffReport, inst *mip.Instance, seed int64, opt float64, epfOpts epf.Options) {
	intRes, err := epf.SolveInteger(inst, epfOpts)
	if err != nil {
		rep.failf("seed %d: epf integer: %v", seed, err)
		return
	}
	ar := Audit(inst, intRes)
	if !ar.Ok() {
		rep.failf("seed %d: integer audit: %v", seed, ar.Err())
	}
	if !intRes.Sol.IsIntegral(1e-4) {
		rep.failf("seed %d: rounded solution not integral", seed)
	}
	// The certified bound applies to feasible solutions only: a rounded
	// solution that overruns capacities by ε effectively buys extra capacity
	// and may legitimately dip below the LP optimum. When rounding happens to
	// be capacity-feasible, the bound is binding.
	feasible := intRes.Violation.Disk <= CertTol && intRes.Violation.Link <= CertTol
	if feasible && ar.CertifiedLB > 0 &&
		intRes.Objective < ar.CertifiedLB-CertTol*(1+ar.CertifiedLB) {
		rep.failf("seed %d: feasible integer objective %g below certified LP bound %g", seed, intRes.Objective, ar.CertifiedLB)
	}
	if ar.CertifiedLB > 0 {
		if gap := (intRes.Objective - ar.CertifiedLB) / ar.CertifiedLB; gap > rep.WorstIntGap {
			rep.WorstIntGap = gap
		}
	}
	// Rounding granularity on small instances is coarse; keep a wide sanity
	// band around the LP optimum (the tight band is the LP comparison above).
	if intRes.Objective > opt*1.60+CertTol || intRes.Objective < opt*0.60-CertTol {
		rep.failf("seed %d: integer objective %g implausibly far from LP optimum %g (violation %+v)",
			seed, intRes.Objective, opt, intRes.Violation)
	}
}

// diffUFL crosses the facility-location heuristics against brute force on
// one seeded problem: dual ascent must stay at or below the optimum, the
// heuristics at or above it, and every reported cost must match a from-
// scratch re-evaluation of the reported open set.
func diffUFL(rep *DiffReport, seed int64) {
	// Sizes stay within BruteForce's enumeration limit.
	rng := int(seed % 3)
	p := RandomUFL(seed, 4+rng, 6+rng)
	var fs facloc.Solver
	exact := facloc.BruteForce(p)

	dualLB, _ := fs.DualAscent(p)
	if dualLB > exact.Cost+CertTol*(1+exact.Cost) {
		rep.failf("ufl seed %d: dual ascent bound %g exceeds brute-force optimum %g", seed, dualLB, exact.Cost)
	}
	for _, h := range []struct {
		name string
		sol  facloc.Solution
	}{
		{"Solve", fs.Solve(p)},
		{"SolveQuick", fs.SolveQuick(p)},
		{"BruteForce", exact},
	} {
		if re := uflCost(p, h.sol); relDiff(re, h.sol.Cost) > CertTol {
			rep.failf("ufl seed %d: %s claims cost %g but open set evaluates to %g", seed, h.name, h.sol.Cost, re)
		}
		if h.sol.Cost < exact.Cost-CertTol*(1+exact.Cost) {
			rep.failf("ufl seed %d: %s cost %g below brute-force optimum %g", seed, h.name, h.sol.Cost, exact.Cost)
		}
		if h.name == "Solve" {
			if gap := (h.sol.Cost - exact.Cost) / math.Max(1, exact.Cost); gap > rep.WorstUFLHeurGap {
				rep.WorstUFLHeurGap = gap
			}
		}
	}
}

// uflCost re-evaluates a facility-location solution from scratch: open costs
// of the reported set plus each demand's cheapest open assignment.
func uflCost(p *facloc.Problem, s facloc.Solution) float64 {
	open := make(map[int]bool, len(s.Open))
	var cost float64
	for _, i := range s.Open {
		open[i] = true
		cost += p.Open[i]
	}
	for k := 0; k < p.NumDemands(); k++ {
		best := math.Inf(1)
		for i, c := range p.Row(k) {
			if open[i] && c < best {
				best = c
			}
		}
		cost += best
	}
	return cost
}
