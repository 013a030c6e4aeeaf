// Package verify is the repository's independent correctness layer: given a
// placement solution and the numbers a solver claims about it, it re-derives
// every claim from the instance data alone and fails loudly on disagreement.
//
// The package deliberately shares no code with the solvers it audits. The
// EPF driver (internal/epf), the facility-location block solver
// (internal/facloc) and the dense simplex (internal/simplex) all maintain
// incremental state — activities, duals, best trackers — whose bugs are
// exactly the ones that corrupt results silently; the checkers here compute
// everything from scratch with plain dense loops over the instance. The only
// shared surfaces are the problem definition itself (internal/mip's Instance
// and Solution types, internal/topology's path tables), which is the model
// being solved, not a solver.
//
// Three layers:
//
//   - CheckSolution / Audit: feasibility certificates. Conservation,
//     availability, disk and per-slice link activity are re-accumulated
//     densely and compared against both the solver's claims and
//     mip.Solution's own sparse evaluators (a cross-evaluator check).
//
//   - CertifyLowerBound: a duality-gap certificate. Given the coupling-row
//     dual prices λ a solver reports (epf.Result.RowDuals), the Lagrangian
//     bound LR(λ) = Σ_k LB_k(λ) − λ·b is re-derived with freshly built block
//     costs and per-block dual-ascent prices whose feasibility is checked
//     arithmetically — so the bound's validity rests on the check, not on
//     any solver's internal state.
//
//   - Differential: a cross-solver harness (diff.go) sweeping seeded random
//     instances through EPF vs the exact simplex LP, and the facloc
//     heuristics vs brute-force enumeration.
package verify

import (
	"fmt"
	"math"
	"strings"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
)

// CertTol is the relative slack allowed when comparing independently
// re-derived quantities (objectives, bounds) against solver claims: the two
// computations order floating-point sums differently, so exact equality is
// not expected, but disagreement beyond CertTol·scale is a failure.
const CertTol = 1e-6

// Report is the outcome of auditing one solution.
type Report struct {
	// Objective is the independently recomputed objective value.
	Objective float64
	// Violation holds the independently recomputed constraint violations
	// (same component meanings as mip.Violation).
	Violation mip.Violation
	// CertifiedLB is the lower bound this audit could certify (0 when no
	// dual certificate was checked).
	CertifiedLB float64
	// ClaimedLB is the bound the solver reported (Audit only).
	ClaimedLB float64
	// CertReused is the number of block bounds the certificate took from an
	// Auditor's cache instead of re-deriving (0 for the package-level Audit).
	CertReused int
	// Gap is (Objective − CertifiedLB)/CertifiedLB when a certificate was
	// checked and CertifiedLB > 0.
	Gap float64
	// Failures lists every hard violation found; empty means the audit
	// passed.
	Failures []string
}

// Ok reports whether the audit found no hard failures.
func (r *Report) Ok() bool { return len(r.Failures) == 0 }

// Err returns nil when the audit passed, or one error summarizing every
// failure.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	return fmt.Errorf("verify: %s", strings.Join(r.Failures, "; "))
}

// String formats the report for CLI -verify output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "objective %.6g  violations disk %.3g link %.3g unserved %.3g x>y %.3g",
		r.Objective, r.Violation.Disk, r.Violation.Link, r.Violation.Unserved, r.Violation.XExceedsY)
	if r.CertifiedLB != 0 {
		fmt.Fprintf(&b, "  certified lb %.6g (gap %.2f%%)", r.CertifiedLB, 100*r.Gap)
	}
	if r.Ok() {
		b.WriteString("  [certificates OK]")
	} else {
		fmt.Fprintf(&b, "  [%d FAILURES: %s]", len(r.Failures), strings.Join(r.Failures, "; "))
	}
	return b.String()
}

func (r *Report) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// relDiff returns |a−b| scaled by max(1, |a|, |b|).
func relDiff(a, b float64) float64 {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) / scale
}

// CheckSolution re-derives sol's objective and every constraint family with
// dense from-scratch accumulation, then cross-checks the result against
// mip.Solution's own sparse evaluators. It never consults solver state.
func CheckSolution(sol *mip.Solution) *Report {
	r := &Report{}
	if sol == nil || sol.Inst == nil {
		r.failf("nil solution")
		return r
	}
	inst := sol.Inst
	n := inst.NumVHOs()
	L := inst.G.NumLinks()

	diskUse := make([]float64, n)
	linkUse := make([][]float64, inst.Slices)
	for t := range linkUse {
		linkUse[t] = make([]float64, L)
	}
	yDense := make([]float64, n)
	var objective float64

	if len(sol.Videos) != len(inst.Demands) {
		r.failf("solution has %d videos for %d demands", len(sol.Videos), len(inst.Demands))
		return r
	}
	for vi := range sol.Videos {
		d := &inst.Demands[vi]
		vp := &sol.Videos[vi]

		// Dense per-video y, with structural checks on the sparse encoding.
		for i := range yDense {
			yDense[i] = 0
		}
		var ySum float64
		prev := int32(-1)
		for _, f := range vp.Open {
			if f.I < 0 || int(f.I) >= n {
				r.failf("video %d: open office %d out of range", d.Video, f.I)
				return r
			}
			if f.I <= prev {
				r.failf("video %d: open entries not strictly ascending", d.Video)
			}
			prev = f.I
			if math.IsNaN(f.V) || f.V < -mip.FeasTol || f.V > 1+mip.FeasTol {
				r.failf("video %d: y[%d] = %g outside [0,1]", d.Video, f.I, f.V)
			}
			yDense[f.I] = f.V
			ySum += f.V
			diskUse[f.I] += d.SizeGB * f.V
			if inst.UpdateWeight != 0 {
				objective += inst.PlacementCost(vi, int(f.I)) * f.V
			}
		}

		if len(vp.Assign) != len(d.Js) {
			r.failf("video %d: %d assignment rows for %d demand offices", d.Video, len(vp.Assign), len(d.Js))
			return r
		}
		for k := range d.Js {
			j := int(d.Js[k])
			var served float64
			for _, f := range vp.Assign[k] {
				if f.I < 0 || int(f.I) >= n {
					r.failf("video %d: assignment office %d out of range", d.Video, f.I)
					return r
				}
				if math.IsNaN(f.V) || f.V < -mip.FeasTol {
					r.failf("video %d: x[%d→%d] = %g negative", d.Video, f.I, j, f.V)
				}
				served += f.V
				if ex := f.V - yDense[f.I]; ex > r.Violation.XExceedsY {
					r.Violation.XExceedsY = ex
				}
				objective += d.SizeGB * d.Agg[k] * inst.Cost(int(f.I), j) * f.V
				if int(f.I) != j && f.V != 0 {
					// The CSR row visits the dense loop's nonzeros in the same
					// ascending-t order, so accumulation is bit-identical.
					ts, fv := d.ConcNZ(k)
					for ti, tt := range ts {
						flow := d.RateMbps * fv[ti] * f.V
						if flow == 0 {
							continue
						}
						for _, l := range inst.G.Path(int(f.I), j) {
							linkUse[int(tt)][l] += flow
						}
					}
				}
			}
			if dev := math.Abs(served - 1); dev > r.Violation.Unserved {
				r.Violation.Unserved = dev
			}
		}
		// Constraints (3)+(4): a video with no demand must still be stored.
		if len(d.Js) == 0 {
			if dev := 1 - ySum; dev > r.Violation.Unserved {
				r.Violation.Unserved = dev
			}
		}
	}

	for i, u := range diskUse {
		if rel := u/inst.DiskGB[i] - 1; rel > r.Violation.Disk {
			r.Violation.Disk = rel
		}
	}
	for t := range linkUse {
		for l, u := range linkUse[t] {
			if rel := u/inst.LinkCapMbps[l] - 1; rel > r.Violation.Link {
				r.Violation.Link = rel
			}
		}
	}
	r.Objective = objective

	if math.IsNaN(objective) || math.IsInf(objective, 0) {
		r.failf("objective is %g", objective)
	}
	// Cross-evaluator check: the sparse evaluators in internal/mip must agree
	// with this dense re-derivation.
	if d := relDiff(objective, sol.Objective()); d > CertTol {
		r.failf("objective evaluators disagree: dense %g vs sparse %g", objective, sol.Objective())
	}
	mv := sol.Check()
	for _, c := range []struct {
		name        string
		dense, mips float64
	}{
		{"disk", r.Violation.Disk, mv.Disk},
		{"link", r.Violation.Link, mv.Link},
		{"unserved", r.Violation.Unserved, mv.Unserved},
		{"x>y", r.Violation.XExceedsY, mv.XExceedsY},
	} {
		if relDiff(c.dense, c.mips) > CertTol {
			r.failf("%s violation evaluators disagree: dense %g vs sparse %g", c.name, c.dense, c.mips)
		}
	}
	return r
}

// Audit is the full certificate check for one EPF result: feasibility
// re-derivation, cross-checks of the claimed objective and violations, and
// the duality-gap certificate from the reported row duals. Hard failures
// (Report.Err() != nil) mean the result's claims are wrong, not merely that
// the solution is ε-infeasible — coupling-row slack is the solver's reported
// business; lying about it is the auditor's. It is an empty Auditor's audit.
func Audit(inst *mip.Instance, res *epf.Result) *Report {
	var a Auditor
	return a.Audit(inst, res)
}

// Audit is the package-level Audit with the certificate derived through a's
// cache (Report.CertReused says how many block bounds it reused); the report
// is the one a fresh Audit gives, value for value.
func (a *Auditor) Audit(inst *mip.Instance, res *epf.Result) *Report {
	if inst == nil || res == nil || res.Sol == nil {
		r := &Report{}
		r.failf("nil instance or result")
		return r
	}
	if res.Sol.Inst != inst {
		r := &Report{}
		r.failf("result's solution belongs to a different instance")
		return r
	}
	r := CheckSolution(res.Sol)
	r.ClaimedLB = res.LowerBound

	// The block constraints are maintained exactly by every solver path
	// (including cancelled partial results); violations there are hard bugs.
	if r.Violation.Unserved > mip.FeasTol {
		r.failf("conservation violated: max |Σx−1| = %g", r.Violation.Unserved)
	}
	if r.Violation.XExceedsY > mip.FeasTol {
		r.failf("availability violated: max x−y = %g", r.Violation.XExceedsY)
	}

	// Claimed numbers must match the re-derivation.
	if d := relDiff(res.Objective, r.Objective); d > CertTol {
		r.failf("claimed objective %g vs recomputed %g", res.Objective, r.Objective)
	}
	for _, c := range []struct {
		name             string
		claimed, derived float64
	}{
		{"disk", res.Violation.Disk, r.Violation.Disk},
		{"link", res.Violation.Link, r.Violation.Link},
	} {
		if relDiff(c.claimed, c.derived) > CertTol {
			r.failf("claimed %s violation %g vs recomputed %g", c.name, c.claimed, c.derived)
		}
	}

	// Duality-gap certificate: the claimed bound must be justified by the
	// reported dual prices (or by the trivial no-network bound, which is the
	// λ = 0 certificate).
	cert, reused, err := a.certify(inst, res.RowDuals)
	if err != nil {
		r.failf("certificate: %v", err)
		return r
	}
	r.CertifiedLB, r.CertReused = cert, reused
	if res.LowerBound > cert*(1+CertTol)+CertTol {
		r.failf("claimed lower bound %g exceeds certified bound %g", res.LowerBound, cert)
	}
	if cert > 0 {
		r.Gap = (r.Objective - cert) / cert
	}
	return r
}
