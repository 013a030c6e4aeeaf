package verify

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"vodplace/internal/facloc"
	"vodplace/internal/mip"
	"vodplace/internal/par"
)

// CertifyLowerBound re-derives a provable lower bound on the placement LP
// (and hence MIP) optimum from a coupling-row dual vector λ, laid out as
// epf.Result.RowDuals documents: entries 0..n-1 price the disk rows, entry
// n + t·L + l prices link l in slice t.
//
// The certificate is the Lagrangian bound LR(λ) = Σ_m LB_m(λ) − λ·b, where
// LB_m is a valid lower bound on video m's block subproblem — an
// uncapacitated facility location LP with open cost
// F_i = λ_disk(i)·s^m + w·s^m·c(o_m,i) and assignment cost
// g_ki = s^m·a_k·c(i,j_k) + Σ_t r^m·f_k(t)·Σ_{l∈P_ij} λ_link(l,t). The block
// costs are built here from the instance data (not by the solver), and the
// per-block bound is justified by a UFL dual vector v whose feasibility
// Σ_k max(0, v_k − g_ki) ≤ F_i is verified arithmetically below — so the
// bound's validity rests on that check, not on how v was produced (the
// Erlenkotter ascent in internal/facloc proposes it).
//
// A second valid bound — the no-network bound Σ_m Σ_k β·s^m·a_k (every
// request served locally) plus the cheapest placement-transfer term — is
// re-derived independently and the maximum of the two is returned, so the
// zero dual vector certifies a solver's initial bound too. Passing nil duals
// certifies only the no-network bound.
//
// The block bounds are computed on a GOMAXPROCS-sized pool; the value and
// any error are the same at every pool size.
func CertifyLowerBound(inst *mip.Instance, rowDuals []float64) (float64, error) {
	return certifyLowerBound(inst, rowDuals, runtime.GOMAXPROCS(0))
}

// certifyLowerBound is CertifyLowerBound with its block bounds computed on a
// pool of the given number of workers.
func certifyLowerBound(inst *mip.Instance, rowDuals []float64, workers int) (float64, error) {
	if inst == nil {
		return 0, fmt.Errorf("nil instance")
	}
	n := inst.NumVHOs()
	L := inst.G.NumLinks()
	T := inst.Slices
	trivial := noNetworkBound(inst)
	if rowDuals == nil {
		return trivial, nil
	}
	if len(rowDuals) != n+L*T {
		return 0, fmt.Errorf("dual vector has %d entries for %d rows", len(rowDuals), n+L*T)
	}
	for r, v := range rowDuals {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return 0, fmt.Errorf("dual %d is %g (must be finite and non-negative)", r, v)
		}
	}
	linkDual := func(l, t int) float64 { return rowDuals[n+t*L+l] }

	// Path-aggregated link prices, λ_path[t][i][j] = Σ_{l ∈ P_ij} λ_link(l,t).
	pathDual := make([][]float64, T)
	for t := 0; t < T; t++ {
		pathDual[t] = make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				var sum float64
				for _, l := range inst.G.Path(i, j) {
					sum += linkDual(int(l), t)
				}
				pathDual[t][i*n+j] = sum
			}
		}
	}

	// Block bounds are independent given λ: each worker fills its videos'
	// index-addressed slots, then the sum runs in video order and the first
	// failing video is the lowest-index one, so the value and the error are
	// the serial loop's at any worker count.
	bounds := make([]float64, len(inst.Demands))
	errs := make([]error, len(inst.Demands))
	pool := par.New(workers)
	defer pool.Close()
	scratch := make([]blockScratch, pool.Workers())
	pool.Run(context.Background(), len(inst.Demands), func(w, lo, hi int) { //nolint:errcheck // never cancelled
		sc := &scratch[w]
		if sc.prob.Open == nil {
			sc.prob.Open = make([]float64, n)
		}
		for vi := lo; vi < hi; vi++ {
			bounds[vi], errs[vi] = blockBound(inst, vi, rowDuals, pathDual, sc)
		}
	})
	var lr float64
	for vi, bound := range bounds {
		if errs[vi] != nil {
			return 0, fmt.Errorf("video %d: %w", inst.Demands[vi].Video, errs[vi])
		}
		lr += bound
	}
	for i := 0; i < n; i++ {
		lr -= rowDuals[i] * inst.DiskGB[i]
	}
	for t := 0; t < T; t++ {
		for l := 0; l < L; l++ {
			lr -= linkDual(l, t) * inst.LinkCapMbps[l]
		}
	}
	if math.IsNaN(lr) {
		return 0, fmt.Errorf("certified bound is NaN")
	}
	return math.Max(lr, trivial), nil
}

// blockScratch is one worker's block problem and facility-location solver.
type blockScratch struct {
	fs   facloc.Solver
	prob facloc.Problem
}

// blockBound returns LB_m(λ) for video index vi: the block's costs built from
// the instance data, bounded by a checked UFL dual vector. pathDual holds the
// path-aggregated link prices, λ_path[t][i·n+j].
func blockBound(inst *mip.Instance, vi int, rowDuals []float64, pathDual [][]float64, sc *blockScratch) (float64, error) {
	n := inst.NumVHOs()
	d := &inst.Demands[vi]
	prob := &sc.prob
	for i := 0; i < n; i++ {
		prob.Open[i] = rowDuals[i]*d.SizeGB + inst.PlacementCost(vi, i)
	}
	K := len(d.Js)
	if K == 0 {
		// The block minimum is opening the cheapest single facility.
		minF := math.Inf(1)
		for _, f := range prob.Open {
			if f < minF {
				minF = f
			}
		}
		return minF, nil
	}
	prob.Reshape(K)
	for k := 0; k < K; k++ {
		j := int(d.Js[k])
		coef := d.SizeGB * d.Agg[k]
		row := prob.Row(k)
		// Ascending-t CSR nonzeros: the same terms, in the same order, as
		// the dense t-scan, so the certified costs are bit-identical.
		ts, fv := d.ConcNZ(k)
		for i := 0; i < n; i++ {
			c := coef * inst.Cost(i, j)
			for ti, tt := range ts {
				c += d.RateMbps * fv[ti] * pathDual[tt][i*n+j]
			}
			row[i] = c
		}
	}
	return checkedBlockBound(&sc.fs, prob)
}

// checkedBlockBound obtains a UFL dual vector for prob and verifies its
// feasibility before summing it: Σ_k max(0, v_k − g_ki) ≤ F_i must hold for
// every facility (up to floating-point slack proportional to the magnitudes
// involved). An infeasible proposal is a certificate failure.
func checkedBlockBound(fs *facloc.Solver, prob *facloc.Problem) (float64, error) {
	_, v := fs.DualAscent(prob)
	if len(v) != prob.NumDemands() {
		return 0, fmt.Errorf("dual ascent returned %d duals for %d demands", len(v), prob.NumDemands())
	}
	var bound float64
	for _, vk := range v {
		bound += vk
	}
	for i, F := range prob.Open {
		var load, scale float64
		for k := range v {
			if ex := v[k] - prob.Row(k)[i]; ex > 0 {
				load += ex
			}
			if a := math.Abs(v[k]); a > scale {
				scale = a
			}
		}
		if F > scale {
			scale = F
		}
		if load > F+CertTol*(1+scale) {
			return 0, fmt.Errorf("block dual infeasible at facility %d: load %g > open cost %g", i, load, F)
		}
	}
	return bound, nil
}

// noNetworkBound re-derives the trivial lower bound: every request served at
// cost β (zero hops), plus — under the update objective — the cheapest
// placement-transfer cost per video. This is the Lagrangian value at λ = 0
// in closed form, computed without the solver's LowerBoundNoNetwork.
func noNetworkBound(inst *mip.Instance) float64 {
	var total float64
	for vi := range inst.Demands {
		d := &inst.Demands[vi]
		for _, a := range d.Agg {
			total += inst.Beta * d.SizeGB * a
		}
		if inst.UpdateWeight != 0 {
			best := math.Inf(1)
			for i := 0; i < inst.NumVHOs(); i++ {
				if c := inst.PlacementCost(vi, i); c < best {
					best = c
				}
			}
			total += best
		}
	}
	return total
}
