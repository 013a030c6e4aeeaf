package verify

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"

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
// any error are the same at every pool size. It is an empty Auditor's
// certificate: the same path, with nothing to reuse.
func CertifyLowerBound(inst *mip.Instance, rowDuals []float64) (float64, error) {
	var a Auditor
	lb, _, err := a.certify(inst, rowDuals)
	return lb, err
}

// Auditor is Audit with a memory of its last certificate. A block bound
// LB_m(λ) reads only λ, the instance-wide inputs (Alpha, Beta, UpdateWeight,
// the office, link and slice counts and the path table) and video m's own
// inputs (size, rate, demand offices, aggregates, concurrency nonzeros and,
// under the update objective, its origin). An Auditor keeps the block bounds
// of its last successful certificate with a packed copy of all of those; the
// next certificate at the same λ on the same instance-wide inputs takes the
// bound of every video whose inputs pack to the same words and re-derives
// only the others, on its pool, then sums in video order as a fresh
// certificate does — so the value and any error are a fresh certificate's,
// bit for bit and word for word. A certificate that fails is never kept.
//
// The cache and the comparison are this package's own: an Auditor reads
// nothing a solver computed beyond the claims it is checking, and pointer
// identity plays no part, so an instance patched in place is compared by
// value. The zero value is an empty Auditor; Audit and CertifyLowerBound are
// an empty one's. An Auditor is not safe for concurrent use.
type Auditor struct {
	// workers sizes the block-bound pool; 0 means GOMAXPROCS.
	workers int
	// The last successful certificate: key packs its λ and instance-wide
	// inputs (appendCertKey); bound[vi] is video index vi's block bound and
	// inputs[vi] its packed inputs (appendVideoInputs). A video that hits
	// keeps its slice, so the cache holds one copy of the inputs.
	key    []uint32
	bound  []float64
	inputs [][]uint32
	// scratch for the packing of the certificate being derived
	keyBuf, buf []uint32
}

// certify is CertifyLowerBound through a's cache; reused counts the block
// bounds taken from it.
func (a *Auditor) certify(inst *mip.Instance, rowDuals []float64) (lb float64, reused int, err error) {
	if inst == nil {
		return 0, 0, fmt.Errorf("nil instance")
	}
	n := inst.NumVHOs()
	L := inst.G.NumLinks()
	T := inst.Slices
	trivial := noNetworkBound(inst)
	if rowDuals == nil {
		return trivial, 0, nil
	}
	if len(rowDuals) != n+L*T {
		return 0, 0, fmt.Errorf("dual vector has %d entries for %d rows", len(rowDuals), n+L*T)
	}
	for r, v := range rowDuals {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return 0, 0, fmt.Errorf("dual %d is %g (must be finite and non-negative)", r, v)
		}
	}

	// A video whose inputs pack to the words the last certificate kept, under
	// the same key, keeps its bound; the others are packed into one arena.
	a.keyBuf = appendCertKey(a.keyBuf[:0], inst, rowDuals)
	same := a.bound != nil && slices.Equal(a.keyBuf, a.key)
	nv := len(inst.Demands)
	bound := make([]float64, nv)
	inputs := make([][]uint32, nv)
	var miss []int
	words := 0
	for vi := range inst.Demands {
		if same && vi < len(a.inputs) {
			a.buf = appendVideoInputs(a.buf[:0], inst, vi)
			if slices.Equal(a.buf, a.inputs[vi]) {
				bound[vi], inputs[vi] = a.bound[vi], a.inputs[vi]
				continue
			}
		}
		miss = append(miss, vi)
		d := &inst.Demands[vi]
		words += 6 + 4*len(d.Js) + 3*d.NNZ() // appendVideoInputs' length
	}
	arena := make([]uint32, 0, words)
	for _, vi := range miss {
		at := len(arena)
		arena = appendVideoInputs(arena, inst, vi)
		inputs[vi] = arena[at:len(arena):len(arena)]
	}
	if err := a.blockBounds(inst, rowDuals, miss, bound); err != nil {
		return 0, 0, err
	}

	var lr float64
	for _, b := range bound {
		lr += b
	}
	for i := 0; i < n; i++ {
		lr -= rowDuals[i] * inst.DiskGB[i]
	}
	for t := 0; t < T; t++ {
		for l := 0; l < L; l++ {
			lr -= rowDuals[n+t*L+l] * inst.LinkCapMbps[l]
		}
	}
	if math.IsNaN(lr) {
		return 0, 0, fmt.Errorf("certified bound is NaN")
	}
	a.key, a.keyBuf = a.keyBuf, a.key
	a.bound, a.inputs = bound, inputs
	return math.Max(lr, trivial), nv - len(miss), nil
}

// blockBounds derives bound[vi] for every video index in miss (ascending)
// from the instance data. Block bounds are independent given λ: each worker
// fills its videos' index-addressed slots and the first failing video is the
// lowest-index one, so the bounds and the error are the serial loop's at any
// worker count.
func (a *Auditor) blockBounds(inst *mip.Instance, rowDuals []float64, miss []int, bound []float64) error {
	if len(miss) == 0 {
		return nil
	}
	n := inst.NumVHOs()
	L := inst.G.NumLinks()
	T := inst.Slices
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

	workers := a.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, len(miss))
	pool := par.New(workers)
	defer pool.Close()
	scratch := make([]blockScratch, pool.Workers())
	pool.Run(context.Background(), len(miss), func(w, lo, hi int) { //nolint:errcheck // never cancelled
		sc := &scratch[w]
		if sc.prob.Open == nil {
			sc.prob.Open = make([]float64, n)
		}
		for x := lo; x < hi; x++ {
			bound[miss[x]], errs[x] = blockBound(inst, miss[x], rowDuals, pathDual, sc)
		}
	})
	for x, err := range errs {
		if err != nil {
			return fmt.Errorf("video %d: %w", inst.Demands[miss[x]].Video, err)
		}
	}
	return nil
}

// appendCertKey appends, as 32-bit words, what every block bound of a
// certificate reads: the office, link and slice counts, the path table's
// sizes and entries, Alpha, Beta, UpdateWeight and λ (each float64 two words,
// its bits). Equal keys mean equal inputs, bit for bit.
func appendCertKey(dst []uint32, inst *mip.Instance, rowDuals []float64) []uint32 {
	links, off := inst.G.PathCSR()
	dst = append(dst, uint32(inst.NumVHOs()), uint32(inst.G.NumLinks()), uint32(inst.Slices),
		uint32(len(off)), uint32(len(links)))
	for _, o := range off {
		dst = append(dst, uint32(o))
	}
	for _, l := range links {
		dst = append(dst, uint32(l))
	}
	dst = appendWords(dst, inst.Alpha)
	dst = appendWords(dst, inst.Beta)
	dst = appendWords(dst, inst.UpdateWeight)
	for _, v := range rowDuals {
		dst = appendWords(dst, v)
	}
	return dst
}

// appendVideoInputs appends, as 32-bit words, what video vi's block bound
// reads beyond the certificate key: its origin (only when UpdateWeight is
// nonzero, else 0), size, rate and demand-office count, then per demand
// office its index, its nonzero-slice count, its aggregate and each nonzero
// slice with its concurrency. Every count precedes what it counts, so equal
// words mean equal inputs.
func appendVideoInputs(dst []uint32, inst *mip.Instance, vi int) []uint32 {
	d := &inst.Demands[vi]
	origin := int32(0)
	if inst.UpdateWeight != 0 && len(inst.Origin) > 0 {
		origin = inst.Origin[vi]
	}
	dst = append(dst, uint32(origin))
	dst = appendWords(dst, d.SizeGB)
	dst = appendWords(dst, d.RateMbps)
	dst = append(dst, uint32(len(d.Js)))
	for k := range d.Js {
		ts, fv := d.ConcNZ(k)
		dst = append(dst, uint32(d.Js[k]), uint32(len(ts)))
		dst = appendWords(dst, d.Agg[k])
		for x := range ts {
			dst = append(dst, uint32(ts[x]))
			dst = appendWords(dst, fv[x])
		}
	}
	return dst
}

// appendWords appends the bits of v as two 32-bit words, low half first.
func appendWords(dst []uint32, v float64) []uint32 {
	bits := math.Float64bits(v)
	return append(dst, uint32(bits), uint32(bits>>32))
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
