package epf

import (
	"math"

	"vodplace/internal/facloc"
	"vodplace/internal/mip"
)

// Incremental-pricing tuning. A link row participates in a delta update
// only when its dual moved by more than pdRelTol relatively; unchanged rows
// keep their (within-tolerance) stale contribution. pdRebuildEvery bounds
// the accumulated drift with a periodic exact rebuild, and a refresh where
// more than a quarter of the link rows moved falls back to a full rebuild —
// at that density the scattered delta writes cost more than the rebuild.
const (
	pdRelTol       = 1e-9
	pdRebuildEvery = 16
)

// addBlockRows adds (sign=+1) or removes (sign=-1) block vi's contribution
// to the coupling-row activities.
func (s *solver) addBlockRows(vi int, bs *mip.VideoPlacement, sign float64) {
	s.addBlockRowsTo(s.act, vi, bs, sign)
}

// addBlockRowsTo adds (sign=+1) or removes (sign=-1) block vi's contribution
// to the coupling-row activities in act. Only the nonzero time slices of each
// demand (the instance's sparse concurrency lists) are visited, and link
// rows are addressed through the CSR path table. act is either the live
// activity vector or one leaf's partial (parallel reductions): the per-entry
// accumulation order is identical either way.
func (s *solver) addBlockRowsTo(act []float64, vi int, bs *mip.VideoPlacement, sign float64) {
	d := &s.inst.Demands[vi]
	for _, f := range bs.Open {
		act[int(f.I)] += sign * d.SizeGB * f.V
	}
	if s.T == 0 {
		return
	}
	for k, fr := range bs.Assign {
		j := int(d.Js[k])
		ts, fv := d.ConcNZ(k)
		if len(ts) == 0 {
			continue
		}
		for _, f := range fr {
			if int(f.I) == j || f.V == 0 {
				continue
			}
			path := s.inst.G.Path(int(f.I), j)
			for x, t := range ts {
				flow := sign * d.RateMbps * fv[x] * f.V
				base := s.n + int(t)*s.L
				for _, l := range path {
					act[base+int(l)] += flow
				}
			}
		}
	}
}

// blockCost returns block vi's objective contribution.
func (s *solver) blockCost(vi int, bs *mip.VideoPlacement) float64 {
	d := &s.inst.Demands[vi]
	n := s.n
	var c float64
	for k, fr := range bs.Assign {
		col := s.costT[int(d.Js[k])*n : (int(d.Js[k])+1)*n]
		coef := d.SizeGB * d.Agg[k]
		for _, f := range fr {
			c += coef * col[f.I] * f.V
		}
	}
	if s.inst.UpdateWeight != 0 {
		for _, f := range bs.Open {
			c += s.inst.PlacementCost(vi, int(f.I)) * f.V
		}
	}
	return c
}

// computeDuals fills s.q with the normalized dual weights
// q_r = (B/b_r)·exp(α(r_r − r_0)) used as block prices: the block objective
// is c^k·z + Σ_r q_r·(A^k z)_r, a positive rescaling of the potential
// gradient direction c(π^δ(z)).
func (s *solver) computeDuals(q []float64) {
	s.stats.DualRefreshes++
	r0 := s.obj/s.bObj - 1
	for r := 0; r < s.rows; r++ {
		rr := s.act[r]/s.b[r] - 1
		e := s.alpha * (rr - r0)
		if e > dualExpCap {
			// A row this much hotter than the objective row is effectively
			// infinitely priced; cap to keep block costs finite. Any finite
			// non-negative dual vector still yields a valid Lagrangian bound.
			e = dualExpCap
		}
		q[r] = clampDual(s.bObj / s.b[r] * math.Exp(e))
	}
}

// maxDual caps dual prices. On infeasible FEAS(B) instances the Lagrangian
// bound legitimately diverges (that divergence is the infeasibility
// certificate) and the B ← LB feedback would push prices to +Inf and then
// NaN within a few passes; clamping keeps the arithmetic finite, and a
// clamped lower bound is still a valid lower bound.
const maxDual = 1e120

func clampDual(v float64) float64 {
	if math.IsNaN(v) || v > maxDual {
		return maxDual
	}
	return v
}

// refreshDiskDuals recomputes only the disk rows of q from the live
// activities (used by the rounding pass between videos; link rows keep the
// values of the chunk's refresh).
func (s *solver) refreshDiskDuals(q []float64) {
	r0 := s.obj/s.bObj - 1
	for i := 0; i < s.n; i++ {
		r := s.rowDisk(i)
		rr := s.act[r]/s.b[r] - 1
		e := s.alpha * (rr - r0)
		if e > dualExpCap {
			e = dualExpCap
		}
		q[r] = clampDual(s.bObj / s.b[r] * math.Exp(e))
	}
}

// computePathDuals brings pathDualT in sync with q:
// pathDualT[(t*n+j)*n+i] = Σ_{l ∈ P_ij} q[link(l,t)].
//
// Only the link rows whose dual moved beyond pdRelTol push their delta into
// the affected (i,j) pairs via the topology's reverse incidence lists; a
// periodic full rebuild (syncPathDuals), byte-identical to summing along
// each path, bounds the drift.
func (s *solver) computePathDuals(q []float64) {
	if s.T == 0 {
		return
	}
	if !s.pdInit || s.pdSince >= pdRebuildEvery {
		s.syncPathDuals(q)
		return
	}
	// First sweep: count moved link rows; a dense refresh rebuilds instead.
	moved := 0
	for t := 0; t < s.T; t++ {
		base := s.n + t*s.L
		for l := 0; l < s.L; l++ {
			r := base + l
			if dualMoved(q[r], s.qPrev[r]) {
				moved++
			}
		}
	}
	if moved*4 > s.L*s.T {
		s.syncPathDuals(q)
		return
	}
	n := s.n
	for t := 0; t < s.T; t++ {
		base := s.n + t*s.L
		tn := t * n
		for l := 0; l < s.L; l++ {
			r := base + l
			if !dualMoved(q[r], s.qPrev[r]) {
				continue
			}
			dq := q[r] - s.qPrev[r]
			for _, p := range s.inst.G.LinkPairs(l) {
				i, j := int(p)/n, int(p)%n
				s.pathDualT[(tn+j)*n+i] += dq
			}
			s.qPrev[r] = q[r]
		}
	}
	s.pdSince++
}

// dualMoved reports whether a link dual changed beyond the relative
// incremental-pricing tolerance.
func dualMoved(now, prev float64) bool {
	d := now - prev
	if d < 0 {
		d = -d
	}
	ref := prev
	if ref < 0 {
		ref = -ref
	}
	return d > pdRelTol*ref
}

// syncPathDuals performs a full rebuild and records q as the new baseline.
func (s *solver) syncPathDuals(q []float64) {
	s.rebuildPathDuals(q)
	copy(s.qPrev, q)
	s.pdInit = true
	s.pdSince = 0
}

// rebuildPathDuals recomputes every pathDualT entry from scratch, summing
// q along each CSR path in link order.
//
// Every entry is an independent sum over its own path's links, so the table
// partitions freely: the rebuild fans (t,i) rows out to the pool when the
// table is large enough to amortize the dispatch, and the result is
// bitwise-identical to the sequential sweep at any worker count.
func (s *solver) rebuildPathDuals(q []float64) {
	if s.pdParallel {
		s.pdRebuildQ = q
		if err := s.pool.Run(s.ctx, s.T*s.n, s.pdRowFn); err == nil {
			s.pdRebuildQ = nil
			return
		}
		// Pre-cancelled dispatch: fall through to the sequential rebuild so
		// the table is never left stale for the caller's final report.
		s.pdRebuildQ = nil
	}
	s.rebuildPathDualRows(q, 0, s.T*s.n)
}

// rebuildPathDualRows rebuilds the (t,i) rows in [lo, hi) of the flattened
// t·n row space. Both the sequential rebuild and each parallel range call
// this body, so the per-entry arithmetic is shared by construction.
func (s *solver) rebuildPathDualRows(q []float64, lo, hi int) {
	n := s.n
	links, off := s.inst.G.PathCSR()
	for row := lo; row < hi; row++ {
		t, i := row/n, row%n
		base := s.n + t*s.L
		tn := t * n
		in := i * n
		for j := 0; j < n; j++ {
			if i == j {
				s.pathDualT[(tn+j)*n+i] = 0
				continue
			}
			var sum float64
			for _, l := range links[off[in+j]:off[in+j+1]] {
				sum += q[base+int(l)]
			}
			s.pathDualT[(tn+j)*n+i] = sum
		}
	}
}

// buildBlockProblem fills prob with video vi's facility-location block under
// the frozen duals (q via pathDualT). Open cost: disk dual price plus any
// placement-transfer cost; assignment cost: transfer objective plus link
// dual prices along the path. All scans are over flat arrays: the j-th cost
// column, the demand's nonzero slices, and the (t,j) path-dual column.
func (s *solver) buildBlockProblem(vi int, q []float64, prob *facloc.Problem) {
	d := &s.inst.Demands[vi]
	n := s.n
	if cap(prob.Open) < n {
		prob.Open = make([]float64, n)
	}
	prob.Open = prob.Open[:n]
	for i := 0; i < n; i++ {
		prob.Open[i] = q[i]*d.SizeGB + s.inst.PlacementCost(vi, i)
	}
	K := len(d.Js)
	prob.Reshape(K)
	for k := 0; k < K; k++ {
		j := int(d.Js[k])
		coef := d.SizeGB * d.Agg[k]
		row := prob.Assign[k*n : k*n+n]
		col := s.costT[j*n : j*n+n]
		for i := 0; i < n; i++ {
			row[i] = coef * col[i]
		}
		ts, fv := d.ConcNZ(k)
		for x, t := range ts {
			w := d.RateMbps * fv[x]
			pd := s.pathDualT[(int(t)*n+j)*n : (int(t)*n+j)*n+n]
			for i := 0; i < n; i++ {
				row[i] += w * pd[i]
			}
		}
	}
}
