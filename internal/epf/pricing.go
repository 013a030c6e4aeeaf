package epf

import (
	"math"

	"vodplace/internal/facloc"
	"vodplace/internal/mip"
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

// computePathDuals rebuilds pathDualT from q:
// pathDualT[(t*n+j)*n+i] = Σ_{l ∈ P_ij} q[link(l,t)], summed along the CSR
// path in link order, 0 on the diagonal. The table is a pure function of q.
func (s *solver) computePathDuals(q []float64) {
	if s.T == 0 {
		return
	}
	n := s.n
	links, off := s.inst.G.PathCSR()
	for t := 0; t < s.T; t++ {
		base := n + t*s.L
		for j := 0; j < n; j++ {
			pd := s.pathDualT[(t*n+j)*n : (t*n+j)*n+n]
			for i := range pd {
				var sum float64
				for _, l := range links[off[i*n+j]:off[i*n+j+1]] {
					sum += q[base+int(l)]
				}
				pd[i] = sum
			}
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
