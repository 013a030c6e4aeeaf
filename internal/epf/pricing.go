package epf

import (
	"math"
	"slices"

	"vodplace/internal/facloc"
	"vodplace/internal/mip"
)

// One walk of a block's coupling rows (DESIGN.md §7): blockRows walks a
// live block, intRows a candidate integer one, and both hand every serving
// path to linkRows. rows is nil for a dense destination (act, a leaf partial,
// the subgradient) and a touched-row list for a sparse one (the line-search
// delta, either side of the rounding step); the terms, and their order, are
// the same either way.

// addBlockRows adds (sign=+1) or removes (sign=-1) block vi's contribution
// to the coupling-row activities.
func (s *solver) addBlockRows(vi int, bs *mip.VideoPlacement, sign float64) {
	s.blockRows(vi, bs, sign, s.act, nil)
}

// blockRows adds sign (±1) times block vi's row usage onto dst: disk first,
// in open order, then the link rows demand office by demand office, serving
// office by serving office, slice by slice, in path order. Entries of zero
// weight are skipped.
func (s *solver) blockRows(vi int, bs *mip.VideoPlacement, sign float64, dst []float64, rows *[]int32) {
	d := &s.inst.Demands[vi]
	for _, f := range bs.Open {
		addRow(dst, rows, int(f.I), d.SizeGB*(sign*f.V))
	}
	if s.T == 0 {
		return
	}
	for k, fr := range bs.Assign {
		for _, f := range fr {
			if f.I != d.Js[k] && f.V != 0 {
				s.linkRows(d, k, int(f.I), sign*f.V, dst, rows)
			}
		}
	}
}

// intRows adds the integer block solution ns of video vi onto dst, in
// blockRows' order: each open office's disk row, then each demand office's
// path from its one serving office.
func (s *solver) intRows(vi int, ns *intSol, dst []float64, rows *[]int32) {
	d := &s.inst.Demands[vi]
	for _, i := range ns.open {
		addRow(dst, rows, int(i), d.SizeGB)
	}
	if s.T == 0 {
		return
	}
	for k, i := range ns.assign {
		if i != d.Js[k] {
			s.linkRows(d, k, int(i), 1, dst, rows)
		}
	}
}

// linkRows adds demand office k of video d, served from office i with weight
// w, onto the link rows of the path i→j in each of k's nonzero slices: the
// flow r·f_j(t)·w on every link of the path. Callers skip local serves
// (i = j), which use no link. The dense case is a separate loop so the hot
// add carries no listing test.
func (s *solver) linkRows(d *mip.VideoDemand, k, i int, w float64, dst []float64, rows *[]int32) {
	ts, fv := d.ConcNZ(k)
	if len(ts) == 0 {
		return
	}
	path := s.inst.G.Path(i, int(d.Js[k]))
	for x, t := range ts {
		flow := d.RateMbps * fv[x] * w
		base := s.n + int(t)*s.L
		if rows == nil {
			for _, l := range path {
				dst[base+int(l)] += flow
			}
			continue
		}
		for _, l := range path {
			addRow(dst, rows, base+int(l), flow)
		}
	}
}

// addRow adds v onto dst[r] and, given a list, appends r when the add makes
// an exact-zero entry nonzero. A walk of one sign lists each row it changes
// once; the line-search delta (old block out, new in) lists a row again when
// its running sum returns to exactly 0 before a later add (see lineSearch).
func addRow(dst []float64, rows *[]int32, r int, v float64) {
	if rows != nil && dst[r] == 0 && v != 0 {
		*rows = append(*rows, int32(r))
	}
	dst[r] += v
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

// addIntCost adds the objective contribution of the integer block solution
// ns of video vi onto c, term by term in blockCost's order.
func (s *solver) addIntCost(c float64, vi int, ns *intSol) float64 {
	d := &s.inst.Demands[vi]
	for k, i := range ns.assign {
		c += d.SizeGB * d.Agg[k] * s.costT[int(d.Js[k])*s.n+int(i)]
	}
	if s.inst.UpdateWeight != 0 {
		for _, i := range ns.open {
			c += s.inst.PlacementCost(vi, int(i))
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
		q[r] = s.dual(r, r0)
	}
}

// refreshDiskDuals recomputes only the disk rows of q from the live
// activities (used by the rounding pass between videos; link rows keep the
// values of the chunk's refresh).
func (s *solver) refreshDiskDuals(q []float64) {
	r0 := s.obj/s.bObj - 1
	for i := 0; i < s.n; i++ {
		q[s.rowDisk(i)] = s.dual(s.rowDisk(i), r0)
	}
}

// dual is row r's price at the live activities, given the objective row's
// relative level r0 = obj/B − 1.
func (s *solver) dual(r int, r0 float64) float64 {
	e := s.alpha * (s.act[r]/s.b[r] - 1 - r0)
	if e > dualExpCap {
		// A row this much hotter than the objective row is effectively
		// infinitely priced; cap to keep block costs finite. Any finite
		// non-negative dual vector still yields a valid Lagrangian bound.
		e = dualExpCap
	}
	return clampDual(s.bObj / s.b[r] * math.Exp(e))
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
// dual prices along the path; each row's order is the instance's hop order
// from its demand office (mip.Instance.HopOrder). All scans are over flat
// arrays: the j-th cost column, the demand's nonzero slices, and the (t,j)
// path-dual column.
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
	prob.Order = slices.Grow(prob.Order[:0], K*n)[:K*n]
	for k := 0; k < K; k++ {
		j := int(d.Js[k])
		copy(prob.Order[k*n:k*n+n], s.inst.HopOrder(j))
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
