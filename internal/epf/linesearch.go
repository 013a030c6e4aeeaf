package epf

import (
	"math"

	"vodplace/internal/mip"
)

// addDelta accumulates a sparse row delta into s.acc/s.touched.
func (s *solver) addDelta(r int, v float64) {
	if s.acc[r] == 0 && v != 0 {
		s.touched = append(s.touched, int32(r))
	}
	s.acc[r] += v
}

// applyBlock replaces block vi by a convex combination of its current
// solution and the integer solution ns, with the mixing weight chosen by an
// exact line search on the potential. Activities and objective are updated
// incrementally.
func (s *solver) applyBlock(vi int, ns *intSol) {
	d := &s.inst.Demands[vi]
	old := &s.sol[vi]
	n := s.n

	// Deltas: new block rows minus old block rows, into s.acc/s.touched.
	s.touched = s.touched[:0]
	// Old contribution, negated.
	for _, f := range old.Open {
		s.addDelta(int(f.I), -d.SizeGB*f.V)
	}
	for k, fr := range old.Assign {
		j := int(d.Js[k])
		ts, fv := d.ConcNZ(k)
		for _, f := range fr {
			if int(f.I) == j || f.V == 0 {
				continue
			}
			path := s.inst.G.Path(int(f.I), j)
			for x, t := range ts {
				flow := d.RateMbps * fv[x] * f.V
				base := s.n + int(t)*s.L
				for _, l := range path {
					s.addDelta(base+int(l), -flow)
				}
			}
		}
	}
	// New contribution.
	for _, i := range ns.open {
		s.addDelta(int(i), d.SizeGB)
	}
	var dObj float64
	dObj -= s.blockCost(vi, old)
	for k, i := range ns.assign {
		j := int(d.Js[k])
		dObj += d.SizeGB * d.Agg[k] * s.costT[j*n+int(i)]
		if int(i) == j {
			continue
		}
		path := s.inst.G.Path(int(i), j)
		ts, fv := d.ConcNZ(k)
		for x, t := range ts {
			flow := d.RateMbps * fv[x]
			base := s.n + int(t)*s.L
			for _, l := range path {
				s.addDelta(base+int(l), flow)
			}
		}
	}
	if s.inst.UpdateWeight != 0 {
		for _, i := range ns.open {
			dObj += s.inst.PlacementCost(vi, int(i))
		}
	}

	tau := s.lineSearch(dObj)
	if tau > 0 {
		// Remove the old block's rows and cost, replace the block, add the
		// new (mixed and y-tightened) contribution back.
		s.addBlockRows(vi, old, -1)
		oldCost := s.blockCost(vi, old)
		s.mixBlock(vi, ns, tau)
		s.addBlockRows(vi, &s.sol[vi], +1)
		s.obj += s.blockCost(vi, &s.sol[vi]) - oldCost
	}
	// Clear scratch.
	for _, r := range s.touched {
		s.acc[r] = 0
	}
	s.touched = s.touched[:0]
}

// lineSearch minimizes Φ(z + τ·Δ) over τ ∈ [0, 1] given the sparse row
// deltas in s.acc/s.touched and the objective delta. Φ is convex in τ.
//
// The touched rows are first gathered into contiguous scratch arrays with
// the per-row delta/b coefficient divided out once, so each derivative
// evaluation is a single fused multiply-exp sweep, followed by a fixed
// 30-step bisection.
//
// Bisection is deliberate: Φ' routinely has wide numerically-flat plateaus
// — the clamped exponentials underflow when every touched row is far from
// its smoothed capacity — and inside a plateau any τ is a "root" to float
// precision. Bisection's sign test walks to the plateau's left edge and
// takes the conservative step, where a derivative-based iteration parks
// wherever its last step landed, which compounds over thousands of steps
// into a 5–18% objective regression on hard corpus seeds.
func (s *solver) lineSearch(dObj float64) float64 {
	s.stats.LineSearches++
	m := 0
	for _, r := range s.touched {
		delta := s.acc[r]
		if delta == 0 {
			continue
		}
		s.lsDelta[m] = delta
		s.lsAct[m] = s.act[r]
		s.lsB[m] = s.b[r]
		s.lsDB[m] = delta / s.b[r]
		m++
	}
	deriv := func(tau float64) float64 {
		var dsum float64
		for x := 0; x < m; x++ {
			rr := (s.lsAct[x]+tau*s.lsDelta[x])/s.lsB[x] - 1
			dsum += s.lsDB[x] * expClamp(s.alpha*rr)
		}
		if dObj != 0 {
			rr0 := (s.obj+tau*dObj)/s.bObj - 1
			dsum += dObj / s.bObj * expClamp(s.alpha*rr0)
		}
		return dsum
	}
	if deriv(0) >= 0 {
		return 0
	}
	if deriv(1) <= 0 {
		return 1
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 30; iter++ {
		mid := (lo + hi) / 2
		if deriv(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// mixBlock sets s.sol[vi] ← (1−τ)·old + τ·ns, then tightens y to the
// pointwise maximum of the assignments (feasible and never worse for the
// potential) and prunes negligible entries.
func (s *solver) mixBlock(vi int, ns *intSol, tau float64) {
	d := &s.inst.Demands[vi]
	old := &s.sol[vi]
	const prune = 1e-12

	if tau >= 1 {
		s.setIntBlock(vi, ns.open, ns.assign) // full replacement
		return
	}

	// Mix assignments per demand point; track per-office max for y.
	y := s.yBuf
	for i := range y {
		y[i] = 0
	}
	for k := range old.Assign {
		s.mergeFracs(old.Assign[k], ns.assign[k], tau, prune)
		// Copy the staged merge back through the row's own backing array;
		// append only allocates while a row's capacity is still growing.
		merged := append(old.Assign[k][:0], s.mergeBuf...)
		old.Assign[k] = merged
		// Renormalize to sum exactly 1 (pruning can nudge it off).
		var sum float64
		for _, f := range merged {
			sum += f.V
		}
		if sum > 0 && math.Abs(sum-1) > 1e-15 {
			inv := 1 / sum
			for idx := range merged {
				merged[idx].V *= inv
			}
		}
		for _, f := range merged {
			if f.V > y[f.I] {
				y[f.I] = f.V
			}
		}
	}
	if len(d.Js) > 0 {
		old.Open = old.Open[:0]
		for i := 0; i < s.n; i++ {
			if y[i] > prune {
				old.Open = append(old.Open, mip.Frac{I: int32(i), V: y[i]})
			}
		}
		return
	}
	// Zero-demand video: mix the open vectors directly (Σy stays 1).
	for i := range y {
		y[i] = 0
	}
	for _, f := range old.Open {
		y[f.I] += (1 - tau) * f.V
	}
	for _, i := range ns.open {
		y[i] += tau
	}
	old.Open = old.Open[:0]
	for i := 0; i < s.n; i++ {
		if y[i] > prune {
			old.Open = append(old.Open, mip.Frac{I: int32(i), V: y[i]})
		}
	}
}

// mergeFracs stages (1−τ)·a + τ·unit(i_b) into s.mergeBuf; a is sorted by
// office, the staged result is sorted, entries below prune are dropped. The
// caller copies the buffer back through the destination row's backing, so
// steady-state merges allocate nothing once row capacities stabilize.
func (s *solver) mergeFracs(a []mip.Frac, ib int32, tau, prune float64) {
	out := s.mergeBuf[:0]
	inserted := false
	for _, f := range a {
		v := (1 - tau) * f.V
		if f.I == ib {
			v += tau
			inserted = true
		} else if !inserted && f.I > ib {
			if tau > prune {
				out = append(out, mip.Frac{I: ib, V: tau})
			}
			inserted = true
		}
		if v > prune {
			out = append(out, mip.Frac{I: f.I, V: v})
		}
	}
	if !inserted && tau > prune {
		out = append(out, mip.Frac{I: ib, V: tau})
	}
	s.mergeBuf = out
}
