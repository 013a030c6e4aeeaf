package epf

import (
	"math"
	"time"
)

// lagrangianBound computes LR(λ) = Σ_k LB_k(λ) − Σ_r λ_r·b_r with the given
// normalized duals, using per-block dual-ascent lower bounds so the result
// is a valid bound on OPT.
func (s *solver) lagrangianBound(q []float64) float64 {
	lr, _ := s.lagrangianEval(q, false)
	return lr
}

// lagrangianEval computes LR(q) and, when wantGrad is set, the activities
// A·z_q of an (approximate) block-minimizing point z_q — the subgradient of
// LR at q is A·z_q − b. The bound uses per-block dual ascent (valid lower
// bounds); the subgradient uses the facility-location primal heuristic.
//
// Workers write per-block results into s.lbBuf/s.lbSols and every reduction
// runs in block order on this goroutine, so the bound and subgradient are
// bit-identical at any worker count. On cancellation it returns (−Inf, nil):
// callers only ever take the max of the bound, so a cancelled evaluation
// can never corrupt the solve. The returned gradient is solver-owned
// scratch, valid until the next call.
func (s *solver) lagrangianEval(q []float64, wantGrad bool) (float64, []float64) {
	start := time.Now()
	defer func() { s.stats.LBTime += time.Since(start) }()
	s.computePathDuals(q)
	s.stats.LBEvals++
	numBlocks := len(s.sol)
	if wantGrad && s.lbSols == nil {
		s.lbSols = make([]intSol, numBlocks)
	}
	s.lbQ, s.lbWantGrad = q, wantGrad
	err := s.pool.RunTasks(s.ctx, s.lbTasks, s.lbTaskFn)
	if err != nil || s.ctx.Err() != nil {
		return math.Inf(-1), nil
	}
	lr := s.reduceLBSum()
	for r := 0; r < s.rows; r++ {
		lr -= q[r] * s.b[r]
	}
	// A diverging bound certifies infeasibility of FEAS(B); clamp so the
	// B ← LB feedback stays finite (a clamped bound remains valid).
	if math.IsNaN(lr) {
		lr = math.Inf(-1)
	} else if lr > 1e100 {
		lr = 1e100
	}
	if !wantGrad {
		return lr, nil
	}
	if s.gradBuf == nil {
		s.gradBuf = make([]float64, s.rows)
	}
	grad := s.gradBuf
	s.reduceGrad(grad)
	return lr, grad
}

// accumulateIntRows adds the coupling-row activities of the integer block
// solution ns for video vi into act.
func (s *solver) accumulateIntRows(vi int, ns *intSol, act []float64) {
	d := &s.inst.Demands[vi]
	for _, i := range ns.open {
		act[int(i)] += d.SizeGB
	}
	if s.T == 0 {
		return
	}
	for k, i := range ns.assign {
		j := int(d.Js[k])
		if int(i) == j {
			continue
		}
		path := s.inst.G.Path(int(i), j)
		ts, fv := d.ConcNZ(k)
		for x, t := range ts {
			flow := d.RateMbps * fv[x]
			base := s.n + int(t)*s.L
			for _, l := range path {
				act[base+int(l)] += flow
			}
		}
	}
}

// polishLB runs a few exponentiated-gradient ascent steps on the Lagrangian
// dual vector: rows that the current dual's block minimizer overloads get
// their price multiplied up, slack rows decay. This closes the last
// percents of the lower bound when the potential-derived duals stall — the
// Appendix notes the production implementation replaces the textbook
// update mechanisms for exactly this reason.
func (s *solver) polishLB() {
	if s.qLB == nil {
		s.qLB = make([]float64, s.rows)
		for r := range s.qLB {
			v := s.lbScale * s.q[r]
			if v < 1e-12 {
				v = 1e-12
			}
			s.qLB[r] = v
		}
	}
	const iters = 6
	for it := 0; it < iters; it++ {
		lr, grad := s.lagrangianEval(s.qLB, true)
		if grad == nil {
			break // cancelled mid-evaluation
		}
		if lr > s.lb {
			s.lb = lr
			s.lbStall = 0
			s.stats.LBRaised++
			copy(s.lbDuals, s.qLB) // before the ascent step mutates qLB
		}
		eta := 0.5 / (1 + float64(s.polishes) + float64(it))
		for r := range s.qLB {
			rel := grad[r]/s.b[r] - 1 // relative violation of the minimizer
			if rel > 3 {
				rel = 3
			}
			if rel < -3 {
				rel = -3
			}
			s.qLB[r] = clampDual(s.qLB[r] * math.Exp(eta*rel))
			if s.qLB[r] < 1e-15 {
				s.qLB[r] = 1e-15
			}
		}
	}
	s.polishes++
}
