package epf

import (
	"math"
	"time"
)

// initBound builds the bound sweep's fan-out body, a Run over video indices.
// Runs once in newSolver. The frozen duals, the gradient request and the
// certify tier's adjustment flow through solver fields (s.lbQ, s.lbWantGrad,
// s.lbAdjust); per-block bounds land in
// s.lbBuf, index-addressed, and the caller reduces them in video order, so the
// schedule never changes a bit. A block in s.lbKeep already holds its carried
// term (carriedTerms) and is skipped. Cancellation is polled at every video
// index that is a multiple of 64, wherever the claimed ranges fall.
func (s *solver) initBound() {
	s.lbFn = func(w, lo, hi int) {
		ws := &s.scratch[w]
		if ws.used == nil {
			ws.used = make([]bool, s.n)
		}
		q := s.lbQ
		for vi := lo; vi < hi; vi++ {
			if vi%64 == 0 && s.ctx.Err() != nil {
				return
			}
			if s.lbKeep != nil && s.lbKeep[vi] {
				continue
			}
			s.buildBlockProblem(vi, q, &ws.prob)
			lb, _ := ws.fs.DualAscent(&ws.prob)
			if s.lbAdjust {
				lb = ws.fs.DualAdjust(&ws.prob)
			}
			s.lbBuf[vi] = lb
			if s.lbWantGrad {
				ws.fs.SolveQuickInto(&ws.prob, &ws.fsol, nil)
				toIntSolInto(&ws.fsol, &s.inst.Demands[vi], ws.used, &s.lbSols[vi])
			}
			ws.lbBlocks++
		}
	}
}

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
	err := s.pool.Run(s.ctx, numBlocks, s.lbFn)
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

// snapshotTerms records the per-block terms the last evaluation left in lbBuf
// as those of lbDuals. Every place that sets lbDuals from an evaluation calls
// it, so lbTerms always sums to the bound lbDuals certifies, and a later
// solve at the same duals can take the terms of unchanged videos from the
// exported copy (WarmBound).
func (s *solver) snapshotTerms() {
	if s.lbTerms == nil {
		s.lbTerms = make([]float64, len(s.lbBuf))
	}
	copy(s.lbTerms, s.lbBuf)
}

// certifyIncumbent is the certify tier, run where the bound step stalls with
// an ε-feasible incumbent in hand: it evaluates LR(lbDuals) with every block's
// dual-ascent bound raised by the dual adjustment (facloc.DualAdjust), except
// the blocks whose carried term stands — while lbDuals are still the warm
// seed's, an unchanged video keeps the term the seed carried, which the
// producing solve certified. When the incumbent is within 1+ε of that bound,
// the bound and its terms become the solve's and it reports true: the solve
// has converged. Otherwise the evaluation is discarded, and nothing the
// descent reads has moved.
func (s *solver) certifyIncumbent() bool {
	if s.lbSeeded {
		if s.lbKeep == nil {
			s.lbKeep = make([]bool, len(s.sol))
		}
		for vi, in := range s.lbCarriedIn {
			s.lbKeep[vi] = in != nil
			s.lbBuf[vi] = s.lbTerms[vi]
		}
	}
	s.lbAdjust = true
	lr := s.lagrangianBound(s.lbDuals)
	s.lbAdjust, s.lbKeep = false, nil
	s.stats.CertifyEvals++
	if !(lr > s.lb) || s.ub > (1+s.opts.Epsilon)*lr+1e-9 {
		return false
	}
	s.lb = lr
	s.stats.LBRaised++
	s.snapshotTerms()
	return true
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
			s.lb, s.lbSeeded = lr, false
			copy(s.lbDuals, s.qLB) // before the ascent step mutates qLB
			s.snapshotTerms()
		}
		if lr > s.lbTarget {
			s.lbTarget = lr
			s.lbStall = 0
			s.stats.LBRaised++
			s.stats.PolishRaised++
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
