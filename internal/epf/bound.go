package epf

import (
	"math"
	"time"
)

// initBound builds the bound sweep's fan-out body, a Run over video indices.
// Runs once in newSolver. The frozen duals, the gradient request and the
// certify tier's adjustment flow through solver fields (s.lbQ, s.lbWantGrad,
// s.lbAdjust); per-block bounds land in s.lbBuf, index-addressed, and the
// caller reduces them in video order, so the schedule never changes a bit. A
// block in s.bound.keep already holds its carried term (carriedTerms) and is
// skipped. Cancellation is polled at every video index that is a multiple of
// 64, wherever the claimed ranges fall.
func (s *solver) initBound() {
	s.lbFn = func(w, lo, hi int) {
		ws := &s.scratch[w]
		q := s.lbQ
		for vi := lo; vi < hi; vi++ {
			if vi%64 == 0 && s.ctx.Err() != nil {
				return
			}
			if s.bound.keep != nil && s.bound.keep[vi] {
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

// lagrangianEval computes LR(q) = Σ_k LB_k(q) − Σ_r q_r·b_r and, when
// wantGrad is set, the activities A·z_q of an (approximate) block-minimizing
// point z_q — the subgradient of LR at q is A·z_q − b. The bound uses
// per-block dual ascent (valid lower bounds, unlike a primal heuristic's
// value); the subgradient uses the facility-location primal heuristic.
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

// bounder is Algorithm 1's bound step — LR(λ̄) at the pass's duals (steps
// 14-15), then the FEAS(B) target retargeted — with all its state across
// passes; lb, ub and bObj, read by pricing and rounding, stay on the solver.
type bounder struct {
	s *solver

	scale   float64   // adaptive multiplier for the Lagrangian dual vector
	premium float64   // FEAS(B) target premium over the descent's bound
	floor   float64   // absolute floor for the objective target
	qTmp    []float64 // scaled-dual scratch for lower-bound evaluations
	qPolish []float64 // persistent polished dual vector (nil until first polish)
	duals   []float64 // dual vector that achieved the best lower bound so far
	terms   []float64 // per-block terms of LR(duals); nil while duals is the initial zero vector
	// target is the descent's own bound, which the objective-row target
	// follows: lb until the certify tier raises lb alone, or, on a re-solve
	// carrying adjusted terms, the seed bound over their lift (WarmBound.Lift).
	target float64
	stall  int     // bound steps since target last rose
	start  float64 // the target the descent started from (initDescent)
	warm   bool    // start is the carried duals' bound (seedWarmDescent)
	seeded bool    // duals and terms are still the warm seed's
	// Completed polish rounds (they decay the ascent step); whether one raised
	// target, and whether a later one then raised nothing, the solve's last.
	polishes                int
	polishPaid, polishEnded bool
	// The blocks whose term the warm seed carried (carriedTerms), which the
	// bound fan-out skips, and their packed inputs, which the export shares.
	keep      []bool
	carriedIn [][]uint32
	// The rescue's window of δ_c, dcLen recorded since it was last cleared.
	dcWin [8]float64
	dcLen int
}

// step runs the bound step of pass, whose point ends at violation dc, and
// returns what it ran, per kind, and whether the certify tier certified the
// incumbent, which ends the solve.
//
// FEAS(B) rescue: with no ε-feasible point late in the pass budget and the
// violation plateaued, the guess B is likely below the LP optimum; raising
// it (only late: it costs objective pressure) is the framework's move. The
// first incumbent resets it. Then LR at scalings of the pass's duals: LR(λ)
// is not scale-invariant although the block directions are, so a three-point
// search (an update-mechanism tweak the paper's Appendix alludes to) runs
// early and every third pass after, one evaluation at the carried scale in
// between — and only that one while carriedHolds. After three steps that did
// not raise target the step stalls: with an incumbent the certify tier runs
// first, then a polish round may ascend the duals directly. While target is
// the one the descent started from, a round that fails to raise it is the
// last until something does, and none runs while carriedHolds; after a round
// raised the bound, the first round that raises nothing is the solve's last.
func (b *bounder) step(pass int, dc float64) (ran BoundLedger, certified bool) {
	s := b.s
	o := &s.opts
	b.dcWin[b.dcLen%len(b.dcWin)] = dc
	b.dcLen++
	switch {
	case s.haveUB && b.premium > 1:
		b.premium = 1
		b.retarget()
	case !s.haveUB && pass > o.MaxPasses*3/4 && dc > 1.8*o.Epsilon && b.dcLen >= len(b.dcWin):
		ref := b.dcWin[b.dcLen%len(b.dcWin)] // δ_c len(dcWin)−1 passes back
		if ref-dc < 0.05*(dc-o.Epsilon) {
			b.premium = math.Min(1.5, b.premium*1.03)
			b.retarget()
			b.dcLen = 0 // give the new target time to act
		}
	}

	s.computeDuals(s.q)
	holds := b.carriedHolds()
	kind, mults := BoundSearch, []float64{0.5, 1, 2} // stack-allocated: mults does not escape
	if (pass > 8 && pass%3 != 0) || holds {
		kind, mults = BoundEval, []float64{1}
	}
	ran[kind] = BoundSteps{Steps: 1, Evals: int64(len(mults))}
	bestScale, bestLR := b.scale, math.Inf(-1)
	raise := b.target + 1e-12*math.Abs(b.target)
	certifies := s.lb + 1e-12*math.Abs(s.lb)
	for _, mult := range mults {
		scale := b.scale * mult
		for r := range b.qTmp {
			b.qTmp[r] = scale * s.q[r]
		}
		if lr, _ := s.lagrangianEval(b.qTmp, false); lr > bestLR {
			bestLR, bestScale = lr, scale
			// lbBuf holds this multiplier's terms only until the next one is
			// evaluated: keep the winner's if it will raise the certified bound.
			if lr > certifies {
				b.snapshotTerms()
			}
		}
	}
	b.scale = bestScale
	if bestLR > certifies {
		s.lb, b.seeded = bestLR, false
		for r := range b.duals {
			b.duals[r] = bestScale * s.q[r]
		}
	}
	if bestLR > raise {
		b.target, b.stall = bestLR, 0
		ran[kind].Raised = 1
	} else {
		b.stall++
	}
	if b.stall >= 3 {
		if s.haveUB {
			ran[BoundCertify] = BoundSteps{Steps: 1, Evals: 1}
			if b.certify() {
				ran[BoundCertify].Raised = 1
				b.retarget()
				return ran, true
			}
		}
		if !b.polishEnded && (b.target > b.start || (b.polishes == 0 && !holds)) {
			r := b.polish()
			ran[BoundPolish] = r
			b.polishEnded = b.polishPaid && r.Raised == 0
			b.polishPaid = b.polishPaid || r.Raised > 0
		}
		b.stall = 0
	}
	b.retarget()
	return ran, false
}

// retarget recomputes the objective-row target from the descent's bound and
// the current premium.
func (b *bounder) retarget() {
	b.s.bObj = math.Max(b.target*b.premium, b.floor)
}

// carriedHolds reports that a warm re-solve's carried bound stands and an
// ε-feasible incumbent is in hand: the primal has reached ε on the old prices,
// so neither another scale of this solve's duals nor a polish ascending from
// them, which trail those prices, is worth a block sweep yet. Cold solves,
// re-solves before their first incumbent (where the search and the probe
// raise a stale carried bound) and solves that raised their own bound keep
// the usual cadence.
func (b *bounder) carriedHolds() bool {
	return b.warm && b.target == b.start && b.s.haveUB
}

// snapshotTerms records the per-block terms the last evaluation left in lbBuf
// as those of duals. Every place that sets duals from an evaluation calls it,
// so terms always sum to the bound duals certify, which a later solve at the
// same duals can take per unchanged video (WarmBound).
func (b *bounder) snapshotTerms() {
	if b.terms == nil {
		b.terms = make([]float64, len(b.s.lbBuf))
	}
	copy(b.terms, b.s.lbBuf)
}

// certify is the certify tier: LR(duals) with every block's dual-ascent bound
// raised by the dual adjustment (facloc.DualAdjust), except where the carried
// term stands — while duals are the warm seed's, an unchanged video keeps the
// term the producing solve certified. When the incumbent is within 1+ε of
// that bound, the bound and its terms become the solve's and it reports true.
// Otherwise the evaluation is discarded and nothing the descent reads moved.
func (b *bounder) certify() bool {
	s := b.s
	if b.seeded {
		b.keep = make([]bool, len(s.sol))
		for vi, in := range b.carriedIn {
			b.keep[vi] = in != nil
			s.lbBuf[vi] = b.terms[vi]
		}
	}
	s.lbAdjust = true
	lr, _ := s.lagrangianEval(b.duals, false)
	s.lbAdjust, b.keep = false, nil
	if !(lr > s.lb) || s.ub > (1+s.opts.Epsilon)*lr+1e-9 {
		return false
	}
	s.lb = lr
	b.snapshotTerms()
	return true
}

// polish runs a round of exponentiated-gradient ascent steps on the dual
// vector: rows the current duals' block minimizer overloads get their price
// multiplied up, slack rows decay. It closes the last percents of the bound
// when the potential-derived duals stall — the Appendix notes the production
// implementation replaces the textbook update mechanisms for this reason. It
// returns the round's ledger row.
func (b *bounder) polish() (r BoundSteps) {
	s := b.s
	before := s.stats.LBTime
	defer func() { s.stats.PolishTime += s.stats.LBTime - before }()
	if b.qPolish == nil {
		b.qPolish = make([]float64, s.rows)
		for row := range b.qPolish {
			b.qPolish[row] = math.Max(b.scale*s.q[row], 1e-12)
		}
	}
	const iters = 6
	r.Steps = 1
	for it := 0; it < iters; it++ {
		r.Evals++
		lr, grad := s.lagrangianEval(b.qPolish, true)
		if grad == nil {
			break // cancelled mid-evaluation
		}
		if lr > s.lb {
			s.lb, b.seeded = lr, false
			copy(b.duals, b.qPolish) // before the ascent step mutates qPolish
			b.snapshotTerms()
		}
		if lr > b.target {
			b.target = lr
			b.stall = 0
			r.Raised++
		}
		eta := 0.5 / (1 + float64(b.polishes) + float64(it))
		for row, q := range b.qPolish {
			rel := grad[row]/s.b[row] - 1 // relative violation of the minimizer
			rel = math.Max(-3, math.Min(3, rel))
			b.qPolish[row] = math.Max(clampDual(q*math.Exp(eta*rel)), 1e-15)
		}
	}
	b.polishes++
	return r
}
