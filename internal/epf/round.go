package epf

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"vodplace/internal/mip"
)

// Polish passes per seed, alternating merit and potential: the threshold
// seed has a whole rounding's worth of decisions to make one video at a time;
// the carried placement was polished by the solve that certified it and
// needs one pass of each to absorb a delta.
const (
	polishPasses = 6
	resumePasses = 2
)

// roundChunk is the dual-refresh cadence of the polish loop: link duals are
// recomputed once per chunk of this many videos.
const roundChunk = 64

// refreshRoundDuals refreshes the full dual vector and its path aggregation
// at a rounding chunk boundary.
func (s *solver) refreshRoundDuals() {
	s.computeDuals(s.q)
	s.computePathDuals(s.q)
}

// roundSolve solves video vi's block as an integer facility-location problem
// (full local search) and returns the candidate, valid until the next call.
// The caller has removed vi's rows from act. Link prices are the chunk's;
// disk is re-priced here, per video, because sequential disk pile-up is
// exactly what rounding must react to — with stale disk prices every video
// in a chunk would favor the same cheap office. Removing a video's own copy
// alone moves its office's dual by exp(α·s/b), tens of percent at every
// catalog size measured (EXPERIMENTS.md, "Why the polish is serial"), so no
// block is worth solving ahead of its turn.
func (s *solver) roundSolve(ws *workerScratch, vi int) *intSol {
	s.refreshDiskDuals(s.q)
	s.stats.RoundResolves++
	if ws.used == nil {
		ws.used = make([]bool, s.n)
	}
	s.buildBlockProblem(vi, s.q, &ws.prob)
	ws.fs.SolveWarmInto(&ws.prob, &ws.fsol, s.roundWarm(vi))
	toIntSolInto(&ws.fsol, &s.inst.Demands[vi], ws.used, &s.roundSol)
	return &s.roundSol
}

// round performs the §V-D rounding pass, leaving the solver on the integral
// placement: seed an integer point, polish it with the one loop (polishFrom),
// keep the best point visited. lp is the packed point the LP phase ended on,
// which outlives the seeds overwriting the live one. There are two
// seeds, polished under one shared incumbent (the best score either visited,
// considerIntegerIncumbent's yardstick):
//
//   - R, warm solves only: the integer placement the warm state carries —
//     the one being served — loaded as is and given resumePasses passes to
//     absorb whatever changed (resumePlacement).
//   - the threshold rounding of the LP point (open y ≥ ½, else the largest-y
//     office; each demand office served from its cheapest copy), given
//     polishPasses passes: rounding from scratch.
//
// R is accepted — the from-scratch attempt is skipped — when the incumbent's
// score over this solve's lower bound is no worse than the carried reference:
// the same ratio the last time rounding ran from scratch
// (WarmState.RoundRef). Both sides of the rule are numbers the solver already
// computes, so there is no constant in it: a resumed placement has to be as
// good, by the solver's own yardstick on its own bound, as a from-scratch
// rounding was when one was last paid for. Otherwise the threshold seed runs
// as it would have without R, whose point stays a contender in the
// incumbent; the result is never worse than the from-scratch one.
func (s *solver) round(lp *WarmLP) {
	roundStart := time.Now()
	s.roundBest, s.scratchBest = math.Inf(1), math.Inf(1)
	carried, resumed := s.resumePlacement()
	if resumed {
		s.stats.RoundResumed = 1
		s.roundRef = s.opts.Warm.RoundRef
	} else {
		s.polishFrom(s.thresholdBlock(lp), s.rng, polishPasses)
		s.roundRef = finiteOrZero(s.scratchBest / s.lb)
		if carried == 0 {
			s.stats.RoundRatio = s.roundRef
		}
	}

	if !math.IsInf(s.roundBest, 1) {
		s.restoreBest()
		s.recomputeState()
	}

	s.stats.RoundTime = time.Since(roundStart)
	s.opts.Recorder.RecordSpan(s.opts.TraceStream, "rounding", s.stats.RoundTime)
}

// finiteOrZero maps the ratios of a solve whose bound is 0 to "none".
func finiteOrZero(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// polishFrom is one rounding attempt: every block is seeded by load, or down
// the warm ladder where load declines the video (seedBlocks), the seeded point
// is scored before any visit and then polished for the given passes in the
// visiting order drawn from rng. It returns how many blocks load took.
//
// The integer phase retargets the potential first (retuneScale). The LP phase
// left B = LB and α tuned so the objective row competes with the capacity
// rows; integer granularity cannot hold the objective that close to the LP
// bound (the paper reports rounded gaps up to ~4% on small libraries), so
// with the old target the objective row would dwarf every capacity row and
// the polish would happily trade large disk violations for pennies of
// objective.
//
// A solve cancelled before the seed loads is left on the point it had. A seed
// that took no block is not an attempt (a carried placement none of whose
// videos this instance can use; the LP point always takes every block): the
// ladder's lower rungs are left for the next seed to overwrite.
func (s *solver) polishFrom(load func(vi int) bool, rng *rand.Rand, passes int) int {
	if s.ctx.Err() != nil {
		return 0
	}
	loaded, _ := s.seedBlocks(load)
	if loaded == 0 {
		return 0
	}
	s.recomputeState()
	s.retuneScale()
	s.considerIntegerIncumbent()
	s.polishInteger(rng, passes)
	return loaded
}

// thresholdBlock is the from-scratch seed's loader: block vi becomes the
// threshold rounding of its open row of the packed fractional point lp (the
// solver's own, video vi at position vi) — every office with y ≥ ½ opens,
// else the largest-y one, and each demand office is served from its cheapest
// open copy. A video of which lp holds no copy is declined and drops down the
// warm ladder.
func (s *solver) thresholdBlock(lp *WarmLP) func(vi int) bool {
	return func(vi int) bool {
		r := lp.Row[vi]
		open := appendOpenSet(nil, lp.Frac[lp.Off[r]:lp.Off[r+1]])
		if len(open) == 0 {
			return false
		}
		s.seedWarmBlock(vi, open)
		return true
	}
}

// resumePlacement is seed R: it polishes the integer placement carried by the
// warm state (per video, down the warm ladder: carried block, open-set seed,
// cold copy) and reports how many blocks it carried and whether the
// incumbent meets the carried reference.
//
// A refused R must cost its own visits and nothing else, so it works on
// borrowed state: the visiting order comes from its own stream, the local
// searches are seeded from the blocks themselves rather than warmOpen
// (roundWarm, noteRoundSol), and the from-scratch attempt overwrites every
// block and rebuilds the activities, the scale and (every chunk, from its own
// duals) the path-dual table itself. Only the incumbent keeps what R found.
func (s *solver) resumePlacement() (carried int, resumed bool) {
	w := s.opts.Warm
	if w == nil || w.Assign == nil {
		return 0, false
	}
	s.resuming = true
	carried = s.polishFrom(s.placeBlock, rand.New(rand.NewSource(^s.opts.Seed)), resumePasses)
	s.resuming = false
	s.stats.RoundCarried = carried
	if carried == 0 {
		return 0, false
	}
	s.stats.RoundRef = finiteOrZero(w.RoundRef)
	ratio := s.roundBest / s.lb
	s.stats.RoundRatio = finiteOrZero(ratio)
	return carried, ratio <= w.RoundRef
}

// polishInteger runs integer polish passes on the current integral point:
// every video is re-solved at live duals and replaced when the step
// criterion accepts; the shared incumbent tracks the best visited point.
// Rounding decisions were made one video at a time, so early videos may sit
// badly once later videos have landed (e.g. stacked on an office the duals
// later discover is overfull); this is the integer analogue of a gradient
// pass and costs about the same per pass. The visiting order of each pass
// is drawn from rng.
func (s *solver) polishInteger(rng *rand.Rand, passes int) {
	ws := &s.scratch[0]
	order := s.polishOrder[:0]
	for vi := range s.sol {
		order = append(order, vi)
	}
	s.polishOrder = order
	for pass := 0; pass < passes; pass++ {
		if s.ctx.Err() != nil {
			return
		}
		// Alternate the acceptance criterion: Lagrangian merit is
		// objective-aggressive (it will buy cost savings at priced
		// violations), the restricted potential is feasibility-conservative.
		// Alternating explores both sides of the trade; the incumbent keeps
		// whichever visited point scores best.
		useMerit := pass%2 == 0
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		changed := 0
		for lo := 0; lo < len(order); lo += roundChunk {
			if s.ctx.Err() != nil {
				return
			}
			hi := min(lo+roundChunk, len(order))
			s.refreshRoundDuals()
			// Moves may not push any row above the chunk-start violation
			// level (or ε, whichever is larger): full-replacement steps
			// have no line-search damping, and without this trust region
			// the dual refresh between chunks lets objective and violation
			// ratchet each other upward.
			dcCap, _ := s.maxCouplingViol()
			// Merit passes may trade objective against violations up to the
			// §V-D band the paper itself reports (~4-5%); potential passes
			// stay within ε of the current level. The incumbent scoring
			// arbitrates the final choice.
			floor := s.opts.Epsilon
			if useMerit {
				floor = 4 * s.opts.Epsilon
			}
			if dcCap < floor {
				dcCap = floor
			}
			for _, vi := range order[lo:hi] {
				bs := &s.sol[vi]
				s.addBlockRows(vi, bs, -1)
				oldCost := s.blockCost(vi, bs)
				ns := s.roundSolve(ws, vi)
				if s.integerStepImproves(vi, bs, ns, oldCost, useMerit, dcCap) {
					s.setIntBlock(vi, ns.open, ns.assign)
					s.noteRoundSol(vi, ns)
					changed++
				}
				s.addBlockRows(vi, bs, +1)
				s.obj += s.blockCost(vi, bs) - oldCost
			}
			s.considerIntegerIncumbent()
		}
		s.retuneScale()
		if changed == 0 && !useMerit {
			break
		}
	}
}

// roundWarm returns the facility-location warm start for video vi in the
// rounding phase: its latest block open set, maintained across the descent
// and updated as rounding commits replacements. nil (cold two-start solve)
// unless the solve is cross-period warm. While the carried placement is
// being resumed the start is the block's own open set: the local search
// repairs the copies the video holds.
func (s *solver) roundWarm(vi int) []int32 {
	if s.resuming {
		s.seedBuf = s.seedBuf[:0]
		for _, f := range s.sol[vi].Open {
			s.seedBuf = append(s.seedBuf, f.I)
		}
		return s.seedBuf
	}
	if !s.warmRound {
		return nil
	}
	return s.warmOpen[vi]
}

// noteRoundSol records a committed rounding replacement as video vi's new
// warm set, so later polish passes seed from the freshest placement. A
// resume reads its seeds off the blocks and writes nothing here, so the
// from-scratch attempt finds warmOpen as the descent left it.
func (s *solver) noteRoundSol(vi int, ns *intSol) {
	if s.resuming || !s.warmRound {
		return
	}
	s.warmOpen[vi] = append(s.warmOpen[vi][:0], ns.open...)
}

// considerIntegerIncumbent scores the current integer point — objective with
// a steep penalty for coupling violations beyond ε — and snapshots it if it
// beats the incumbent. The polish loop can wander (duals refresh between
// chunks), so the best visited point, not the last, is returned. Scores
// reached from scratch are also folded into scratchBest, the numerator of the
// reference the next solve's resume has to meet.
func (s *solver) considerIntegerIncumbent() {
	dc, _ := s.maxCouplingViol()
	over := dc - s.opts.Epsilon
	if over < 0 {
		over = 0
	}
	// The weighting mirrors the paper's own outcome: a ~4% violation is an
	// acceptable price for several percent of objective (§V-D reports
	// 4.1% gap with 4.4% violation); runaway violations stay heavily
	// penalized by the quadratic term.
	score := s.obj * (1 + 3*over + 100*over*over)
	if s.obj <= 0 {
		score = over // all-local placements compete on violation alone
	}
	if !s.resuming && score < s.scratchBest {
		s.scratchBest = score
	}
	if score < s.roundBest {
		s.roundBest = score
		s.snapshotBest()
	}
}

// integerStepImproves decides whether replacing block vi's current solution
// cur with ns improves the chosen criterion. The block's own rows are
// already removed from act by the caller.
//
// With useMerit, the criterion is the Lagrangian merit — transfer cost plus
// dual-priced resource usage, the same objective the block facility-location
// solve minimized; it keeps the objective in play but will buy cost savings
// at priced violations. Without it, the criterion is the restricted
// potential over the touched rows plus the objective row — conservative
// about any move that pushes a busy row further.
//
// Both sides' row usage goes into sparse accumulators (stepSides) and every
// sum below visits the union of touched rows in ascending index, so the two
// floats compared are the same bits on every run; nothing is allocated per
// call.
func (s *solver) integerStepImproves(vi int, cur *mip.VideoPlacement, ns *intSol, curCost float64, useMerit bool, dcCap float64) bool {
	s.stepSides(vi, cur, ns)
	ok := s.stepAccepts(curCost, s.addIntCost(0, vi, ns), useMerit, dcCap)
	for _, r := range s.stepRows {
		s.stepUse[0][r], s.stepUse[1][r] = 0, 0
	}
	s.stepRows = s.stepRows[:0]
	return ok
}

// stepSides accumulates the row usage of the current block cur and of the
// candidate ns into s.stepUse[0] and s.stepUse[1], each side listing the rows
// it touches into s.stepRows, then leaves the union there in ascending order.
func (s *solver) stepSides(vi int, cur *mip.VideoPlacement, ns *intSol) {
	s.blockRows(vi, cur, +1, s.stepUse[0], &s.stepRows)
	s.intRows(vi, ns, s.stepUse[1], &s.stepRows)
	slices.Sort(s.stepRows)
	s.stepRows = slices.Compact(s.stepRows)
}

// stepAccepts evaluates integerStepImproves' criterion over the accumulated
// rows (s.stepRows ascending, usage in s.stepUse).
func (s *solver) stepAccepts(curCost, newCost float64, useMerit bool, dcCap float64) bool {
	curUse, newUse := s.stepUse[0], s.stepUse[1]
	// Trust region: reject replacements that push any row the candidate uses
	// past dcCap.
	for _, r := range s.stepRows {
		if newUse[r] != 0 && (s.act[r]+newUse[r])/s.b[r]-1 > dcCap+1e-12 {
			return false
		}
	}
	if useMerit {
		// Lagrangian merit under the live duals:
		// cost + Σ_r q_r·(block rows)_r. A row only one side touched adds
		// q_r·0 to the other's sum, which leaves it bit for bit unchanged
		// (duals are finite, clampDual).
		mCur, mNew := curCost, newCost
		for _, r := range s.stepRows {
			mCur += s.q[r] * curUse[r]
			mNew += s.q[r] * newUse[r]
		}
		return mNew < mCur*(1-1e-12)
	}
	// Restricted potential over the union of touched rows + objective row.
	var pCur, pNew float64
	for _, r := range s.stepRows {
		pCur += expClamp(s.alpha * ((s.act[r]+curUse[r])/s.b[r] - 1))
		pNew += expClamp(s.alpha * ((s.act[r]+newUse[r])/s.b[r] - 1))
	}
	pCur += expClamp(s.alpha * ((s.obj-curCost+curCost)/s.bObj - 1))
	pNew += expClamp(s.alpha * ((s.obj-curCost+newCost)/s.bObj - 1))
	return pNew < pCur*(1-1e-12)
}

// retuneScale re-derives the integer-phase potential from the current
// point: the objective row targets a hair above the current objective (so
// the dual prices q_r = exp(α·(r_r − r_0)) ≈ exp(α·r_r) price feasibility,
// while the raw transfer costs in the block objective keep pulling the
// objective down), and δ follows the actual coupling violation in both
// directions — unlike the LP phase, where δ only shrinks.
func (s *solver) retuneScale() {
	s.bObj = 1.001 * math.Max(s.obj, s.lb)
	if s.bObj < 1e-9 {
		s.bObj = 1e-9
	}
	dc, _ := s.maxCouplingViol()
	d := math.Max(dc, s.opts.Epsilon/2)
	s.delta = d
	s.alpha = s.gammaLnM1 / d
}
