package epf

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"vodplace/internal/mip"
)

// integralTol is the tolerance below which a y value counts as integral
// (the shared stack-wide value; see the tolerance block in internal/mip).
const integralTol = mip.IntegralTol

// Polish passes per candidate, alternating merit and potential: the two
// from-scratch candidates have a whole rounding's worth of one-at-a-time
// decisions to revisit; the carried placement was polished by the solve that
// certified it and needs one pass of each to absorb a delta.
const (
	polishPasses = 6
	resumePasses = 2
)

// roundChunk is the dual-refresh cadence of the rounding and polish loops:
// link duals are recomputed once per chunk of this many videos, and the
// disk duals are frozen at the same point.
const roundChunk = 64

// roundDualTol is the relative disk-dual drift beyond which a rounding block
// is solved at live prices instead of the chunk-frozen ones. Dual prices are
// exponentials of row load, so a relative change of this size reflects a
// load shift big enough to redirect a facility choice; drift below it means
// a frozen-price solve sees effectively current prices.
const roundDualTol = 0.02

// roundDualsDrifted reports whether any disk dual moved more than
// roundDualTol (relatively, with an absolute floor for underflowed rows)
// since the chunk's dual freeze.
func (s *solver) roundDualsDrifted() bool {
	for i := 0; i < s.n; i++ {
		d := s.q[i] - s.roundQ0[i]
		if d < 0 {
			d = -d
		}
		if d > roundDualTol*s.roundQ0[i]+1e-12 {
			return true
		}
	}
	return false
}

// refreshRoundDuals refreshes the full dual vector and its path aggregation
// at a rounding chunk boundary and freezes the disk duals as the chunk's
// drift baseline.
func (s *solver) refreshRoundDuals() {
	s.computeDuals(s.q)
	s.computePathDuals(s.q)
	copy(s.roundQ0, s.q[:s.n])
}

// roundSolve solves video vi's block as an integer facility-location problem
// (full local search) and returns the candidate, valid until the next call.
// The caller has removed vi's rows from act. Link prices are the chunk's;
// disk is re-priced here, per video, because sequential disk pile-up is
// exactly what rounding must react to — with stale disk prices every video
// in a chunk would favor the same cheap office.
//
// The block is priced at the chunk-frozen disk duals unless one has drifted
// past roundDualTol since the freeze. Removing
// a video's own copy alone moves its office's dual by exp(α·s/b) — tens of
// percent at every catalog size measured (DESIGN.md, rounding) — so nearly
// every block is priced live, and none is worth solving ahead of its turn.
func (s *solver) roundSolve(ws *workerScratch, vi int) *intSol {
	s.refreshDiskDuals(s.q)
	diskQ := s.q
	if s.roundDualsDrifted() {
		s.stats.RoundResolves++
	} else {
		diskQ = s.roundQ0
	}
	if ws.used == nil {
		ws.used = make([]bool, s.n)
	}
	s.buildBlockProblem(vi, diskQ, &ws.prob)
	ws.fs.SolveWarmInto(&ws.prob, &ws.fsol, s.roundWarm(vi))
	toIntSolInto(&ws.fsol, &s.inst.Demands[vi], ws.used, &s.roundSol)
	return &s.roundSol
}

func integralBlock(bs *blockSol) bool {
	for _, f := range bs.open {
		if f.V > integralTol && f.V < 1-integralTol {
			return false
		}
	}
	return true
}

// round performs the §V-D rounding pass on the solver's current point and
// rewrites res with the integral placement.
//
// Up to three candidates are polished under one shared incumbent (the best
// score any of them visited, considerIntegerIncumbent's yardstick):
//
//   - R, warm solves only: the integer placement the warm state carries —
//     the one being served — loaded as is, scored, and given resumePasses
//     polish passes to absorb whatever changed (resumePlacement).
//   - A: forced rounding of the LP point, one video at a time against the
//     live potential, then polishPasses passes.
//   - B: threshold rounding of the LP point, polished the same way.
//
// R is accepted — A and B are skipped — when the incumbent's score over this
// solve's lower bound is no worse than the carried reference: the same ratio
// for the best of A and B the last time rounding ran from scratch
// (WarmState.RoundRef). Both sides of the rule are numbers the solver already
// computes, so there is no constant in it: a resumed placement has to be as
// good, by the solver's own yardstick on its own bound, as a from-scratch
// rounding was when one was last paid for. Otherwise the solver is put back
// exactly where the LP phase left it and A and B run as they would have
// without R, whose point stays a contender in the incumbent; the result is
// never worse than theirs.
func (s *solver) round(res *Result) {
	roundStart := time.Now()
	lpSol := res.Sol
	s.roundBest, s.scratchBest = math.Inf(1), math.Inf(1)
	if s.resumePlacement(lpSol) {
		s.stats.RoundResumed = 1
		s.roundRef = s.opts.Warm.RoundRef
	} else {
		s.roundFromScratch(lpSol)
		s.roundRef = finiteOrZero(s.scratchBest / s.lb)
		if s.stats.RoundCarried == 0 {
			s.stats.RoundRatio = s.roundRef
		}
	}

	if !math.IsInf(s.roundBest, 1) {
		s.restoreBest()
		s.recomputeState()
	}

	s.stats.RoundTime = time.Since(roundStart)
	s.opts.Recorder.RecordSpan(s.opts.TraceStream, "rounding", s.stats.RoundTime)
	rounded := s.buildResult(res.Passes, res.Converged)
	rounded.Rounded = true
	*res = *rounded
}

// finiteOrZero maps the ratios of a solve whose bound is 0 to "none".
func finiteOrZero(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// resumePlacement is candidate R: it loads the integer placement carried by
// the warm state (per video, down the warm ladder: carried block, open-set
// seed, cold copy), scores it before any visit, polishes it for resumePasses
// and reports whether the incumbent meets the carried reference.
//
// A rejected R must cost its own visits and nothing else, so it works on
// borrowed state: the visiting order comes from its own stream, the local
// searches are seeded from the blocks themselves rather than warmOpen
// (roundWarm, noteRoundSol), and the LP point, its activities and the
// incremental path-dual baseline are put back before A and B start. Only the
// incumbent keeps what R found.
func (s *solver) resumePlacement(lpSol *mip.Solution) bool {
	w := s.opts.Warm
	if w == nil || w.Assign == nil || s.ctx.Err() != nil {
		return false
	}
	act, obj := slices.Clone(s.act), s.obj
	pathDualT, qPrev, pdInit, pdSince := slices.Clone(s.pathDualT), slices.Clone(s.qPrev), s.pdInit, s.pdSince

	s.resuming = true
	s.stats.RoundCarried, _ = s.seedBlocks(s.placeBlock)
	accepted := false
	if s.stats.RoundCarried > 0 {
		s.stats.RoundRef = finiteOrZero(w.RoundRef)
		s.recomputeState()
		s.retuneScale()
		s.considerIntegerIncumbent()
		s.polishInteger(rand.New(rand.NewSource(^s.opts.Seed)), resumePasses)
		ratio := s.roundBest / s.lb
		s.stats.RoundRatio = finiteOrZero(ratio)
		accepted = ratio <= w.RoundRef
	}
	s.resuming = false
	if accepted {
		return true
	}

	for vi := range s.sol {
		bs, p := &s.sol[vi], &lpSol.Videos[vi]
		bs.open = append(bs.open[:0], p.Open...)
		for k := range bs.assign {
			bs.assign[k] = append(bs.assign[k][:0], p.Assign[k]...)
		}
	}
	copy(s.act, act)
	s.obj = obj
	copy(s.pathDualT, pathDualT)
	copy(s.qPrev, qPrev)
	s.pdInit, s.pdSince = pdInit, pdSince
	return false
}

// roundFromScratch runs candidates A and B from the LP point.
//
// Videos whose y values are already integral are left untouched. The
// remaining videos are processed in decreasing order of impact
// (s^m·(1+Σ_j a_j^m)): each is re-solved as an *integer* facility-location
// problem against the live potential (the Charikar–Guha-style local search
// in internal/facloc), then committed at full step so later videos see the
// updated congestion. Duals are refreshed every rounding chunk; the paper
// notes the whole pass costs about as much as one gradient-descent pass.
func (s *solver) roundFromScratch(lpSol *mip.Solution) {
	// Retarget the potential for the integer phase. The LP phase left
	// B = LB and α tuned so the objective row competes with the capacity
	// rows; integer granularity cannot hold the objective that close to the
	// LP bound (the paper reports rounded gaps up to ~4% on small
	// libraries), so with the old target the objective row would dwarf
	// every capacity row and the polish would happily trade large disk
	// violations for pennies of objective. Instead the integer phase keeps
	// the objective target just above the *current* objective (r_0 ≈ 0, so
	// dual prices reduce to pure feasibility pricing exp(α·r_r)) and drives
	// the scale δ from feasibility alone.
	s.retuneScale()

	var frac []int
	for vi := range s.sol {
		if !integralBlock(&s.sol[vi]) {
			frac = append(frac, vi)
		}
	}
	impact := func(vi int) float64 {
		d := &s.inst.Demands[vi]
		var a float64
		for _, v := range d.Agg {
			a += v
		}
		return d.SizeGB * (1 + a)
	}
	sort.Slice(frac, func(a, b int) bool {
		ia, ib := impact(frac[a]), impact(frac[b])
		if ia != ib {
			return ia > ib
		}
		return frac[a] < frac[b]
	})

	// Link duals (whose path aggregation is the expensive part) refresh per
	// chunk; disk duals per video (roundSolve). One video commits at a time,
	// so each sees its predecessors' congestion, on worker 0's scratch: the
	// same facloc buffers the LP fan-outs warmed up, reused between fan-outs.
	ws := s.scratch.Get(0)
	for lo := 0; lo < len(frac) && s.ctx.Err() == nil; lo += roundChunk {
		hi := min(lo+roundChunk, len(frac))
		s.refreshRoundDuals()
		for _, vi := range frac[lo:hi] {
			bs := &s.sol[vi]
			s.addBlockRows(vi, bs, -1)
			oldCost := s.blockCost(vi, bs)
			ns := s.roundSolve(ws, vi)
			s.replaceBlock(vi, ns)
			s.noteRoundSol(vi, ns)
			s.addBlockRows(vi, bs, +1)
			s.obj += s.blockCost(vi, bs) - oldCost
		}
	}

	s.retuneScale()
	s.considerIntegerIncumbent()
	s.polishInteger(s.rng, polishPasses)

	// Second candidate: threshold rounding of the fractional point (open
	// y ≥ ½ plus the argmax office, serve each office from its cheapest
	// copy), polished the same way under the shared incumbent. On small
	// instances the potential-guided rounding can settle in a poor local
	// optimum that this start escapes. Skipped entirely on cancellation —
	// the first candidate's incumbent is the prompt answer.
	if s.ctx.Err() == nil && s.loadThresholdRound(lpSol) {
		s.recomputeState()
		s.retuneScale()
		s.considerIntegerIncumbent()
		s.polishInteger(s.rng, polishPasses)
	}
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
	ws := s.scratch.Get(0)
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
					s.replaceBlock(vi, ns)
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
		for _, f := range s.sol[vi].open {
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
// from-scratch candidates find warmOpen as the descent left it.
func (s *solver) noteRoundSol(vi int, ns *intSol) {
	if s.resuming || !s.warmRound {
		return
	}
	s.warmOpen[vi] = append(s.warmOpen[vi][:0], ns.open...)
}

// loadThresholdRound overwrites the solver's per-video state with the
// threshold rounding of the fractional solution frac: every office with
// y ≥ ½ opens (always at least the largest-y office) and each demand office
// is served from its cheapest open copy. It reports false, with the state
// untouched, when frac misses a video entirely.
func (s *solver) loadThresholdRound(frac *mip.Solution) bool {
	for vi := range frac.Videos {
		if !slices.ContainsFunc(frac.Videos[vi].Open, func(f mip.Frac) bool { return f.V > 0 }) {
			return false
		}
	}
	for vi := range s.sol {
		bs := &s.sol[vi]
		bs.open = bs.open[:0]
		var best mip.Frac
		for _, f := range frac.Videos[vi].Open {
			if f.V > best.V {
				best = f
			}
			if f.V >= 0.5 {
				bs.open = append(bs.open, mip.Frac{I: f.I, V: 1})
			}
		}
		if len(bs.open) == 0 {
			bs.open = append(bs.open, mip.Frac{I: best.I, V: 1})
		}
		for k, j := range s.inst.Demands[vi].Js {
			bi := bs.open[0].I
			bc := s.inst.Cost(int(bi), int(j))
			for _, f := range bs.open[1:] {
				if c := s.inst.Cost(int(f.I), int(j)); c < bc {
					bc, bi = c, f.I
				}
			}
			bs.assign[k] = append(bs.assign[k][:0], mip.Frac{I: bi, V: 1})
		}
	}
	return true
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

// Sides of the integerStepImproves row accumulators (stepUse index + 1, and
// the stepMark bit recording that the side touched the row).
const (
	stepCur uint8 = 1
	stepNew uint8 = 2
)

// stepAdd accumulates v onto coupling row r of one side's block usage, in
// the descent's sparse acc/touched idiom: dense per-row scratch plus the
// list of rows to visit and clear.
func (s *solver) stepAdd(side uint8, r int, v float64) {
	if s.stepMark[r] == 0 {
		s.stepRows = append(s.stepRows, int32(r))
	}
	s.stepMark[r] |= side
	s.stepUse[side-1][r] += v
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
// Both sides' row usage goes into sparse accumulators and every sum below
// visits the touched rows in ascending index, so the two floats compared are
// the same bits on every run; nothing is allocated per call.
func (s *solver) integerStepImproves(vi int, cur *blockSol, ns *intSol, curCost float64, useMerit bool, dcCap float64) bool {
	d := &s.inst.Demands[vi]
	for _, f := range cur.open {
		s.stepAdd(stepCur, s.rowDisk(int(f.I)), d.SizeGB*f.V)
	}
	var newCost float64
	for _, i := range ns.open {
		s.stepAdd(stepNew, s.rowDisk(int(i)), d.SizeGB)
	}
	for k, fr := range cur.assign {
		j := int(d.Js[k])
		for _, f := range fr {
			if int(f.I) == j || f.V == 0 {
				continue
			}
			path := s.inst.G.Path(int(f.I), j)
			ts, fv := d.ConcNZ(k)
			for ti, tt := range ts {
				flow := d.RateMbps * fv[ti] * f.V
				if flow == 0 {
					continue
				}
				for _, l := range path {
					s.stepAdd(stepCur, s.rowLink(int(l), int(tt)), flow)
				}
			}
		}
	}
	for k, i := range ns.assign {
		j := int(d.Js[k])
		newCost += d.SizeGB * d.Agg[k] * s.inst.Cost(int(i), j)
		if int(i) == j {
			continue
		}
		path := s.inst.G.Path(int(i), j)
		ts, fv := d.ConcNZ(k)
		for ti, tt := range ts {
			flow := d.RateMbps * fv[ti]
			if flow == 0 {
				continue
			}
			for _, l := range path {
				s.stepAdd(stepNew, s.rowLink(int(l), int(tt)), flow)
			}
		}
	}
	if s.inst.UpdateWeight != 0 {
		for _, i := range ns.open {
			newCost += s.inst.PlacementCost(vi, int(i))
		}
	}
	slices.Sort(s.stepRows)
	ok := s.stepAccepts(curCost, newCost, useMerit, dcCap)
	for _, r := range s.stepRows {
		s.stepMark[r], s.stepUse[0][r], s.stepUse[1][r] = 0, 0, 0
	}
	s.stepRows = s.stepRows[:0]
	return ok
}

// stepAccepts evaluates integerStepImproves' criterion over the accumulated
// rows (s.stepRows ascending, usage in s.stepUse).
func (s *solver) stepAccepts(curCost, newCost float64, useMerit bool, dcCap float64) bool {
	curUse, newUse := s.stepUse[0], s.stepUse[1]
	// Trust region: reject replacements that push any row past dcCap.
	for _, r := range s.stepRows {
		if s.stepMark[r]&stepNew != 0 && (s.act[r]+newUse[r])/s.b[r]-1 > dcCap+1e-12 {
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
	s.alpha = s.opts.Gamma * math.Log(float64(s.rows)+1) / d
}

// replaceBlock overwrites block vi with the integer solution ns.
func (s *solver) replaceBlock(vi int, ns *intSol) {
	bs := &s.sol[vi]
	bs.open = bs.open[:0]
	for _, i := range ns.open {
		bs.open = append(bs.open, mip.Frac{I: i, V: 1})
	}
	for k := range bs.assign {
		bs.assign[k] = append(bs.assign[k][:0], mip.Frac{I: ns.assign[k], V: 1})
	}
}
