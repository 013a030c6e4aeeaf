package epf

import (
	"context"
	"math"
	"time"

	"vodplace/internal/mip"
	"vodplace/internal/obs"
	"vodplace/internal/par"
)

// initRun prepares the per-run state (pass permutation, chunk buffers, the
// chunk fan-out closure) so that a steady-state descent pass performs no
// allocations: every buffer it touches is created or capacity-bounded here.
func (s *solver) initRun() {
	o := &s.opts
	numBlocks := len(s.sol)
	s.gammaLnM1 = gamma * math.Log(float64(s.rows)+1)
	s.perm = make([]int, numBlocks)
	for i := range s.perm {
		s.perm[i] = i
	}
	s.swapFn = func(a, b int) { s.perm[a], s.perm[b] = s.perm[b], s.perm[a] }
	s.chunkSols = make([]intSol, o.ChunkSize)
	for c := range s.chunkSols {
		s.chunkSols[c].open = make([]int32, 0, s.n)
		s.chunkSols[c].assign = make([]int32, 0, s.n)
	}
	s.dcHist = make([]float64, 0, o.MaxPasses+1)
	s.warmOpen = make([][]int32, numBlocks)
	if o.Warm != nil {
		// Seed the facility-location warm starts from the previous period's
		// open sets, so even the first chunk's local searches start near the
		// old optimum. Videos without a valid warm set stay nil (cold).
		for vi := range s.warmOpen {
			if open := s.warmVideoOpen(vi); open != nil {
				s.warmOpen[vi] = append([]int32(nil), open...)
			}
		}
	}
	// The fan-out body is created once; per-chunk state flows through
	// solver fields (s.chunk, s.chunkPos, s.chunkSols) so no closure is
	// allocated on the hot path. Tasks are shard-affine position ranges
	// built by buildChunkTasks; chunkSols is index-addressed by chunk
	// position and applied sequentially in chunk order by the caller, so
	// neither the worker partition nor the shard grouping affects numerics.
	s.chunkTaskFn = func(w, _, lo, hi int) {
		ws := s.scratch.Get(w)
		if ws.used == nil {
			ws.used = make([]bool, s.n)
		}
		for idx := lo; idx < hi; idx++ {
			c := int(s.chunkPos[idx])
			vi := s.chunk[c]
			s.buildBlockProblem(vi, s.q, &ws.prob)
			ws.fs.SolveQuickInto(&ws.prob, &ws.fsol, s.warmOpen[vi])
			toIntSolInto(&ws.fsol, &s.inst.Demands[vi], ws.used, &s.chunkSols[c])
			s.warmOpen[vi] = append(s.warmOpen[vi][:0], s.chunkSols[c].open...)
		}
		ws.blocks += int64(hi - lo)
	}
}

// buildChunkTasks groups the current chunk's positions by shard (a stable
// counting sort into s.chunkPos) and splits each shard group into pieces of
// at most ceil(|chunk|/W), so a W-worker fan-out stays balanced while each
// piece touches a single shard's videos. Per-shard block counts are tallied
// here, on the driver goroutine, so the telemetry is deterministic. No
// allocations: every buffer was sized in initShards/initRun.
func (s *solver) buildChunkTasks() {
	S := len(s.shards)
	cnt, head := s.shardCnt, s.shardHead
	for si := 0; si < S; si++ {
		cnt[si] = 0
	}
	for _, vi := range s.chunk {
		cnt[s.shardOf[vi]]++
	}
	var sum int32
	for si := 0; si < S; si++ {
		head[si] = sum
		sum += cnt[si]
		s.shardBlocks[si] += int64(cnt[si])
	}
	for c, vi := range s.chunk {
		si := s.shardOf[vi]
		s.chunkPos[head[si]] = int32(c)
		head[si]++
	}
	per := (len(s.chunk) + s.opts.Workers - 1) / s.opts.Workers
	if per < 1 {
		per = 1
	}
	s.tasks = s.tasks[:0]
	pos := 0
	for si := 0; si < S; si++ {
		g := int(cnt[si])
		for g > 0 {
			sz := per
			if sz > g {
				sz = g
			}
			s.tasks = append(s.tasks, par.Task{Tag: si, Lo: pos, Hi: pos + sz})
			pos += sz
			g -= sz
		}
	}
}

// descentPass runs one full gradient-descent pass (shuffle, chunked block
// optimization, sequential application with line search, scale shrink).
// Returns false when the context was cancelled mid-pass. Steady-state
// passes allocate nothing; see initRun.
func (s *solver) descentPass() bool {
	o := &s.opts
	numBlocks := len(s.sol)
	if !o.NoShuffle {
		s.rng.Shuffle(numBlocks, s.swapFn)
	}
	for lo := 0; lo < numBlocks; lo += o.ChunkSize {
		hi := lo + o.ChunkSize
		if hi > numBlocks {
			hi = numBlocks
		}
		// Freeze duals for the chunk.
		s.computeDuals(s.q)
		s.computePathDuals(s.q)

		// Parallel block optimization on the shared pool, dispatched as
		// shard-affine position ranges.
		s.chunk = s.perm[lo:hi]
		s.buildChunkTasks()
		if err := s.pool.RunTasks(s.ctx, s.tasks, s.chunkTaskFn); err != nil {
			return false // cancelled before dispatch; chunkSols is stale
		}

		// Sequential application with line search.
		for c, vi := range s.chunk {
			s.applyBlock(vi, &s.chunkSols[c])
		}
		if s.ctx.Err() != nil {
			return false
		}

		// Step 11: shrink the scale when the point got less infeasible.
		dc, r0 := s.maxCouplingViol()
		dz := math.Max(math.Max(dc, r0), o.Epsilon/2)
		if dz < s.delta {
			s.delta = dz
			s.alpha = s.gammaLnM1 / s.delta
		}
	}
	return true
}

// initDescent sets the initial bound, objective target, per-run buffers and
// penalty scale. Split from run so the allocation-regression test can
// prepare a solver and then measure descentPass in isolation.
func (s *solver) initDescent() {
	// Initial lower bound: the no-capacity-pressure bound (every request
	// served at cost β). With β = 0 this is 0, so floor the objective
	// target to keep r_0 well defined.
	s.lb = s.inst.LowerBoundNoNetwork()
	s.ub = math.Inf(1)
	s.bPremium = 1
	s.bFloor = math.Max(1e-9, 1e-3*s.obj)
	s.retargetB()

	s.initRun()
	dc, r0 := s.maxCouplingViol()
	s.delta = math.Max(math.Max(dc, r0), s.opts.Epsilon/2)
	s.alpha = s.gammaLnM1 / s.delta
	s.seedWarmDescent()
	s.lbStart = s.lb
}

// run executes Algorithm 1's main loop and leaves the solver on the
// fractional point it ends with — the ε-feasible incumbent when there is one,
// else the current point — reporting the passes performed and whether the
// termination criterion was met. ctx is observed at chunk boundaries: on
// cancellation the loop stops before the next fan-out and the current point
// is kept as-is.
func (s *solver) run(ctx context.Context) (passes int, converged bool) {
	s.ctx = ctx
	lpStart := time.Now()
	s.runStart = lpStart
	o := s.opts
	s.initDescent()

	pass := 0
passes:
	for pass = 1; pass <= o.MaxPasses; pass++ {
		if !s.descentPass() {
			break passes
		}

		// Periodic exact refresh: incremental activity updates accumulate
		// floating-point drift over thousands of block steps.
		if pass%8 == 0 {
			s.recomputeState()
		}

		// Incumbent update (step 12).
		dc, _ := s.maxCouplingViol()
		if dc <= o.Epsilon && s.obj < s.ub {
			s.ub = s.obj
			s.snapshotBest()
			s.haveUB = true
		}
		if s.done(o.Epsilon) {
			s.endPass(pass)
			break
		}

		// FEAS(B) rescue: if no ε-feasible point has appeared by late in
		// the pass budget, the guess B is likely below the LP optimum (the
		// Lagrangian bound has not caught up) and the violation plateaus —
		// the potential is balancing a target that cannot be met. Raising
		// the guess is the move the FEAS(B) framework prescribes; it runs
		// only as a late rescue because it sacrifices objective pressure.
		// The first incumbent resets the premium so the normal dynamics
		// resume, and the incumbent snapshot protects what was found.
		s.dcHist = append(s.dcHist, dc)
		switch {
		case s.haveUB && s.bPremium > 1:
			s.bPremium = 1
			s.retargetB()
		case !s.haveUB && pass > o.MaxPasses*3/4 && dc > 1.8*o.Epsilon && len(s.dcHist) >= 8:
			ref := s.dcHist[len(s.dcHist)-8]
			if ref-dc < 0.05*(dc-o.Epsilon) {
				s.bPremium = math.Min(1.5, s.bPremium*1.03)
				s.retargetB()
				s.dcHist = s.dcHist[:0] // give the new target time to act
			}
		}

		// Lower-bound pass (steps 14-15) at this pass's duals. LR(λ) is not
		// scale-invariant in λ even though the block *directions* are, so a
		// short adaptive search over multiplicative scalings of the dual
		// vector is run each time; the best scale is carried to the next
		// pass. This is one of the update-mechanism tweaks the paper alludes
		// to in the Appendix.
		if pass%o.LBEvery == 0 {
			s.computeDuals(s.q)
			bestScale := s.lbScale
			bestLR := math.Inf(-1)
			// The three-point scale search costs two extra full block
			// passes; run it while the duals are still moving (early
			// passes) and periodically afterwards, with a single
			// evaluation at the carried scale in between.
			mults := lbMultsWide[:]
			if pass > 8 && pass%3 != 0 {
				mults = lbMultsNarrow[:]
			}
			for _, mult := range mults {
				scale := s.lbScale * mult
				for r := range s.qTmp {
					s.qTmp[r] = scale * s.q[r]
				}
				if lr := s.lagrangianBound(s.qTmp); lr > bestLR {
					bestLR, bestScale = lr, scale
				}
			}
			s.lbScale = bestScale
			if bestLR > s.lb+1e-12*math.Abs(s.lb) {
				s.lb = bestLR
				s.lbStall = 0
				s.stats.LBRaised++
				for r := range s.lbDuals {
					s.lbDuals[r] = bestScale * s.q[r]
				}
			} else {
				s.lbStall++
			}
			// When the potential-derived duals stop improving the bound,
			// polish the dual vector directly with subgradient ascent. While
			// the bound is still the one the descent started from (the carried
			// duals' on a re-solve), one round that fails to raise it is the
			// last until something does: after a demand delta the old prices
			// stay the best prices until the primal has moved, and the polish
			// ascends from this solve's duals, which trail them. Once the
			// solve has raised its own bound, repeated rounds are one
			// continuing ascent and keep their cadence.
			if s.lbStall >= 3 {
				if s.lb > s.lbStart || s.polishes == 0 {
					before := s.stats.LBTime
					s.polishLB()
					s.stats.PolishTime += s.stats.LBTime - before
				}
				s.lbStall = 0
			}
			s.retargetB()
		}

		s.endPass(pass)
		if s.done(o.Epsilon) {
			break
		}
	}
	if pass > o.MaxPasses {
		pass = o.MaxPasses
	}

	converged = s.done(o.Epsilon)
	s.lpDelta = s.delta // the δ the descent ended at, before rounding retunes
	// Prefer the incumbent; fall back to the current point.
	if s.haveUB {
		s.restoreBest()
		s.recomputeState()
	}
	s.stats.LPTime = time.Since(lpStart)
	s.opts.Recorder.RecordSpan(s.opts.TraceStream, "descent", s.stats.LPTime)
	return pass, converged
}

// endPass is the per-pass epilogue: every pass the loop completes, the one
// that meets the termination criterion included, reaches Options.OnPass and
// the recorder through here.
func (s *solver) endPass(pass int) {
	if s.opts.OnPass != nil {
		dc, _ := s.maxCouplingViol()
		s.opts.OnPass(PassInfo{
			Pass: pass, Objective: s.obj, LowerBound: s.lb,
			MaxViol: dc, Delta: s.delta, UpperBound: s.ub,
		})
	}
	s.recordPass(pass)
}

// recordPass emits one per-pass telemetry event: the convergence state the
// paper's figures plot (Φ, bounds, duality gap, link utilization) plus the
// incrementally merged work counters, so a mid-run /progress snapshot shows
// live totals rather than the zeros the pre-telemetry solver reported until
// solve end. A nil recorder makes this a single pointer test; every field
// except the elapsed-ms stamp is bit-identical across worker counts.
func (s *solver) recordPass(pass int) {
	rec := s.opts.Recorder
	if !rec.Enabled() {
		return
	}
	dc, r0 := s.maxCouplingViol()
	lmax, lmean := s.linkUtil()
	gap := 0.0
	if s.lb > 1e-12 {
		gap = (s.obj - s.lb) / s.lb
	}
	// JSON cannot carry +Inf: until an ε-feasible incumbent exists the upper
	// bound is reported as 0 and the duality gap as −1 ("undefined").
	ub, ubGap := 0.0, -1.0
	if s.haveUB {
		ub = s.ub
		if s.lb > 1e-12 {
			ubGap = (s.ub - s.lb) / s.lb
		}
	}
	s.stats.Passes = pass
	s.mergeStats()
	rec.RecordEPFPass(obs.EPFPass{
		Stream:       s.opts.TraceStream,
		Pass:         pass,
		Phi:          s.potential(r0),
		Objective:    s.obj,
		LowerBound:   s.lb,
		UpperBound:   ub,
		Gap:          gap,
		UBGap:        ubGap,
		MaxViol:      dc,
		MaxLinkUtil:  lmax,
		MeanLinkUtil: lmean,
		Delta:        s.delta,
		Blocks:       s.stats.BlocksOptimized,
		WarmHits:     s.stats.WarmStartHits,
		ElapsedMS:    float64(time.Since(s.runStart).Nanoseconds()) / 1e6,
	})
	rec.PublishKV("epf_stats."+s.opts.TraceStream, s.stats)
}

// potential evaluates the potential Φ(z) at the live α: the capacity rows'
// exp(α(act_r/b_r − 1)) plus the objective row's exp(α·r_0) with
// r_0 = obj/B − 1. Telemetry only — the descent itself never calls it.
func (s *solver) potential(r0 float64) float64 {
	phi := expClamp(s.alpha * r0)
	for r := 0; r < s.rows; r++ {
		phi += expClamp(s.alpha * (s.act[r]/s.b[r] - 1))
	}
	return phi
}

// linkUtil returns the max and mean utilization act_r/b_r over the link
// rows (rows n .. rows−1). Zero when the instance has no time slices.
func (s *solver) linkUtil() (lmax, lmean float64) {
	nLinks := s.rows - s.n
	if nLinks <= 0 {
		return 0, 0
	}
	var sum float64
	for r := s.n; r < s.rows; r++ {
		u := s.act[r] / s.b[r]
		if u > lmax {
			lmax = u
		}
		sum += u
	}
	return lmax, sum / float64(nLinks)
}

// finishTrace emits the solve's summary event and forces the sink to disk.
// It runs on every exit from the public entry points — converged, pass
// budget exhausted, or cancelled — so a SIGINT'd run still keeps every
// buffered pass event (flushing here is what makes partial traces
// debuggable).
func (s *solver) finishTrace(res *Result) {
	rec := s.opts.Recorder
	if !rec.Enabled() || res == nil {
		return
	}
	rec.RecordEPFDone(obs.EPFDone{
		Stream:     s.opts.TraceStream,
		Passes:     res.Passes,
		Objective:  res.Objective,
		LowerBound: res.LowerBound,
		Gap:        res.Gap,
		Converged:  res.Converged,
		Rounded:    res.Rounded,
	})
	// Per-shard summaries ride only on sharded solves, so an unsharded
	// solve's trace stays byte-identical to pre-shard releases.
	if len(s.shards) > 1 {
		for si, sp := range s.shards {
			var nnz int64
			for vi := sp.lo; vi < sp.hi; vi++ {
				nnz += int64(s.inst.Demands[vi].NNZ())
			}
			rec.RecordEPFShard(obs.EPFShard{
				Stream: s.opts.TraceStream,
				Shard:  si,
				Videos: sp.hi - sp.lo,
				NNZ:    nnz,
				Blocks: s.shardBlocks[si],
			})
		}
	}
	rec.RecordSpan(s.opts.TraceStream, "reduce", res.Stats.ReduceTime)
	rec.PublishKV("epf_stats."+s.opts.TraceStream, res.Stats)
	rec.Flush() //nolint:errcheck // sink errors surface from the caller's Close
}

// Lower-bound scale-search multipliers (package-level so the pass loop
// doesn't materialize a slice literal per pass).
var (
	lbMultsWide   = [3]float64{0.5, 1, 2}
	lbMultsNarrow = [1]float64{1}
)

// retargetB recomputes the objective-row target from the proven bound and
// the current premium.
func (s *solver) retargetB() {
	s.bObj = math.Max(s.lb*s.bPremium, s.bFloor)
}

// done reports the Algorithm 1 termination criterion. A tiny absolute slack
// keeps instances with OPT = 0 (no capacity pressure, β = 0) terminating.
func (s *solver) done(eps float64) bool {
	if !s.haveUB {
		return false
	}
	return s.ub <= (1+eps)*s.lb+1e-9
}

// buildResult reports the solver's final state, once per solve, from the
// entry points. Result.Sol takes the live point's rows as they are, not a
// copy: the solver is closed right after and nothing else holds them.
func (s *solver) buildResult(passes int, converged bool) *Result {
	out := &mip.Solution{Inst: s.inst, Videos: s.sol}
	obj := out.Objective()
	gap := 0.0
	if s.lb > 1e-12 {
		gap = (obj - s.lb) / s.lb
	}
	s.stats.Passes = passes
	s.mergeStats()
	res := &Result{
		Sol:        out,
		LowerBound: s.lb,
		Objective:  obj,
		Gap:        gap,
		RowDuals:   append([]float64(nil), s.lbDuals...),
		Violation:  out.Check(),
		Passes:     passes,
		Converged:  converged,
		Stats:      s.stats,
	}
	return res
}

// snapshotBest records the live point as the incumbent.
func (s *solver) snapshotBest() { s.packPoint(&s.best) }

// restoreBest puts the solver back on the incumbent, every row carved from
// one fresh arena.
func (s *solver) restoreBest() {
	arena := make([]mip.Frac, 0, len(s.best.Frac))
	for vi := range s.sol {
		arena, _ = s.loadBlock(vi, &s.best, int(s.best.Row[vi]), int(s.best.Row[vi+1]), arena)
	}
}
