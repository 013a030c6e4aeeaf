package epf

import (
	"context"
	"math"
	"time"

	"vodplace/internal/mip"
	"vodplace/internal/obs"
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
	// The fan-out body is created once; per-chunk state flows through solver
	// fields (s.chunk, s.chunkSols) so no closure is allocated on the hot
	// path. Workers claim ranges of chunk positions as they free up; chunkSols
	// is index-addressed by position and applied sequentially in chunk order
	// by the caller, so the schedule never affects numerics.
	s.chunkFn = func(w, lo, hi int) {
		ws := &s.scratch[w]
		for c := lo; c < hi; c++ {
			vi := s.chunk[c]
			s.buildBlockProblem(vi, s.q, &ws.prob)
			ws.fs.SolveQuickInto(&ws.prob, &ws.fsol, s.warmOpen[vi])
			toIntSolInto(&ws.fsol, &s.inst.Demands[vi], ws.used, &s.chunkSols[c])
			s.warmOpen[vi] = append(s.warmOpen[vi][:0], s.chunkSols[c].open...)
		}
		ws.blocks += int64(hi - lo)
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

		// Parallel block optimization on the shared pool.
		s.chunk = s.perm[lo:hi]
		if err := s.pool.Run(s.ctx, len(s.chunk), s.chunkFn); err != nil {
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
	b := &s.bound
	b.target, b.premium, b.floor = s.lb, 1, math.Max(1e-9, 1e-3*s.obj)
	b.retarget()

	s.initRun()
	dc, r0 := s.maxCouplingViol()
	s.delta = math.Max(math.Max(dc, r0), s.opts.Epsilon/2)
	s.alpha = s.gammaLnM1 / s.delta
	s.seedWarmDescent()
	b.start = b.target
}

// run executes Algorithm 1's main loop and leaves the solver on the
// fractional point it ends with — the ε-feasible incumbent when there is one,
// else the current point — reporting the passes performed (0 when the seeded
// point already certifies) and whether the termination criterion was met.
// ctx is observed at chunk boundaries: on cancellation the loop stops before
// the next fan-out and the current point is kept as-is.
func (s *solver) run(ctx context.Context) (passes int, converged bool) {
	s.ctx = ctx
	lpStart := time.Now()
	s.runStart = lpStart
	o := s.opts
	s.initDescent()

	if !s.seedCertifies() {
		passes = s.descend()
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
	return passes, converged
}

// seedCertifies is pass 0: step 12 and done on the seeded point, before any
// block is walked. A point that is ε-feasible and already within (1+ε) of
// the bound initDescent derived becomes the incumbent and the solve ends with
// no pass run; any other point records nothing, so the descent that follows
// runs exactly as it would without this test.
func (s *solver) seedCertifies() bool {
	dc, _ := s.maxCouplingViol()
	eps := s.opts.Epsilon
	if dc > eps || !s.withinGap(s.obj, eps) {
		return false
	}
	s.incumbent(dc)
	return true
}

// descend runs the pass loop until the termination criterion holds, the
// certify tier certifies, the pass budget runs out or ctx is cancelled, and
// returns the passes performed.
func (s *solver) descend() int {
	o := &s.opts
	pass := 0
	for pass = 1; pass <= o.MaxPasses; pass++ {
		if !s.descentPass() {
			break
		}

		// Periodic exact refresh: incremental activity updates accumulate
		// floating-point drift over thousands of block steps.
		if pass%8 == 0 {
			s.recomputeState()
		}

		dc, _ := s.maxCouplingViol()
		s.incumbent(dc)
		if s.done(o.Epsilon) {
			s.endPass(pass)
			break
		}

		ran, certified := s.bound.step(pass, dc)
		for k, r := range ran {
			s.stats.Bound[k].add(r)
		}
		s.endPass(pass)
		if certified || s.done(o.Epsilon) {
			break
		}
	}
	return min(pass, o.MaxPasses)
}

// incumbent is the incumbent update (step 12): an ε-feasible point (dc is its
// largest coupling violation) that beats the incumbent is snapshotted as the
// new one.
func (s *solver) incumbent(dc float64) {
	if dc <= s.opts.Epsilon && s.obj < s.ub {
		s.ub = s.obj
		s.snapshotBest()
		s.haveUB = true
	}
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
// incrementally merged work counters, so each pass line carries live totals
// rather than the zeros the pre-telemetry solver reported until solve end.
// A nil recorder makes this a single pointer test; every field except the
// elapsed-ms stamp is bit-identical across worker counts. A traced pass
// allocates nothing (alloc_test.go).
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
	rec.RecordSpan(s.opts.TraceStream, "reduce", res.Stats.ReduceTime)
	rec.Flush() //nolint:errcheck // sink errors surface from the caller's Close
}

// done reports the Algorithm 1 termination criterion: an incumbent within
// (1+ε) of the bound.
func (s *solver) done(eps float64) bool {
	return s.haveUB && s.withinGap(s.ub, eps)
}

// withinGap reports whether objective value v is within (1+ε) of the bound.
// A tiny absolute slack keeps instances with OPT = 0 (no capacity pressure,
// β = 0) terminating.
func (s *solver) withinGap(v, eps float64) bool {
	return v <= (1+eps)*s.lb+1e-9
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
		RowDuals:   append([]float64(nil), s.bound.duals...),
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
