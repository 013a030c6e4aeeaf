// Package epf implements the paper's core contribution: solving the
// content-placement LP relaxation with the exponential potential function
// (EPF) method — a Dantzig-Wolfe/Lagrangian decomposition in which each
// video is an independent block (a fractional uncapacitated facility
// location problem) and the coupling disk and link constraints are priced
// into block costs through exponential penalties (Appendix, Algorithm 1).
//
// The solver maintains a point z in the product of block polytopes and the
// activities of all coupling rows. Each pass:
//
//  1. shuffles the blocks (the paper reports a 40x pass reduction from
//     re-randomizing the round-robin order) and partitions them into chunks;
//  2. for each chunk, freezes the dual weights π derived from the potential,
//     optimizes every block in the chunk in parallel against those duals
//     (greedy + local-search facility location), then applies the steps
//     sequentially, each with an exact 1-D line search on the potential;
//  3. shrinks the scale δ when the maximum relative infeasibility drops,
//     which sharpens the penalty exponent α(δ) = γ·ln(m+1)/δ;
//  4. computes a Lagrangian lower bound LR(λ̄) from smoothed duals λ̄ using
//     per-block *dual ascent* bounds (a primal heuristic value would not be
//     a valid bound), and retargets the objective row at the new bound.
//
// Termination: the current point is ε-feasible (all coupling rows within
// 1+ε of capacity) and its objective is within 1+ε of the lower bound —
// the "within 1–2% of optimal" guarantee the paper reports.
//
// Integer rounding (§V-D) is implemented in round.go in this package, since
// it reuses the live potential state.
//
// The hot kernels run on flat structures: the topology's CSR path table,
// the instance's dense j-major cost matrix and per-demand sparse slice
// lists, and a (t,j)-major path-dual transpose, so block pricing walks
// contiguous memory. The transpose is delta-updated from the links whose
// price moved, with a periodic exact rebuild, and every block's local search
// starts from the video's previous open set. See DESIGN.md §8 for the layout
// and the determinism constraints the kernels honor.
package epf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"vodplace/internal/facloc"
	"vodplace/internal/mip"
	"vodplace/internal/obs"
	"vodplace/internal/par"
)

// Options configures the solver. The zero value selects the defaults the
// paper's experiments use (ε = 1%).
type Options struct {
	// Epsilon is the feasibility/optimality tolerance ε. Default 0.01.
	Epsilon float64
	// Gamma is the exponent factor γ ≈ 1 in α(δ) = γ·ln(m+1)/δ. Default 1.
	Gamma float64
	// Rho is the dual smoothing parameter ρ ∈ [0,1). Default 0.5.
	Rho float64
	// ChunkSize is the number of blocks optimized against one frozen dual
	// vector. Default 128.
	ChunkSize int
	// MaxPasses bounds the number of full passes. Default 300.
	MaxPasses int
	// Workers is the parallelism for block optimization. Default
	// GOMAXPROCS(0), so `go test -cpu` sweeps and GOMAXPROCS-capped
	// deployments scale the pool with the runtime instead of the raw core
	// count. Results are bit-identical at any worker count either way.
	Workers int
	// Shards is the number of contiguous catalog shards the block schedule
	// is grouped by. 0 (the default) adopts the instance's own shard layout
	// (mip.Instance.Shards — one shard for batch-built instances, the
	// builder's layout for streamed ones); a positive value forces an even
	// contiguous re-partition with that many shards, capped at the video
	// count. Sharding changes only data locality, scheduling and per-shard
	// telemetry — every result is bit-identical at any shard count, exactly
	// as it is at any worker count, because block results land in
	// index-addressed slots and every reduction runs in index order.
	Shards int
	// Seed drives block shuffling. Default 1.
	Seed int64
	// LBEvery computes the Lagrangian lower bound every this many passes.
	// Default 1 (every pass, as in Algorithm 1).
	LBEvery int
	// NoShuffle processes blocks in a fixed order instead of re-randomizing
	// each pass. Exists for the ablation of the paper's observation that
	// re-shuffling cuts pass counts by a large factor; never set it in
	// production use.
	NoShuffle bool
	// Deprecated: ignored — the only mode; kept until bench/system.go stops setting it (a benchmark PR).
	IncrementalPricing bool
	// Deprecated: ignored — the only mode; kept until bench/system.go stops setting it (a benchmark PR).
	ParallelRound bool
	// Warm, when non-nil, resumes the solve from a previous period's final
	// state (see WarmState): initial point from the carried LP point, per
	// video, where the video's demand offices are unchanged, else from its
	// open set, else the cold init; initial lower bound and smoothed duals
	// from the previous row duals when the coupling-row dimensions match;
	// penalty scale from the previous descent; and facility-location warm
	// starts in both the descent and the rounding phase. The state is
	// read-only to the solve. A warm start moves the floating-point
	// trajectory, not correctness: every bound is re-derived on the new
	// instance and the usual certificates hold.
	Warm *WarmState
	// OnPass, when non-nil, is invoked after every pass with progress
	// information (used by the CLI tools for -v output).
	OnPass func(PassInfo)
	// Recorder, when non-nil, receives per-pass telemetry events, phase
	// spans and live solver stats (see internal/obs). A nil recorder is the
	// disabled state and costs one pointer test per pass; nothing recorded
	// ever feeds back into the solve, so telemetry cannot change numerics.
	Recorder *obs.Recorder
	// TraceStream names this solve's event stream in the trace (default
	// "epf"). Callers running several solves in one process — e.g. one per
	// placement period — give each a distinct stream so their pass series
	// don't interleave.
	TraceStream string
}

// PassInfo reports solver progress after a pass.
type PassInfo struct {
	Pass       int
	Objective  float64
	LowerBound float64
	MaxViol    float64 // δ_c(z): max relative coupling-row violation
	Delta      float64 // current scale δ
	UpperBound float64 // best ε-feasible objective so far (+Inf if none)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Epsilon <= 0 {
		out.Epsilon = 0.01
	}
	if out.Gamma <= 0 {
		out.Gamma = 1
	}
	if out.Rho < 0 || out.Rho >= 1 {
		out.Rho = 0.5
	}
	// ChunkSize 0 means adaptive: chosen per instance so that a pass spans
	// many dual refreshes (small instances) without sacrificing batching on
	// large ones. Resolved in newSolver.
	if out.MaxPasses <= 0 {
		out.MaxPasses = 300
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.LBEvery <= 0 {
		out.LBEvery = 1
	}
	if out.TraceStream == "" {
		out.TraceStream = "epf"
	}
	return out
}

// Result is the solver output.
type Result struct {
	// Sol is the best solution found. After Solve it is the final fractional
	// point (ε-feasible when Converged); after SolveInteger every y is 0/1.
	Sol *mip.Solution
	// LowerBound is the best Lagrangian bound on the LP optimum; it is also
	// a bound on the MIP optimum.
	LowerBound float64
	// Objective is Sol's objective value.
	Objective float64
	// Gap is (Objective − LowerBound)/LowerBound (0 when LowerBound is 0).
	Gap float64
	// RowDuals is the non-negative coupling-row dual vector λ that produced
	// LowerBound: entries 0..n-1 price the disk rows (office i), entry
	// n + t·L + l prices link l in time slice t. Together with per-block
	// dual-ascent bounds it certifies LowerBound ≤ OPT; internal/verify
	// re-derives that certificate without the solver's code paths. All-zero
	// when the bound is still the initial no-network bound.
	RowDuals []float64
	// Violation summarizes Sol's constraint violations.
	Violation mip.Violation
	// Passes is the number of gradient-descent passes performed.
	Passes int
	// Converged reports whether the ε-feasible/ε-optimal criterion was met
	// in the LP phase.
	Converged bool
	// Rounded reports whether the integer rounding pass ran.
	Rounded bool
	// Warm is the cross-period carryover: the state a subsequent solve over
	// a shifted instance passes as Options.Warm. Populated on every solve, by
	// the entry points, once the last phase is over.
	Warm *WarmState
	// Stats reports the solve's runtime behavior (work counts, phase wall
	// times, scratch economy).
	Stats Stats
}

// blockSol is the solver-internal per-video fractional solution.
type blockSol struct {
	open   []mip.Frac   // sparse y, ascending office
	assign [][]mip.Frac // per demand index, sparse x
}

// intSol is an integer block solution produced by facility location.
type intSol struct {
	open   []int32
	assign []int32
}

// shardSpan is one contiguous catalog shard [lo, hi) in video-index space.
type shardSpan struct {
	lo, hi int
}

// workerScratch is one pool worker's reusable state: the facility-location
// solver and problem buffers (allocated once, reused across every chunk,
// pass and bound evaluation) plus lock-free stat counters. Slot w is only
// ever touched by the goroutine running worker w's range; the pool's
// completion barrier orders those writes before the sequential merge.
type workerScratch struct {
	fs   facloc.Solver
	prob facloc.Problem
	fsol facloc.Solution // block solution buffer, reused per solve
	used []bool          // toIntSolInto scratch, len n

	blocks   int64 // descent-loop block solves
	lbBlocks int64 // bound-evaluation block solves
}

// Exponent caps. Both clamp arguments to math.Exp well below the overflow
// threshold (exp(709) ≈ MaxFloat64), but they are deliberately different:
//
//   - dualExpCap bounds the *price ratio* between a coupling row and the
//     objective row when duals are materialized (computeDuals,
//     refreshDiskDuals). Prices are multiplied by B/b_r, summed over paths
//     and fed into facility-location costs, so the tighter cap keeps block
//     costs comfortably inside the float64 range even after those
//     amplifications; exp(300) ≈ 2e130 headroom below maxDual.
//
//   - lineExpCap bounds potential-derivative terms (expClamp, used by the
//     line search and the rounding criteria), where only the sign and the
//     relative magnitude of a sum matter and no further amplification
//     happens; the looser cap preserves ordering information deeper into
//     the saturated regime.
//
// Tests reference these constants rather than repeating the numbers.
const (
	dualExpCap = 300
	lineExpCap = 500
)

type solver struct {
	inst *mip.Instance
	opts Options

	n, L, T int
	rows    int       // coupling rows: n disk + L·T link
	b       []float64 // row capacities
	act     []float64 // row activities A·z
	obj     float64   // current objective c·z
	bObj    float64   // objective target B

	lb, ub float64
	delta  float64
	alpha  float64

	sol      []blockSol
	best     []blockSol // snapshot of the incumbent ε-feasible point
	haveUB   bool
	qBar     []float64 // smoothed normalized duals (resource rows)
	qBarSet  bool
	lbScale  float64   // adaptive multiplier for the Lagrangian dual vector
	bPremium float64   // FEAS(B) target premium over the proven bound
	bFloor   float64   // absolute floor for the objective target
	qTmp     []float64 // scaled-dual scratch for lower-bound evaluations
	qLB      []float64 // persistent polished dual vector (nil until first polish)
	lbDuals  []float64 // dual vector that achieved the best lower bound so far
	lbStall  int       // passes since the lower bound last improved
	polishes int       // completed polish rounds (decays the ascent step)

	// Shared execution runtime: one pool per solve, per-worker scratch
	// reused across all fan-outs, cancellation checked at chunk boundaries.
	ctx      context.Context
	pool     *par.Pool
	scratch  *par.Slots[workerScratch]
	stats    Stats
	runStart time.Time // descent start; trace events stamp elapsed ms from it

	// Lagrangian evaluation buffers, indexed by block so reductions run in
	// block order on the driver goroutine — the worker count never changes
	// the floating-point summation grouping, keeping results bit-identical
	// at any parallelism.
	lbBuf   []float64 // per-block dual-ascent bounds
	lbSols  []intSol  // per-block minimizers (subgradient evaluations only)
	gradBuf []float64 // subgradient scratch (len rows)

	rng *rand.Rand

	// sequential-apply scratch
	acc     []float64
	touched []int32
	yBuf    []float64
	// line-search gather arrays: the touched rows' deltas, activities,
	// capacities and precomputed delta/b coefficients, packed contiguously
	// so every derivative evaluation is one linear sweep.
	lsDelta, lsAct, lsB, lsDB []float64

	// frozen duals scratch (rebuilt per chunk)
	q []float64
	// pathDualT is the path-aggregated link price table in (t,j)-major
	// layout: pathDualT[(t*n+j)*n + i] = Σ_{l ∈ P_ij} q[link(l,t)]. Block
	// pricing fixes (t, j) and walks i, so the transpose keeps that scan
	// contiguous (the natural [t][i*n+j] layout strides by n).
	pathDualT []float64
	costT     []float64 // dense j-major cost table from the instance

	// Incremental pricing state (computePathDuals).
	qPrev   []float64 // link-row duals the current pathDualT was built from
	pdInit  bool
	pdSince int // delta refreshes since the last full rebuild

	// run-loop state, fields so a steady-state pass allocates nothing
	gammaLnM1 float64
	perm      []int
	chunk     []int
	chunkSols []intSol
	swapFn    func(a, b int)
	dcHist    []float64
	mergeBuf  []mip.Frac // mergeFracs staging buffer
	warmOpen  [][]int32  // per-video previous block open set (warm starts)

	// Shard scheduling state. Shards are contiguous catalog ranges resolved
	// in newSolver (from the instance layout or Options.Shards); every
	// fan-out dispatches shard-affine index ranges via par.RunTasks so one
	// worker's consecutive blocks share a shard's working set. Because block
	// results are index-addressed and reductions run in chunk/video order on
	// the driver goroutine, the shard decomposition — like the worker count —
	// never changes numeric output.
	shards      []shardSpan
	shardOf     []int32    // video index -> shard index
	shardBlocks []int64    // per-shard descent block solves, driver-tallied
	chunkPos    []int32    // current chunk's positions, grouped by shard
	shardCnt    []int32    // counting-sort scratch: blocks per shard
	shardHead   []int32    // counting-sort scratch: group write heads
	tasks       []par.Task // descent-chunk task list (reused)
	chunkTaskFn func(w, tag, lo, hi int)
	lbTasks     []par.Task // static shard-affine split of all blocks
	lbTaskFn    func(w, tag, lo, hi int)
	lbQ         []float64 // frozen duals for the current bound fan-out
	lbWantGrad  bool

	// Deterministic parallel-reduction state (reduce.go). Leaves are fixed
	// spans of video-index space whose boundaries depend only on the catalog
	// size, so the reduction tree is identical at any worker or shard count;
	// a single-leaf catalog degenerates to the historical flat sequential
	// sum. All buffers nil on single-leaf solves.
	leaves      []shardSpan
	leafTasks   []par.Task
	leafAct     []float64 // per-leaf partial activities, numLeaves×rows flat
	leafObj     []float64 // per-leaf partial objective sums
	leafSum     []float64 // per-leaf partial Lagrangian-term sums
	leafGrad    []float64 // per-leaf partial subgradients (lazy, polish only)
	stateLeafFn func(w, tag, lo, hi int)
	lbSumLeafFn func(w, tag, lo, hi int)
	gradLeafFn  func(w, tag, lo, hi int)

	// Parallel path-dual rebuild state: the frozen duals staged for the row
	// fan-out and the once-built row body. Every pathDualT entry is an
	// independent sum over its own CSR path, so any row partition is
	// bitwise-identical to the sequential rebuild.
	pdRebuildQ []float64
	pdRowFn    func(w, lo, hi int)
	pdParallel bool // resolved once: pool > 1 worker and table big enough

	// Rounding state (round.go): the candidate block solution, the
	// chunk-frozen disk duals that serve as the drift baseline, and the
	// polish passes' visiting order. The candidates
	// share one incumbent (roundBest, its point in best); scratchBest is the
	// best score a from-scratch candidate reached, which over the bound is
	// the reference the next solve's resume is measured against (roundRef).
	// While resuming is set the polish loop is working on the carried
	// placement: it seeds each local search from the block itself (seedBuf)
	// and leaves warmOpen alone.
	roundSol    intSol
	roundQ0     []float64
	polishOrder []int
	roundBest   float64
	scratchBest float64
	roundRef    float64
	resuming    bool
	seedBuf     []int32

	// integerStepImproves scratch (round.go): per-row usage of the current
	// and the candidate block, which side touched each row, and the touched
	// rows.
	stepUse  [2][]float64
	stepMark []uint8
	stepRows []int32

	// Cross-period warm-start state (Options.Warm / Result.Warm).
	warmRound bool    // rounding-phase facloc solves seed from warmOpen
	lpDelta   float64 // δ at the end of the LP descent (exported hint)
}

func (s *solver) rowDisk(i int) int    { return i }
func (s *solver) rowLink(l, t int) int { return s.n + t*s.L + l }

// Incremental-pricing tuning. A link row participates in a delta update
// only when its dual moved by more than pdRelTol relatively; unchanged rows
// keep their (within-tolerance) stale contribution. pdRebuildEvery bounds
// the accumulated drift with a periodic exact rebuild, and a refresh where
// more than a quarter of the link rows moved falls back to a full rebuild —
// at that density the scattered delta writes cost more than the rebuild.
const (
	pdRelTol       = 1e-9
	pdRebuildEvery = 16
)

// Solve runs the EPF LP solver on inst and returns the fractional result.
func Solve(inst *mip.Instance, opts Options) (*Result, error) {
	return SolveContext(context.Background(), inst, opts)
}

// SolveContext is Solve with cooperative cancellation: the solver checks
// ctx at every chunk boundary and bound evaluation. On cancellation it
// stops within roughly one chunk of work and returns the current (partial,
// possibly non-converged) result together with ctx.Err().
func SolveContext(ctx context.Context, inst *mip.Instance, opts Options) (*Result, error) {
	s, err := newSolver(inst, opts)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res := s.run(ctx)
	res.Warm = s.exportWarm(res, res.Sol)
	s.finishTrace(res)
	return res, ctx.Err()
}

// SolveInteger runs Solve and then the §V-D rounding pass, returning an
// integral placement.
func SolveInteger(inst *mip.Instance, opts Options) (*Result, error) {
	return SolveIntegerContext(context.Background(), inst, opts)
}

// SolveIntegerContext is SolveInteger with cooperative cancellation; both
// the LP descent and the rounding/polish phases observe ctx. On
// cancellation the best point reached so far is returned with ctx.Err().
func SolveIntegerContext(ctx context.Context, inst *mip.Instance, opts Options) (*Result, error) {
	s, err := newSolver(inst, opts)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res := s.run(ctx)
	lpSol := res.Sol // round overwrites *res once it is done with the LP point
	s.round(res)
	res.Warm = s.exportWarm(res, lpSol)
	s.finishTrace(res)
	return res, ctx.Err()
}

func newSolver(inst *mip.Instance, opts Options) (*solver, error) {
	if inst == nil {
		return nil, fmt.Errorf("epf: nil instance")
	}
	initStart := time.Now()
	o := opts.withDefaults()
	s := &solver{
		inst: inst,
		opts: o,
		n:    inst.NumVHOs(),
		L:    inst.G.NumLinks(),
		T:    inst.Slices,
		rng:  rand.New(rand.NewSource(o.Seed)),
	}
	s.rows = s.n + s.L*s.T
	s.b = make([]float64, s.rows)
	for i := 0; i < s.n; i++ {
		s.b[s.rowDisk(i)] = inst.DiskGB[i]
	}
	for t := 0; t < s.T; t++ {
		for l := 0; l < s.L; l++ {
			s.b[s.rowLink(l, t)] = inst.LinkCapMbps[l]
		}
	}
	s.act = make([]float64, s.rows)
	s.acc = make([]float64, s.rows)
	s.touched = make([]int32, 0, s.rows)
	s.stepUse = [2][]float64{make([]float64, s.rows), make([]float64, s.rows)}
	s.stepMark = make([]uint8, s.rows)
	s.stepRows = make([]int32, 0, s.rows)
	s.yBuf = make([]float64, s.n)
	s.lsDelta = make([]float64, s.rows)
	s.lsAct = make([]float64, s.rows)
	s.lsB = make([]float64, s.rows)
	s.lsDB = make([]float64, s.rows)
	s.q = make([]float64, s.rows)
	s.mergeBuf = make([]mip.Frac, 0, s.n+1)
	s.qBar = make([]float64, s.rows)
	s.qTmp = make([]float64, s.rows)
	// The initial bound (LowerBoundNoNetwork) is the Lagrangian value at
	// λ = 0, so the zero vector is its certificate.
	s.lbDuals = make([]float64, s.rows)
	s.lbScale = 1
	if s.opts.ChunkSize <= 0 {
		// Adaptive: at least ~24 dual refreshes per pass, chunk in [8, 256].
		cs := len(inst.Demands) / 24
		if cs < 8 {
			cs = 8
		}
		if cs > 256 {
			cs = 256
		}
		s.opts.ChunkSize = cs
	}
	s.pathDualT = make([]float64, s.T*s.n*s.n)
	// The dense cost table is (re)validated against (Alpha, Beta) here, on
	// the driver goroutine, before any fan-out reads it.
	s.costT = inst.CostColumns()
	s.qPrev = make([]float64, s.rows)
	s.ctx = context.Background()
	s.pool = par.New(o.Workers)
	s.scratch = par.NewSlots[workerScratch](s.pool)
	s.lbBuf = make([]float64, len(inst.Demands))
	s.initShards()
	s.initReduce()
	s.roundQ0 = make([]float64, s.n)
	s.warmRound = s.opts.Warm != nil
	s.initSolution()
	s.stats.InitTime = time.Since(initStart)
	s.opts.Recorder.RecordSpan(s.opts.TraceStream, "init", s.stats.InitTime)
	return s, nil
}

// close releases the solver's worker pool. Entry points defer it; the
// solver must not be used afterwards.
func (s *solver) close() {
	if s.pool != nil {
		s.pool.Close()
	}
}

// initShards resolves the solve's shard layout and builds the shard-affine
// scheduling state: the video→shard map, the static bound-evaluation task
// list, and the bound fan-out body. Runs once in newSolver; every buffer the
// steady-state dispatch touches is sized here.
func (s *solver) initShards() {
	numBlocks := len(s.inst.Demands)
	s.shards = resolveShards(s.inst, s.opts.Shards)
	S := len(s.shards)
	s.shardOf = make([]int32, numBlocks)
	for si, sp := range s.shards {
		for vi := sp.lo; vi < sp.hi; vi++ {
			s.shardOf[vi] = int32(si)
		}
	}
	s.shardBlocks = make([]int64, S)
	s.shardCnt = make([]int32, S)
	s.shardHead = make([]int32, S)
	s.chunkPos = make([]int32, s.opts.ChunkSize)
	// Σ_s ceil(g_s/per) ≤ S + W pieces for any chunk split, so the task
	// buffer never regrows.
	s.tasks = make([]par.Task, 0, S+s.opts.Workers)
	// Bound evaluations sweep every block; the split is static, so build it
	// once: each shard's range in pieces of at most ceil(numBlocks/W).
	per := (numBlocks + s.opts.Workers - 1) / s.opts.Workers
	if per < 1 {
		per = 1
	}
	for si, sp := range s.shards {
		for lo := sp.lo; lo < sp.hi; lo += per {
			hi := lo + per
			if hi > sp.hi {
				hi = sp.hi
			}
			s.lbTasks = append(s.lbTasks, par.Task{Tag: si, Lo: lo, Hi: hi})
		}
	}
	// The bound fan-out body, created once; the frozen duals and gradient
	// request flow through solver fields (s.lbQ, s.lbWantGrad). Per-block
	// bounds land in s.lbBuf, index-addressed, and the caller reduces them in
	// video order — bit-identical at any worker or shard count.
	s.lbTaskFn = func(w, _, lo, hi int) {
		ws := s.scratch.Get(w)
		if ws.used == nil {
			ws.used = make([]bool, s.n)
		}
		q := s.lbQ
		for vi := lo; vi < hi; vi++ {
			if (vi-lo)%64 == 0 && s.ctx.Err() != nil {
				return
			}
			s.buildBlockProblem(vi, q, &ws.prob)
			lb, _ := ws.fs.DualAscent(&ws.prob)
			s.lbBuf[vi] = lb
			if s.lbWantGrad {
				ws.fs.SolveQuickInto(&ws.prob, &ws.fsol, nil)
				toIntSolInto(&ws.fsol, &s.inst.Demands[vi], ws.used, &s.lbSols[vi])
			}
			ws.lbBlocks++
		}
	}
	s.stats.Shards = S
}

// resolveShards returns the contiguous catalog shards a solve schedules by.
// want = 0 adopts the instance's own layout (single shard when the instance
// carries none, e.g. hand-built literals); want > 0 forces an even
// re-partition into min(want, numVideos) shards.
func resolveShards(inst *mip.Instance, want int) []shardSpan {
	numBlocks := len(inst.Demands)
	if want <= 0 {
		if ns := inst.NumShards(); ns > 0 {
			out := make([]shardSpan, ns)
			for si := 0; si < ns; si++ {
				sh := inst.Shards[si]
				out[si] = shardSpan{lo: sh.Lo, hi: sh.Hi}
			}
			return out
		}
		return []shardSpan{{lo: 0, hi: numBlocks}}
	}
	if want > numBlocks {
		want = numBlocks
	}
	if want < 1 {
		want = 1
	}
	out := make([]shardSpan, 0, want)
	per := (numBlocks + want - 1) / want
	for lo := 0; lo < numBlocks; lo += per {
		hi := lo + per
		if hi > numBlocks {
			hi = numBlocks
		}
		out = append(out, shardSpan{lo: lo, hi: hi})
	}
	if len(out) == 0 {
		out = append(out, shardSpan{lo: 0, hi: numBlocks})
	}
	return out
}

// mergeStats folds the per-worker scratch counters into s.stats. Totals are
// recomputed from scratch (the counters are cumulative) so it can run again
// after the rounding phase without double counting.
func (s *solver) mergeStats() {
	s.stats.Workers = s.pool.Workers()
	s.stats.Polishes = s.polishes
	s.stats.BlocksOptimized, s.stats.LBBlockSolves = 0, 0
	s.stats.WarmStartTries, s.stats.WarmStartHits = 0, 0
	s.scratch.Each(func(_ int, ws *workerScratch) {
		s.stats.BlocksOptimized += ws.blocks
		s.stats.LBBlockSolves += ws.lbBlocks
		s.stats.WarmStartTries += ws.fs.WarmTries
		s.stats.WarmStartHits += ws.fs.WarmHits
	})
	s.stats.ScratchAllocs, s.stats.ScratchReuses = s.scratch.Counts()
}

// initSolution places one copy of each video at its highest-demand office
// and serves everything from there, then computes activities from scratch.
// Under Options.Warm each video instead starts as far down the warm ladder
// as the instance allows: its block of the carried LP point, else its
// previous open set, else the cold init (see WarmState). The resumed rows of
// one solve are carved from a single arena.
func (s *solver) initSolution() {
	s.sol = make([]blockSol, len(s.inst.Demands))
	var arena []mip.Frac
	if w := s.opts.Warm; w != nil && w.LP != nil {
		arena = make([]mip.Frac, 0, len(w.LP.Frac))
	}
	s.stats.ResumedVideos, s.stats.WarmVideos = s.seedBlocks(func(vi int) (ok bool) {
		arena, ok = s.resumeBlock(vi, arena)
		return ok
	})
	s.recomputeState()
}

// recomputeState rebuilds act and obj from the current solution. Multi-leaf
// catalogs reduce in parallel through the fixed-leaf tree (reduce.go);
// single-leaf catalogs run the historical flat sequential sum.
func (s *solver) recomputeState() {
	start := time.Now()
	if !s.parRecomputeState() {
		for r := range s.act {
			s.act[r] = 0
		}
		s.obj = 0
		for vi := range s.sol {
			s.addBlockRows(vi, &s.sol[vi], +1)
			s.obj += s.blockCost(vi, &s.sol[vi])
		}
	}
	s.stats.ReduceTime += time.Since(start)
}

// addBlockRows adds (sign=+1) or removes (sign=-1) block vi's contribution
// to the coupling-row activities.
func (s *solver) addBlockRows(vi int, bs *blockSol, sign float64) {
	s.addBlockRowsTo(s.act, vi, bs, sign)
}

// addBlockRowsTo adds (sign=+1) or removes (sign=-1) block vi's contribution
// to the coupling-row activities in act. Only the nonzero time slices of each
// demand (the instance's sparse concurrency lists) are visited, and link
// rows are addressed through the CSR path table. act is either the live
// activity vector or one leaf's partial (parallel reductions): the per-entry
// accumulation order is identical either way.
func (s *solver) addBlockRowsTo(act []float64, vi int, bs *blockSol, sign float64) {
	d := &s.inst.Demands[vi]
	for _, f := range bs.open {
		act[int(f.I)] += sign * d.SizeGB * f.V
	}
	if s.T == 0 {
		return
	}
	for k, fr := range bs.assign {
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
func (s *solver) blockCost(vi int, bs *blockSol) float64 {
	d := &s.inst.Demands[vi]
	n := s.n
	var c float64
	for k, fr := range bs.assign {
		col := s.costT[int(d.Js[k])*n : (int(d.Js[k])+1)*n]
		coef := d.SizeGB * d.Agg[k]
		for _, f := range fr {
			c += coef * col[f.I] * f.V
		}
	}
	if s.inst.UpdateWeight != 0 {
		for _, f := range bs.open {
			c += s.inst.PlacementCost(vi, int(f.I)) * f.V
		}
	}
	return c
}

// maxCouplingViol returns δ_c(z) = max_r (act_r/b_r − 1), and the value of
// r_0(z) = obj/B − 1.
func (s *solver) maxCouplingViol() (float64, float64) {
	dc := math.Inf(-1)
	for r := 0; r < s.rows; r++ {
		if v := s.act[r]/s.b[r] - 1; v > dc {
			dc = v
		}
	}
	return dc, s.obj/s.bObj - 1
}

func expClamp(x float64) float64 {
	if x > lineExpCap {
		x = lineExpCap
	}
	if x < -lineExpCap {
		return 0
	}
	return math.Exp(x)
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
// activities (used by the rounding pass between videos; link rows keep their
// chunk-frozen values).
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

// computePathDuals brings pathDualT in sync with q:
// pathDualT[(t*n+j)*n+i] = Σ_{l ∈ P_ij} q[link(l,t)].
//
// Only the link rows whose dual moved beyond pdRelTol push their delta into
// the affected (i,j) pairs via the topology's reverse incidence lists; a
// periodic full rebuild (syncPathDuals), byte-identical to summing along
// each path, bounds the drift.
func (s *solver) computePathDuals(q []float64) {
	if s.T == 0 {
		return
	}
	if !s.pdInit || s.pdSince >= pdRebuildEvery {
		s.syncPathDuals(q)
		return
	}
	// First sweep: count moved link rows; a dense refresh rebuilds instead.
	moved := 0
	for t := 0; t < s.T; t++ {
		base := s.n + t*s.L
		for l := 0; l < s.L; l++ {
			r := base + l
			if dualMoved(q[r], s.qPrev[r]) {
				moved++
			}
		}
	}
	if moved*4 > s.L*s.T {
		s.syncPathDuals(q)
		return
	}
	n := s.n
	for t := 0; t < s.T; t++ {
		base := s.n + t*s.L
		tn := t * n
		for l := 0; l < s.L; l++ {
			r := base + l
			if !dualMoved(q[r], s.qPrev[r]) {
				continue
			}
			dq := q[r] - s.qPrev[r]
			for _, p := range s.inst.G.LinkPairs(l) {
				i, j := int(p)/n, int(p)%n
				s.pathDualT[(tn+j)*n+i] += dq
			}
			s.qPrev[r] = q[r]
		}
	}
	s.pdSince++
}

// dualMoved reports whether a link dual changed beyond the relative
// incremental-pricing tolerance.
func dualMoved(now, prev float64) bool {
	d := now - prev
	if d < 0 {
		d = -d
	}
	ref := prev
	if ref < 0 {
		ref = -ref
	}
	return d > pdRelTol*ref
}

// syncPathDuals performs a full rebuild and records q as the new baseline.
func (s *solver) syncPathDuals(q []float64) {
	s.rebuildPathDuals(q)
	copy(s.qPrev, q)
	s.pdInit = true
	s.pdSince = 0
}

// rebuildPathDuals recomputes every pathDualT entry from scratch, summing
// q along each CSR path in link order.
//
// Every entry is an independent sum over its own path's links, so the table
// partitions freely: the rebuild fans (t,i) rows out to the pool when the
// table is large enough to amortize the dispatch, and the result is
// bitwise-identical to the sequential sweep at any worker count.
func (s *solver) rebuildPathDuals(q []float64) {
	if s.pdParallel {
		s.pdRebuildQ = q
		if err := s.pool.Run(s.ctx, s.T*s.n, s.pdRowFn); err == nil {
			s.pdRebuildQ = nil
			return
		}
		// Pre-cancelled dispatch: fall through to the sequential rebuild so
		// the table is never left stale for the caller's final report.
		s.pdRebuildQ = nil
	}
	s.rebuildPathDualRows(q, 0, s.T*s.n)
}

// rebuildPathDualRows rebuilds the (t,i) rows in [lo, hi) of the flattened
// t·n row space. Both the sequential rebuild and each parallel range call
// this body, so the per-entry arithmetic is shared by construction.
func (s *solver) rebuildPathDualRows(q []float64, lo, hi int) {
	n := s.n
	links, off := s.inst.G.PathCSR()
	for row := lo; row < hi; row++ {
		t, i := row/n, row%n
		base := s.n + t*s.L
		tn := t * n
		in := i * n
		for j := 0; j < n; j++ {
			if i == j {
				s.pathDualT[(tn+j)*n+i] = 0
				continue
			}
			var sum float64
			for _, l := range links[off[in+j]:off[in+j+1]] {
				sum += q[base+int(l)]
			}
			s.pathDualT[(tn+j)*n+i] = sum
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

// initRun prepares the per-run state (pass permutation, chunk buffers, the
// chunk fan-out closure) so that a steady-state descent pass performs no
// allocations: every buffer it touches is created or capacity-bounded here.
func (s *solver) initRun() {
	o := &s.opts
	numBlocks := len(s.sol)
	s.gammaLnM1 = o.Gamma * math.Log(float64(s.rows)+1)
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
}

// run executes Algorithm 1's main loop and returns the fractional result.
// ctx is observed at chunk boundaries: on cancellation the loop stops
// before the next fan-out and the current point is returned as-is.
func (s *solver) run(ctx context.Context) *Result {
	s.ctx = ctx
	lpStart := time.Now()
	s.runStart = lpStart
	o := s.opts
	s.initDescent()

	var res *Result
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
			s.recordPass(pass)
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

		// Lower-bound pass (steps 14-15) with smoothed duals. LR(λ) is not
		// scale-invariant in λ even though the block *directions* are, so a
		// short adaptive search over multiplicative scalings of the dual
		// vector is run each time; the best scale is carried to the next
		// pass. This is one of the update-mechanism tweaks the paper alludes
		// to in the Appendix.
		if pass%o.LBEvery == 0 {
			s.computeDuals(s.q)
			if !s.qBarSet {
				copy(s.qBar, s.q)
				s.qBarSet = true
			} else {
				for r := range s.qBar {
					s.qBar[r] = o.Rho*s.qBar[r] + (1-o.Rho)*s.q[r]
				}
			}
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
					s.qTmp[r] = scale * s.qBar[r]
				}
				if lr := s.lagrangianBound(s.qTmp); lr > bestLR {
					bestLR, bestScale = lr, scale
				}
			}
			s.lbScale = bestScale
			if bestLR > s.lb+1e-12*math.Abs(s.lb) {
				s.lb = bestLR
				s.lbStall = 0
				for r := range s.lbDuals {
					s.lbDuals[r] = bestScale * s.qBar[r]
				}
			} else {
				s.lbStall++
			}
			// When the potential-derived duals stop improving the bound,
			// polish the dual vector directly with subgradient ascent.
			if s.lbStall >= 3 {
				s.polishLB()
				s.lbStall = 0
			}
			s.retargetB()
			if s.done(o.Epsilon) {
				s.recordPass(pass)
				break
			}
		}

		if o.OnPass != nil {
			dc, _ := s.maxCouplingViol()
			o.OnPass(PassInfo{
				Pass: pass, Objective: s.obj, LowerBound: s.lb,
				MaxViol: dc, Delta: s.delta, UpperBound: s.ub,
			})
		}
		s.recordPass(pass)
	}
	if pass > o.MaxPasses {
		pass = o.MaxPasses
	}

	converged := s.done(o.Epsilon)
	s.lpDelta = s.delta // the δ the descent ended at, before rounding retunes
	// Prefer the incumbent; fall back to the current point.
	if s.haveUB {
		s.restoreBest()
		s.recomputeState()
	}
	s.stats.LPTime = time.Since(lpStart)
	s.opts.Recorder.RecordSpan(s.opts.TraceStream, "descent", s.stats.LPTime)
	res = s.buildResult(pass, converged)
	return res
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

func (s *solver) buildResult(passes int, converged bool) *Result {
	out := mip.NewSolution(s.inst)
	for vi := range s.sol {
		out.Videos[vi].Open = append([]mip.Frac(nil), s.sol[vi].open...)
		for k := range s.sol[vi].assign {
			out.Videos[vi].Assign[k] = append([]mip.Frac(nil), s.sol[vi].assign[k]...)
		}
	}
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

func (s *solver) snapshotBest() {
	if s.best == nil {
		s.best = make([]blockSol, len(s.sol))
	}
	for vi := range s.sol {
		src := &s.sol[vi]
		dst := &s.best[vi]
		dst.open = append(dst.open[:0], src.open...)
		if dst.assign == nil {
			dst.assign = make([][]mip.Frac, len(src.assign))
		}
		for k := range src.assign {
			dst.assign[k] = append(dst.assign[k][:0], src.assign[k]...)
		}
	}
}

func (s *solver) restoreBest() {
	for vi := range s.best {
		src := &s.best[vi]
		dst := &s.sol[vi]
		dst.open = append(dst.open[:0], src.open...)
		for k := range src.assign {
			dst.assign[k] = append(dst.assign[k][:0], src.assign[k]...)
		}
	}
}

// toIntSolInto converts a facility-location solution to an intSol in out,
// reusing its backing arrays and dropping opened facilities that serve no
// demand (they only consume disk).
// used is caller scratch (len ≥ every facility index in fsol.Open); it is
// left all-false on return. fsol.Open is ascending, and the filter below
// preserves order, so out.open is ascending without sorting.
func toIntSolInto(fsol *facloc.Solution, d *mip.VideoDemand, used []bool, out *intSol) {
	out.open = out.open[:0]
	if len(d.Js) == 0 {
		out.assign = out.assign[:0]
		if len(fsol.Open) > 0 {
			out.open = append(out.open, int32(fsol.Open[0]))
		}
		return
	}
	if cap(out.assign) < len(fsol.Assign) {
		out.assign = make([]int32, 0, len(fsol.Assign))
	}
	out.assign = out.assign[:len(fsol.Assign)]
	for k, i := range fsol.Assign {
		out.assign[k] = int32(i)
		used[i] = true
	}
	for _, i := range fsol.Open {
		if used[i] {
			out.open = append(out.open, int32(i))
		}
	}
	for _, i := range fsol.Assign {
		used[i] = false
	}
}

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
	for _, f := range old.open {
		s.addDelta(int(f.I), -d.SizeGB*f.V)
	}
	for k, fr := range old.assign {
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
		// Full replacement.
		old.open = old.open[:0]
		for _, i := range ns.open {
			old.open = append(old.open, mip.Frac{I: i, V: 1})
		}
		for k := range old.assign {
			old.assign[k] = append(old.assign[k][:0], mip.Frac{I: ns.assign[k], V: 1})
		}
		return
	}

	// Mix assignments per demand point; track per-office max for y.
	y := s.yBuf
	for i := range y {
		y[i] = 0
	}
	for k := range old.assign {
		s.mergeFracs(old.assign[k], ns.assign[k], tau, prune)
		// Copy the staged merge back through the row's own backing array;
		// append only allocates while a row's capacity is still growing.
		merged := append(old.assign[k][:0], s.mergeBuf...)
		old.assign[k] = merged
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
		old.open = old.open[:0]
		for i := 0; i < s.n; i++ {
			if y[i] > prune {
				old.open = append(old.open, mip.Frac{I: int32(i), V: y[i]})
			}
		}
		return
	}
	// Zero-demand video: mix the open vectors directly (Σy stays 1).
	for i := range y {
		y[i] = 0
	}
	for _, f := range old.open {
		y[f.I] += (1 - tau) * f.V
	}
	for _, i := range ns.open {
		y[i] += tau
	}
	old.open = old.open[:0]
	for i := 0; i < s.n; i++ {
		if y[i] > prune {
			old.open = append(old.open, mip.Frac{I: int32(i), V: y[i]})
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
	lr := s.reduceLBSum(numBlocks)
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
	s.reduceGrad(grad, numBlocks)
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
			v := s.lbScale * s.qBar[r]
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
