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
//  4. computes a Lagrangian lower bound LR(λ̄) from the pass's duals λ̄ using
//     per-block *dual ascent* bounds (a primal heuristic value would not be
//     a valid bound), and retargets the objective row at the new bound.
//
// Termination: the current point is ε-feasible (all coupling rows within
// 1+ε of capacity) and its objective is within 1+ε of the lower bound —
// the "within 1–2% of optimal" guarantee the paper reports.
//
// Files: epf.go holds the options, the entry points and solver set-up;
// descent.go the pass loop and the one Result a solve builds; pricing.go the
// duals and block pricing; linesearch.go the block step; bound.go the
// Lagrangian bound; reduce.go the fixed-tree reductions over blocks. Integer
// rounding (§V-D) is round.go, in this package because it reuses the live
// potential state; warm.go is the cross-solve carryover and the packed form
// of the point (WarmLP). The solver keeps one live copy of its point, which
// Result.Sol takes over at the end; every snapshot of it — the incumbent, the
// LP point rounding starts from and the next solve resumes — is made by
// packPoint and read back by loadBlock.
//
// The hot kernels run on flat structures: the topology's CSR path table,
// the instance's dense j-major cost matrix and per-demand sparse slice
// lists, and a (t,j)-major path-dual transpose, so block pricing walks
// contiguous memory. The transpose is rebuilt from the chunk's frozen duals
// before every use, and every block's local search starts from the video's
// previous open set. See DESIGN.md §15 for the layout
// and the determinism constraints the kernels honor.
//
// The schedule is dynamic: a descent chunk and a bound sweep are each one
// pool Run, whose workers claim small index ranges as they free up, and the
// reductions over their index-addressed results run over fixed leaves
// (reduce.go). No schedule reaches the numerics, so every result is
// bit-identical at any worker count (DESIGN.md §13).
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
	// ChunkSize is the number of blocks optimized against one frozen dual
	// vector. Default adaptive: videos/24, clamped to [8, 256], so a pass
	// spans at least ~24 dual refreshes.
	ChunkSize int
	// MaxPasses bounds the number of full passes. Default 300.
	MaxPasses int
	// Workers is the parallelism for block optimization. Default
	// GOMAXPROCS(0), so `go test -cpu` sweeps and GOMAXPROCS-capped
	// deployments scale the pool with the runtime instead of the raw core
	// count. Which worker solves which block changes from run to run;
	// results are bit-identical at any worker count either way.
	Workers int
	// Seed drives block shuffling. Default 1.
	Seed int64
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
	// open set, else the cold init; initial lower bound from the previous
	// row duals when the coupling-row dimensions match;
	// penalty scale from the previous descent; and facility-location warm
	// starts in both the descent and the rounding phase. The state is
	// read-only to the solve. A warm start moves the floating-point
	// trajectory, not correctness: every bound is re-derived on the new
	// instance and the usual certificates hold.
	Warm *WarmState
	// OnPass, when non-nil, is invoked after every pass with progress
	// information (used by the CLI tools for -v output).
	OnPass func(PassInfo)
	// Recorder, when non-nil, receives per-pass telemetry events and phase
	// spans (see internal/obs). A nil recorder is the
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
	if out.TraceStream == "" {
		out.TraceStream = "epf"
	}
	return out
}

// Result is the solver output.
type Result struct {
	// Sol is the best solution found. After Solve it is the final fractional
	// point (ε-feasible when Converged); after SolveInteger every y is 0/1.
	// Its rows are the solver's own, handed over when the solve ends: the
	// caller owns them, and nothing else on the Result (Warm included) shares
	// their memory.
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

// intSol is an integer block solution produced by facility location.
type intSol struct {
	open   []int32
	assign []int32
}

// workerScratch is one pool worker's reusable state: the facility-location
// solver and problem buffers (allocated once, reused across every chunk,
// pass and bound evaluation) plus lock-free stat counters. Slot w is only
// ever touched by the goroutine running worker w's ranges; the pool's
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
//     objective row when duals are materialized (dual). Prices are
//     multiplied by B/b_r, summed over paths and fed into facility-location
//     costs, so the tighter cap keeps block costs comfortably inside the
//     float64 range even after those amplifications; exp(300) ≈ 2e130
//     headroom below maxDual.
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

// gamma is the exponent factor γ in α(δ) = γ·ln(m+1)/δ. (Algorithm 1's
// other parameter, the dual smoothing weight ρ in λ̄ ← ρ·λ̄ + (1−ρ)·λ, is 0:
// the bound pass evaluates the duals of the pass it follows, unsmoothed.)
const gamma = 1.0

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

	// The point z, one block per video: the only live copy. Every snapshot of
	// it — the incumbent here, the LP point a Result carries out — is the flat
	// WarmLP form (packPoint/loadBlock, warm.go).
	sol    []mip.VideoPlacement
	best   WarmLP // the incumbent: ε-feasible point (descent), best-scored (rounding)
	haveUB bool
	bound  bounder // the bound step and its state (bound.go)

	// Shared execution runtime: one pool per solve, per-worker scratch
	// reused across all fan-outs, cancellation checked at chunk boundaries.
	ctx      context.Context
	pool     *par.Pool
	scratch  []workerScratch // one per pool worker, indexed by worker
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

	// run-loop state, fields so a steady-state pass allocates nothing
	gammaLnM1  float64
	perm       []int
	chunk      []int
	chunkSols  []intSol
	swapFn     func(a, b int)
	mergeBuf   []mip.Frac // mergeFracs staging buffer
	seedAssign []int32    // seedWarmBlock staging buffer: one office per demand office
	warmOpen   [][]int32  // per-video previous block open set (warm starts)

	// Fan-out bodies, created once; per-fan-out state flows through solver
	// fields. A descent chunk is a Run over chunk positions and a bound sweep
	// a Run over video indices; the pool's workers claim ranges of either as
	// they free up. Block results are index-addressed and reduced in
	// chunk/video order on the driver goroutine, so no schedule changes
	// numeric output.
	chunkFn    func(w, lo, hi int)
	lbFn       func(w, lo, hi int)
	lbQ        []float64 // frozen duals for the current bound fan-out
	lbWantGrad bool
	lbAdjust   bool // the fan-out adjusts each block's duals (bounder.certify)

	// Deterministic parallel-reduction state (reduce.go). Leaves are fixed
	// spans of video-index space whose boundaries depend only on the catalog
	// size, so the reduction tree is identical at any worker count; a
	// single-leaf catalog's tree is the flat sequential sum.
	leafAct     []float64 // per-leaf partial activities, numLeaves×rows flat
	leafObj     []float64 // per-leaf partial objective sums
	leafSum     []float64 // per-leaf partial Lagrangian-term sums
	leafGrad    []float64 // per-leaf partial subgradients (lazy, polish only)
	leafRun     func(w, lo, hi int)
	leafFn      func(li, lo, hi int) // the leaf body leafRun applies
	stateLeafFn func(li, lo, hi int)
	lbSumLeafFn func(li, lo, hi int)
	gradLeafFn  func(li, lo, hi int)

	// Rounding state (round.go): the candidate block solution and the polish
	// passes' visiting order. The two seeds share one incumbent (roundBest,
	// its point in best); scratchBest is the best score the from-scratch
	// attempt reached, which over the bound is the reference the next solve's
	// resume is measured against (roundRef). While resuming is set the polish
	// loop is working on the carried placement: it seeds each local search
	// from the block itself (seedBuf) and leaves warmOpen alone.
	roundSol    intSol
	polishOrder []int
	roundBest   float64
	scratchBest float64
	roundRef    float64
	resuming    bool
	seedBuf     []int32

	// integerStepImproves scratch (round.go): per-row usage of the current
	// and the candidate block, and the rows either side touched (each side
	// lists its own, so a row can appear twice before the union is taken).
	stepUse  [2][]float64
	stepRows []int32

	// Cross-period warm-start state (Options.Warm / Result.Warm).
	warmRound bool    // rounding-phase facloc solves seed from warmOpen
	lpDelta   float64 // δ at the end of the LP descent (exported hint)
}

func (s *solver) rowDisk(i int) int    { return i }
func (s *solver) rowLink(l, t int) int { return s.n + t*s.L + l }

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
	passes, converged := s.run(ctx)
	res := s.buildResult(passes, converged)
	res.Warm = s.exportWarm(res, s.packPoint(&WarmLP{}))
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
	passes, converged := s.run(ctx)
	lp := s.packPoint(&WarmLP{}) // rounding overwrites the live point
	s.round(lp)
	res := s.buildResult(passes, converged)
	res.Rounded = true
	res.Warm = s.exportWarm(res, lp)
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
	s.stepRows = make([]int32, 0, 2*s.rows)
	s.yBuf = make([]float64, s.n)
	s.lsDelta = make([]float64, s.rows)
	s.lsAct = make([]float64, s.rows)
	s.lsB = make([]float64, s.rows)
	s.lsDB = make([]float64, s.rows)
	s.q = make([]float64, s.rows)
	s.mergeBuf = make([]mip.Frac, 0, s.n+1)
	s.seedAssign = make([]int32, 0, s.n)
	// The initial bound (LowerBoundNoNetwork) is the Lagrangian value at
	// λ = 0, so the zero vector is its certificate.
	s.bound = bounder{s: s, scale: 1, qTmp: make([]float64, s.rows), duals: make([]float64, s.rows)}
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
	s.ctx = context.Background()
	s.pool = par.New(o.Workers)
	s.scratch = make([]workerScratch, s.pool.Workers())
	s.lbBuf = make([]float64, len(inst.Demands))
	s.initBound()
	s.initReduce()
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

// mergeStats folds the per-worker scratch counters into s.stats. Totals are
// recomputed from scratch (the counters are cumulative) so it can run again
// after the rounding phase without double counting.
func (s *solver) mergeStats() {
	s.stats.Workers = s.pool.Workers()
	s.stats.BlocksOptimized, s.stats.LBBlockSolves = 0, 0
	s.stats.WarmStartTries, s.stats.WarmStartHits = 0, 0
	for i := range s.scratch {
		ws := &s.scratch[i]
		s.stats.BlocksOptimized += ws.blocks
		s.stats.LBBlockSolves += ws.lbBlocks
		s.stats.WarmStartTries += ws.fs.WarmTries
		s.stats.WarmStartHits += ws.fs.WarmHits
	}
}

// initSolution places one copy of each video at its highest-demand office
// and serves everything from there, then computes activities from scratch.
// Under Options.Warm each video instead starts as far down the warm ladder
// as the instance allows: its block of the carried LP point, else its
// previous open set, else the cold init (see WarmState). The resumed rows of
// one solve are carved from a single arena.
func (s *solver) initSolution() {
	s.sol = make([]mip.VideoPlacement, len(s.inst.Demands))
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
