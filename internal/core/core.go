// Package core wires the substrates into the paper's operational pipeline:
// estimate demand from request history (§VI-A), solve the placement MIP with
// the EPF decomposition plus rounding (§V), push the placement and routing
// distribution into the trace simulator with a small complementary LRU cache
// (§VI-A), and re-place periodically (§VI-C). It also provides the baseline
// schemes the paper compares against: Random+LRU, Random+LFU, Top-K+LRU and
// LRU with regional origin servers.
package core

import (
	"context"
	"fmt"

	"vodplace/internal/cache"
	"vodplace/internal/catalog"
	"vodplace/internal/demand"
	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/obs"
	"vodplace/internal/par"
	"vodplace/internal/sim"
	"vodplace/internal/topology"
	"vodplace/internal/verify"
	"vodplace/internal/workload"
)

// System is a deployed VoD footprint: the backbone, the library, and the
// per-office disk and per-link bandwidth budgets.
type System struct {
	G           *topology.Graph
	Lib         *catalog.Library
	DiskGB      []float64
	LinkCapMbps []float64
}

// evalFromDay is the first day every scheme's reported metrics count:
// §VII-B warms the system up with the first nine days.
const evalFromDay = 9

// mipSlices is |T|, the number of peak-window link constraints of the MIP
// scheme's instances.
const mipSlices = 2

// topKRankDays is the popularity-ranking window of the Top-K baseline: the
// K most requested videos of the trace's first week.
const topKRankDays = 7

// MIPOptions configures the MIP-based scheme.
type MIPOptions struct {
	// UpdateEveryDays is the re-placement period. Default 7 (§VI-C).
	UpdateEveryDays int
	// CacheFraction is the share of each office's disk reserved for the
	// complementary LRU cache. Default 0.05 (§VII-B); set negative for 0.
	CacheFraction float64
	// Method is the demand-estimation method. Default History.
	Method demand.Method
	// WindowSec is the peak-window size. Default 3600.
	WindowSec int64
	// UpdateWeight is w in objective (11): the cost of migrating copies.
	UpdateWeight float64
	// Warm threads each period's final solver state into the next period's
	// solve (epf.Options.Warm ← previous epf.Result.Warm): initial point,
	// lower-bound duals, penalty scale and facility-location seeds all carry
	// over, keyed by stable video IDs so catalog churn falls back per video
	// to the cold init. Successive daily instances differ only marginally,
	// so warm solves converge in a fraction of the cold pass count. Opt-in
	// because it moves every later period's floating-point trajectory (never
	// correctness: every warm solve's bound is re-certified on its own
	// instance). The first period always runs cold.
	Warm bool
	// Solver configures the EPF solver.
	Solver epf.Options
	// Verify runs the independent certificate auditor (internal/verify) on
	// every per-period solution and fails the run on any violated claim.
	Verify bool
	// Recorder receives per-pass solver events (one stream per placement
	// period), verify spans and per-bin simulator events. Defaults to
	// Solver.Recorder so callers that already thread a recorder through the
	// solver options get the pipeline events too.
	Recorder *obs.Recorder
}

// mipScheme names RunMIP's solver and simulator event streams.
const mipScheme = "mip"

func (o *MIPOptions) withDefaults() MIPOptions {
	out := *o
	if out.UpdateEveryDays <= 0 {
		out.UpdateEveryDays = 7
	}
	if out.CacheFraction == 0 {
		out.CacheFraction = 0.05
	}
	if out.CacheFraction < 0 {
		out.CacheFraction = 0
	}
	if out.WindowSec <= 0 {
		out.WindowSec = 3600
	}
	if out.Recorder == nil {
		out.Recorder = out.Solver.Recorder
	}
	return out
}

// Plan is one solved placement period.
type Plan struct {
	Day      int
	Instance *mip.Instance
	Result   *epf.Result
	Pinned   [][]int
	XDist    map[workload.JM][]mip.Frac
}

// MIPRun is the outcome of the MIP scheme over a trace.
type MIPRun struct {
	Sim   *sim.Result
	Plans []*Plan
}

// RunMIP executes the full §VII-B pipeline over the trace.
func (s *System) RunMIP(tr *workload.Trace, opts MIPOptions) (*MIPRun, error) {
	return s.RunMIPContext(context.Background(), tr, opts)
}

// RunMIPContext is RunMIP with cooperative cancellation: ctx is passed to
// every per-period solve and checked between periods, so a long multi-week
// pipeline stops within one solver chunk of a cancellation.
func (s *System) RunMIPContext(ctx context.Context, tr *workload.Trace, opts MIPOptions) (*MIPRun, error) {
	o := opts.withDefaults()
	n := s.G.NumNodes()
	if len(s.DiskGB) != n || len(s.LinkCapMbps) != s.G.NumLinks() {
		return nil, fmt.Errorf("core: system capacities do not match the graph")
	}

	pinnedDisk := make([]float64, n)
	cacheGB := make([]float64, n)
	for i := range pinnedDisk {
		pinnedDisk[i] = s.DiskGB[i] * (1 - o.CacheFraction)
		cacheGB[i] = s.DiskGB[i] * o.CacheFraction
	}

	builder := &demand.Builder{
		G: s.G, Lib: s.Lib, DiskGB: pinnedDisk, LinkCapMbps: s.LinkCapMbps,
		Cfg: demand.Config{
			Method:      o.Method,
			HorizonDays: o.UpdateEveryDays,
			Slices:      mipSlices,
			WindowSec:   o.WindowSec,
		},
	}

	// The first placement takes effect once a full history window lies
	// behind it.
	var days []int
	for day := demand.HistoryDays; day < tr.Days; day += o.UpdateEveryDays {
		days = append(days, day)
	}

	// Instance building is pipelined one period ahead of the solves: the
	// producer goroutine builds day d+1's instance while day d solves.
	// Builder.Instance reads only the trace, library and built graph (all
	// immutable here), so the overlap is race-free, and instances are
	// produced strictly in day order, so numerics are identical to the old
	// serial loop. The per-period mutations (update objective below) happen
	// on this goroutine after the handoff.
	pre := par.NewPrefetch(ctx, len(days), func(i int) (*mip.Instance, error) {
		return builder.Instance(tr, days[i])
	})
	defer pre.Close()

	run := &MIPRun{}
	var prev *mip.Solution
	var warm *epf.WarmState
	for _, day := range days {
		inst, err := pre.Next()
		if err != nil {
			return nil, fmt.Errorf("core: building instance for day %d: %w", day, err)
		}
		if o.UpdateWeight > 0 && prev != nil {
			inst.UpdateWeight = o.UpdateWeight
			inst.Origin = mip.Origins(inst, prev)
		}
		// Each placement period traces as its own stream, so pass series from
		// successive solves never interleave in one stream.
		sopts := o.Solver
		sopts.Recorder = o.Recorder
		sopts.TraceStream = fmt.Sprintf("%s.day%02d", mipScheme, day)
		if o.Warm {
			sopts.Warm = warm // nil on the first period: cold start
		}
		res, err := epf.SolveIntegerContext(ctx, inst, sopts)
		if err != nil {
			return nil, fmt.Errorf("core: solving day %d: %w", day, err)
		}
		if o.Warm {
			warm = res.Warm
		}
		recordPeriod(o.Recorder, sopts.TraceStream, inst, res)
		if o.Verify {
			sp := o.Recorder.StartSpan(sopts.TraceStream, "verify")
			rep := verify.Audit(inst, res)
			sp.End()
			if !rep.Ok() {
				// Flush before failing: the trace up to the rejected solve is
				// exactly what the postmortem needs.
				o.Recorder.Flush() //nolint:errcheck // already failing with the audit error
				return nil, fmt.Errorf("core: day %d: %w", day, rep.Err())
			}
		}
		plan := &Plan{
			Day:      day,
			Instance: inst,
			Result:   res,
			Pinned:   sim.PinnedFromSolution(inst, res.Sol),
			XDist:    sim.XDistFromSolution(inst, res.Sol),
		}
		run.Plans = append(run.Plans, plan)
		prev = res.Sol
	}
	if len(run.Plans) == 0 {
		return nil, fmt.Errorf("core: trace too short for any placement (days=%d, first placement day=%d)", tr.Days, demand.HistoryDays)
	}

	cfg := sim.Config{
		G: s.G, Lib: s.Lib,
		Pinned:         run.Plans[0].Pinned,
		XDist:          run.Plans[0].XDist,
		CacheGB:        cacheGB,
		CachePolicy:    cache.LRU,
		Seed:           o.Solver.Seed,
		MetricsFromSec: evalFromDay * workload.SecondsPerDay,
		Recorder:       o.Recorder,
		Scheme:         mipScheme,
		LinkCapMbps:    s.LinkCapMbps,
	}
	if o.CacheFraction == 0 {
		cfg.CacheGB = nil
	}
	for _, plan := range run.Plans[1:] {
		cfg.Updates = append(cfg.Updates, sim.Update{
			AtSec:  int64(plan.Day) * workload.SecondsPerDay,
			Pinned: plan.Pinned,
			XDist:  plan.XDist,
		})
	}
	simRes, err := sim.Run(cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("core: simulating: %w", err)
	}
	run.Sim = simRes
	return run, nil
}

// recordPeriod publishes one placement period's convergence telemetry: how
// many passes the solve took and what fraction of videos reused carried-over
// warm state (zero on cold solves), as gauges keyed by the period's trace
// stream so a /metrics scrape shows per-day trends.
func recordPeriod(r *obs.Recorder, stream string, inst *mip.Instance, res *epf.Result) {
	if !r.Enabled() {
		return
	}
	frac := 0.0
	if nv := len(inst.Demands); nv > 0 {
		frac = float64(res.Stats.WarmVideos) / float64(nv)
	}
	m := r.Metrics()
	m.Gauge(stream + ".passes").Set(float64(res.Stats.Passes))
	m.Gauge(stream + ".warm_frac").Set(frac)
}

// BaselineOptions configures the caching baselines.
type BaselineOptions struct {
	// Policy is the replacement policy (LRU or LFU).
	Policy cache.Policy
	// TopK > 0 replicates the K most popular videos (ranked over the first
	// topKRankDays) at every office before random assignment of the rest.
	TopK int
	// Seed drives the random assignment.
	Seed int64
	// Recorder receives per-bin simulator events; Scheme names the stream
	// (default "baseline").
	Recorder *obs.Recorder
	Scheme   string
}

func (o *BaselineOptions) withDefaults() BaselineOptions {
	out := *o
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Scheme == "" {
		out.Scheme = "baseline"
	}
	return out
}

// RunBaseline plays a Random+LRU / Random+LFU / Top-K+LRU baseline: one
// random copy of every video (plus the Top-K head everywhere), the rest of
// each office's disk as a cache.
func (s *System) RunBaseline(tr *workload.Trace, opts BaselineOptions) (*sim.Result, error) {
	o := opts.withDefaults()
	n := s.G.NumNodes()
	var pinned [][]int
	if o.TopK > 0 {
		ranked := sim.RankByPopularity(tr, 0, topKRankDays*workload.SecondsPerDay)
		pinned = sim.TopKPlacement(s.Lib, ranked, o.TopK, n, o.Seed)
	} else {
		pinned = sim.RandomPlacement(s.Lib, n, o.Seed)
	}
	cfg := sim.Config{
		G: s.G, Lib: s.Lib,
		Pinned:         pinned,
		CacheGB:        sim.CacheRemainder(s.Lib, pinned, s.DiskGB),
		CachePolicy:    o.Policy,
		Seed:           o.Seed,
		MetricsFromSec: evalFromDay * workload.SecondsPerDay,
		Recorder:       o.Recorder,
		Scheme:         o.Scheme,
		LinkCapMbps:    s.LinkCapMbps,
	}
	return sim.Run(cfg, tr)
}

// originRegions is the number of regional origin servers in the Table II
// comparison.
const originRegions = 4

// RunOriginLRU plays the Table II comparison: originRegions regional origin
// servers hold the whole library, every office's disk is an LRU cache, and
// misses fetch from the region's origin.
func (s *System) RunOriginLRU(tr *workload.Trace) (*sim.Result, error) {
	cfg := sim.Config{
		G: s.G, Lib: s.Lib,
		Origins:        sim.RegionOrigins(s.G, originRegions),
		CacheGB:        append([]float64(nil), s.DiskGB...),
		CachePolicy:    cache.LRU,
		MetricsFromSec: evalFromDay * workload.SecondsPerDay,
	}
	return sim.Run(cfg, tr)
}

// UniformDisk returns n equal disk budgets totalling factor × library size.
func UniformDisk(lib *catalog.Library, n int, factor float64) []float64 {
	out := make([]float64, n)
	per := lib.TotalSizeGB() * factor / float64(n)
	for i := range out {
		out[i] = per
	}
	return out
}

// HeterogeneousDisk returns disk budgets totalling factor × library size,
// with large offices getting 4×, medium 2× and small 1× shares — the
// Fig. 11 "nonuniform VHOs" layout (12 large / 19 medium / 24 small at 55
// offices; proportional otherwise).
func HeterogeneousDisk(lib *catalog.Library, n int, factor float64) []float64 {
	classes := workload.SizeClasses(n)
	weights := make([]float64, n)
	var total float64
	for i, c := range classes {
		switch c {
		case workload.LargeVHO:
			weights[i] = 4
		case workload.MediumVHO:
			weights[i] = 2
		default:
			weights[i] = 1
		}
		total += weights[i]
	}
	budget := lib.TotalSizeGB() * factor
	out := make([]float64, n)
	for i := range out {
		out[i] = budget * weights[i] / total
	}
	return out
}

// UniformLinks returns equal capacities for every directed link.
func UniformLinks(g *topology.Graph, mbps float64) []float64 {
	out := make([]float64, g.NumLinks())
	for l := range out {
		out[l] = mbps
	}
	return out
}
