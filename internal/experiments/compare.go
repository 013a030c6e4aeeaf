package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"vodplace/internal/cache"
	"vodplace/internal/core"
	"vodplace/internal/par"
	"vodplace/internal/sim"
	"vodplace/internal/workload"
)

func init() {
	register("fig5", "Peak link bandwidth: MIP vs caching baselines (Fig. 5)", Fig5PeakBandwidth)
	register("fig6", "Aggregate transfer volume per scheme (Fig. 6)", Fig6Aggregate)
	register("fig7", "Disk usage by popularity class (Fig. 7)", Fig7DiskByPopularity)
	register("fig8", "Copies per video by demand rank (Fig. 8)", Fig8Copies)
	register("fig9", "Pure LRU cache behavior (Fig. 9)", Fig9LRUBehavior)
	register("table2", "MIP vs LRU caching with origin servers (Fig. 10 / Table II)", Table2Origin)
}

// SchemeOutcome is one scheme's measurements in the comparative runs.
type SchemeOutcome struct {
	Name string
	Sim  *sim.Result
}

// CompareResult is the Fig. 5/6 data: all four schemes on one workload.
type CompareResult struct {
	Schemes []SchemeOutcome
	// MIPRun keeps the underlying plans for the Fig. 7/8 analyses.
	MIPRun *core.MIPRun
}

// Outcome returns the named scheme.
func (r *CompareResult) Outcome(name string) *SchemeOutcome {
	for i := range r.Schemes {
		if r.Schemes[i].Name == name {
			return &r.Schemes[i]
		}
	}
	return nil
}

// CompareSchemes runs the §VII-B comparison: the MIP scheme with weekly
// updates and a 5% complementary cache, against Random+LRU, Random+LFU and
// Top-100+LRU at identical disk budgets. The four schemes fan out across a
// worker pool: they share only immutable scenario state (graph path tables,
// library, trace) and write into index-addressed slots, so the reported
// order is the fixed scheme order regardless of which scheme finishes first.
func CompareSchemes(ctx context.Context, sc *Scenario) (*CompareResult, error) {
	topK := 100
	if sc.Cfg.Videos < 1000 {
		topK = sc.Cfg.Videos / 20
	}
	var mipRun *core.MIPRun
	type scheme struct {
		name string
		run  func() (*sim.Result, error)
	}
	schemes := []scheme{
		{"mip", func() (*sim.Result, error) {
			r, err := sc.Sys.RunMIPContext(ctx, sc.Trace, sc.Cfg.mipOptions(core.MIPOptions{}))
			if err != nil {
				return nil, err
			}
			mipRun = r // read back only after the pool barrier
			return r.Sim, nil
		}},
		{"random+lru", func() (*sim.Result, error) {
			return sc.Sys.RunBaseline(sc.Trace, core.BaselineOptions{Policy: cache.LRU, Seed: sc.Cfg.Seed, Recorder: sc.Cfg.Recorder, Scheme: "random+lru"})
		}},
		{"random+lfu", func() (*sim.Result, error) {
			return sc.Sys.RunBaseline(sc.Trace, core.BaselineOptions{Policy: cache.LFU, Seed: sc.Cfg.Seed, Recorder: sc.Cfg.Recorder, Scheme: "random+lfu"})
		}},
		{fmt.Sprintf("top%d+lru", topK), func() (*sim.Result, error) {
			return sc.Sys.RunBaseline(sc.Trace, core.BaselineOptions{Policy: cache.LRU, TopK: topK, Seed: sc.Cfg.Seed, Recorder: sc.Cfg.Recorder, Scheme: fmt.Sprintf("top%d+lru", topK)})
		}},
	}
	results := make([]*sim.Result, len(schemes))
	errs := make([]error, len(schemes))
	pool := par.New(len(schemes))
	defer pool.Close()
	if err := pool.Run(ctx, len(schemes), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i], errs[i] = schemes[i].run()
		}
	}); err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("%s scheme: %w", schemes[i].name, e)
		}
	}
	out := &CompareResult{MIPRun: mipRun}
	for i := range schemes {
		out.Schemes = append(out.Schemes, SchemeOutcome{schemes[i].name, results[i]})
	}
	return out, nil
}

// Fig5PeakBandwidth prints the peak link bandwidth per scheme plus a daily
// peak series, the Fig. 5 content.
func Fig5PeakBandwidth(ctx context.Context, w io.Writer, cfg Config) error {
	sc := NewScenario(cfg)
	res, err := CompareSchemes(ctx, sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %16s\n", "scheme", "max link (Mb/s)")
	for _, s := range res.Schemes {
		fmt.Fprintf(w, "%-14s %16.0f\n", s.Name, s.Sim.MaxLinkMbps)
	}
	// Daily peak series (Fig. 5's time axis, coarsened).
	fmt.Fprintf(w, "\ndaily peak link bandwidth (Mb/s):\n%-6s", "day")
	for _, s := range res.Schemes {
		fmt.Fprintf(w, " %14s", s.Name)
	}
	fmt.Fprintln(w)
	binsPerDay := int(workload.SecondsPerDay / sim.BinSec)
	for day := 0; day < sc.Cfg.Days; day++ {
		fmt.Fprintf(w, "%-6d", day)
		for _, s := range res.Schemes {
			peak := 0.0
			for b := day * binsPerDay; b < (day+1)*binsPerDay && b < len(s.Sim.BinPeakMbps); b++ {
				if s.Sim.BinPeakMbps[b] > peak {
					peak = s.Sim.BinPeakMbps[b]
				}
			}
			fmt.Fprintf(w, " %14.0f", peak)
		}
		fmt.Fprintln(w)
	}
	mip := res.Outcome("mip").Sim.MaxLinkMbps
	lru := res.Outcome("random+lru").Sim.MaxLinkMbps
	if lru > 0 {
		fmt.Fprintf(w, "\nmip/lru peak ratio: %.2f (paper: ~0.5)\n", mip/lru)
	}
	return nil
}

// Fig6Aggregate prints total and per-day aggregate transfer volume.
func Fig6Aggregate(ctx context.Context, w io.Writer, cfg Config) error {
	sc := NewScenario(cfg)
	res, err := CompareSchemes(ctx, sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %18s %14s\n", "scheme", "total (GB x hop)", "local frac")
	for _, s := range res.Schemes {
		fmt.Fprintf(w, "%-14s %18.0f %14.3f\n", s.Name, s.Sim.TotalGBHop, s.Sim.LocalFrac)
	}
	return nil
}

// Fig7Result is the Fig. 7 data: how the placed bytes split across
// popularity classes.
type Fig7Result struct {
	HighGB, MediumGB, LowGB float64 // top-100, next 20%, rest
	TotalGB                 float64
}

// byDemand returns the first placement's video indices by decreasing
// estimated demand, and each video's copy count (Solution.Copies). Fig. 7
// and Fig. 8 both read the placement in this order.
func byDemand(run *core.MIPRun) (ranked, copies []int) {
	plan := run.Plans[0]
	demand := make([]float64, len(plan.Instance.Demands))
	ranked = make([]int, len(demand))
	for vi := range demand {
		demand[vi], ranked[vi] = plan.Instance.Demands[vi].TotalDemandGB(), vi
	}
	sort.Slice(ranked, func(a, b int) bool { return demand[ranked[a]] > demand[ranked[b]] })
	return ranked, plan.Result.Sol.Copies()
}

// Fig7Compute classifies the first placement's copies by demand rank.
func Fig7Compute(run *core.MIPRun) *Fig7Result {
	ranked, copies := byDemand(run)
	out := &Fig7Result{}
	highCut := min(100, len(ranked))
	mediumCut := min(highCut+len(ranked)*20/100, len(ranked))
	for pos, vi := range ranked {
		gb := float64(copies[vi]) * run.Plans[0].Instance.Demands[vi].SizeGB
		out.TotalGB += gb
		switch {
		case pos < highCut:
			out.HighGB += gb
		case pos < mediumCut:
			out.MediumGB += gb
		default:
			out.LowGB += gb
		}
	}
	return out
}

// Fig7DiskByPopularity prints the popularity-class disk split.
func Fig7DiskByPopularity(ctx context.Context, w io.Writer, cfg Config) error {
	sc := NewScenario(cfg)
	run, err := sc.Sys.RunMIPContext(ctx, sc.Trace, sc.Cfg.mipOptions(core.MIPOptions{}))
	if err != nil {
		return err
	}
	r := Fig7Compute(run)
	fmt.Fprintf(w, "%-22s %12s %8s\n", "class", "placed GB", "share")
	fmt.Fprintf(w, "%-22s %12.0f %7.1f%%\n", "high (top 100)", r.HighGB, 100*r.HighGB/r.TotalGB)
	fmt.Fprintf(w, "%-22s %12.0f %7.1f%%\n", "medium (next 20%)", r.MediumGB, 100*r.MediumGB/r.TotalGB)
	fmt.Fprintf(w, "%-22s %12.0f %7.1f%%\n", "unpopular (rest)", r.LowGB, 100*r.LowGB/r.TotalGB)
	return nil
}

// Fig8Result is the Fig. 8 data: copies per video ordered by demand rank.
type Fig8Result struct {
	// Copies[r] is the copy count of the r-th most demanded video.
	Copies []int
	// MultiCopy is the number of videos with ≥ 2 copies.
	MultiCopy int
}

// Fig8Compute extracts copy counts by rank from the first placement.
func Fig8Compute(run *core.MIPRun) *Fig8Result {
	ranked, copies := byDemand(run)
	out := &Fig8Result{}
	for _, vi := range ranked {
		out.Copies = append(out.Copies, copies[vi])
		if copies[vi] >= 2 {
			out.MultiCopy++
		}
	}
	return out
}

// Fig8Copies prints copy counts at sampled ranks.
func Fig8Copies(ctx context.Context, w io.Writer, cfg Config) error {
	sc := NewScenario(cfg)
	run, err := sc.Sys.RunMIPContext(ctx, sc.Trace, sc.Cfg.mipOptions(core.MIPOptions{}))
	if err != nil {
		return err
	}
	r := Fig8Compute(run)
	fmt.Fprintf(w, "%-8s %8s\n", "rank", "copies")
	for _, rank := range []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000} {
		if rank > len(r.Copies) {
			break
		}
		fmt.Fprintf(w, "%-8d %8d\n", rank, r.Copies[rank-1])
	}
	fmt.Fprintf(w, "videos with >= 2 copies: %d of %d\n", r.MultiCopy, len(r.Copies))
	n := run.Plans[0].Instance.NumVHOs()
	maxCopies := 0
	for _, c := range r.Copies {
		if c > maxCopies {
			maxCopies = c
		}
	}
	fmt.Fprintf(w, "max copies: %d of %d offices (paper: even hot videos < all offices)\n", maxCopies, n)
	return nil
}

// Fig9Result is the Fig. 9 data: behavior of a pure LRU deployment.
type Fig9Result struct {
	RemoteFrac     float64
	UncachableFrac float64
	Evictions      int
	Requests       int
}

// Fig9Compute plays a Random+LRU run (half+ of disk as cache, as §VII-B's
// LRU experiment describes) and extracts the cache pathologies.
func Fig9Compute(sc *Scenario) (*Fig9Result, error) {
	res, err := sc.Sys.RunBaseline(sc.Trace, core.BaselineOptions{Policy: cache.LRU, Seed: sc.Cfg.Seed, Recorder: sc.Cfg.Recorder, Scheme: "random+lru"})
	if err != nil {
		return nil, err
	}
	out := &Fig9Result{Evictions: res.Evictions, Requests: res.Requests}
	if res.Requests > 0 {
		out.RemoteFrac = float64(res.RemoteServed) / float64(res.Requests)
		out.UncachableFrac = float64(res.Uncachable) / float64(res.Requests)
	}
	return out, nil
}

// Fig9LRUBehavior prints the LRU pathology metrics.
func Fig9LRUBehavior(ctx context.Context, w io.Writer, cfg Config) error {
	sc := NewScenario(cfg)
	r, err := Fig9Compute(sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "requests:            %d\n", r.Requests)
	fmt.Fprintf(w, "served remotely:     %.1f%% (paper: ~60%%)\n", 100*r.RemoteFrac)
	fmt.Fprintf(w, "uncachable requests: %.1f%% (paper: ~20%%)\n", 100*r.UncachableFrac)
	fmt.Fprintf(w, "cache evictions:     %d (cycling)\n", r.Evictions)
	return nil
}

// Table2Result is the Table II data at one disk factor.
type Table2Result struct {
	DiskFactor float64
	MIPPeak    float64
	LRUPeak    float64
	MIPAggPeak float64
	LRUAggPeak float64
	MIPHitRate float64
	LRUHitRate float64
}

// Table2Compute compares the MIP scheme to LRU caching with 4 regional
// origin servers at the given disk factor.
func Table2Compute(ctx context.Context, cfg Config, diskFactor float64) (*Table2Result, error) {
	c := cfg
	c.DiskFactor = diskFactor
	sc := NewScenario(c)
	mipRun, err := sc.Sys.RunMIPContext(ctx, sc.Trace, sc.Cfg.mipOptions(core.MIPOptions{}))
	if err != nil {
		return nil, err
	}
	origin, err := sc.Sys.RunOriginLRU(sc.Trace)
	if err != nil {
		return nil, err
	}
	return &Table2Result{
		DiskFactor: diskFactor,
		MIPPeak:    mipRun.Sim.MaxLinkMbps,
		LRUPeak:    origin.MaxLinkMbps,
		MIPAggPeak: mipRun.Sim.MaxAggMbps,
		LRUAggPeak: origin.MaxAggMbps,
		MIPHitRate: mipRun.Sim.LocalFrac,
		LRUHitRate: origin.LocalFrac,
	}, nil
}

// Table2Origin prints the Table II comparison at 2x and 6x disk.
func Table2Origin(ctx context.Context, w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "%-28s %12s %12s %12s %12s\n", "", "2x MIP", "2x LRU", "6x MIP", "6x LRU")
	r2, err := Table2Compute(ctx, cfg, 2.0)
	if err != nil {
		return err
	}
	r6, err := Table2Compute(ctx, cfg, 6.0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-28s %12.0f %12.0f %12.0f %12.0f\n", "peak link b/w (Mb/s)", r2.MIPPeak, r2.LRUPeak, r6.MIPPeak, r6.LRUPeak)
	fmt.Fprintf(w, "%-28s %12.0f %12.0f %12.0f %12.0f\n", "max aggregate b/w (Mb/s)", r2.MIPAggPeak, r2.LRUAggPeak, r6.MIPAggPeak, r6.LRUAggPeak)
	fmt.Fprintf(w, "%-28s %11.0f%% %11.0f%% %11.0f%% %11.0f%%\n", "hit rate", 100*r2.MIPHitRate, 100*r2.LRUHitRate, 100*r6.MIPHitRate, 100*r6.LRUHitRate)
	return nil
}
