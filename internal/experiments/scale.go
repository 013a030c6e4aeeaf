package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"vodplace/internal/catalog"
	"vodplace/internal/core"
	"vodplace/internal/demand"
	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/simplex"
	"vodplace/internal/stats"
	"vodplace/internal/topology"
	"vodplace/internal/workload"
)

func init() {
	register("table3", "Running time and memory: EPF vs general LP (Table III)", Table3Scalability)
	register("table6", "Placement update frequency and estimation accuracy (Table VI)", Table6Updates)
	register("rounding", "Rounding optimality gap and violation (§V-D)", RoundingStats)
}

// buildScaleInstance generates a library + trace of the given size on g and
// assembles the placement instance from the first week of history.
func buildScaleInstance(g *topology.Graph, videos int, diskFactor float64, seed int64) (*mip.Instance, error) {
	lib := catalog.Generate(catalog.Config{NumVideos: videos, Weeks: 2}, seed)
	tr := workload.GenerateTrace(lib, workload.TraceConfig{
		Days: 8, NumVHOs: g.NumNodes(), RequestsPerVideoPerDay: 1,
	}, seed+1)
	b := &demand.Builder{
		G: g, Lib: lib,
		DiskGB:      core.UniformDisk(lib, g.NumNodes(), diskFactor),
		LinkCapMbps: core.UniformLinks(g, 20*float64(videos)/float64(g.NumNodes())),
		Cfg:         demand.Config{HorizonDays: 1},
	}
	return b.Instance(tr, 7)
}

// measure runs fn and returns the wall time and the cumulative heap
// allocation it caused. Allocation volume tracks working-set shape (a dense
// tableau allocates quadratically, the decomposition linearly), which is the
// Table III comparison that matters; resident peaks would need an external
// profiler.
func measure(fn func()) (time.Duration, float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return elapsed, allocMB
}

// fastest runs fn three times under measure and returns the shortest wall
// time with that run's allocation: the rule make bench-json times a stanza
// by. An LP-baseline row divides two times of a few milliseconds, and one
// run of each side reads as much scheduler noise as code.
func fastest(fn func()) (time.Duration, float64) {
	best, alloc := measure(fn)
	for range 2 {
		if t, a := measure(fn); t < best {
			best, alloc = t, a
		}
	}
	return best, alloc
}

// Table3Row is one library size's aggregate measurements.
type Table3Row struct {
	Videos     int
	EPFSeconds float64
	EPFAllocMB float64
	LPSeconds  float64 // 0 when the baseline was not run at this size
	LPAllocMB  float64
	Speedup    float64
}

// Table3Compute measures the EPF solver across library sizes (geometric mean
// over three networks × two disk sizes, as the paper aggregates) and the
// dense-simplex baseline on the sizes it can handle.
func Table3Compute(ctx context.Context, cfg Config, epfSizes, lpSizes []int) ([]Table3Row, error) {
	c := cfg.withDefaults()
	nets := []*topology.Graph{topology.Tiscali(), topology.Sprint(), topology.Ebone()}
	rows := make(map[int]*Table3Row)
	rowFor := func(videos int) *Table3Row {
		if r, ok := rows[videos]; ok {
			return r
		}
		r := &Table3Row{Videos: videos}
		rows[videos] = r
		return r
	}

	for _, videos := range epfSizes {
		var times, allocs []float64
		for _, g := range nets {
			for _, diskFactor := range []float64{2.0, 0.2 * float64(g.NumNodes())} {
				inst, err := buildScaleInstance(g, videos, diskFactor, c.Seed)
				if err != nil {
					return nil, fmt.Errorf("table3: building %d-video instance: %w", videos, err)
				}
				elapsed, allocMB := measure(func() {
					res, err := epf.SolveIntegerContext(ctx, inst, c.solver())
					if err != nil {
						panic(err)
					}
					c.mustAudit(inst, res)
				})
				times = append(times, elapsed.Seconds())
				allocs = append(allocs, allocMB)
			}
		}
		r := rowFor(videos)
		r.EPFSeconds = stats.GeoMean(times)
		r.EPFAllocMB = stats.GeoMean(allocs)
	}

	// The dense-simplex baseline can only handle small instances (the same
	// wall CPLEX hits at 20K videos in the paper); run it on a small graph.
	lpNet := topology.Random(6, 1.0, c.Seed)
	for _, videos := range lpSizes {
		inst, err := buildScaleInstance(lpNet, videos, 3.0, c.Seed)
		if err != nil {
			return nil, err
		}
		// EPF on the identical instance, for the speedup column; each side
		// is its fastest of three runs.
		epfT, _ := fastest(func() {
			res, err := epf.SolveIntegerContext(ctx, inst, c.solver())
			if err != nil {
				panic(err)
			}
			c.mustAudit(inst, res)
		})
		lpT, lpAlloc := fastest(func() {
			lp, _, err := simplex.BuildPlacementLP(inst)
			if err != nil {
				panic(err)
			}
			if res, err := simplex.Solve(lp); err != nil || res.Status != simplex.Optimal {
				panic(fmt.Sprintf("lp baseline: %v/%v", res.Status, err))
			}
		})
		r := rowFor(videos)
		r.LPSeconds = lpT.Seconds()
		r.LPAllocMB = lpAlloc
		if epfT.Seconds() > 0 {
			r.Speedup = lpT.Seconds() / epfT.Seconds()
		}
		if r.EPFSeconds == 0 {
			r.EPFSeconds = epfT.Seconds()
		}
	}

	var out []Table3Row
	for _, videos := range append(append([]int(nil), lpSizes...), epfSizes...) {
		if r, ok := rows[videos]; ok {
			out = append(out, *r)
			delete(rows, videos)
		}
	}
	return out, nil
}

// Table3Scalability prints the scalability table.
func Table3Scalability(ctx context.Context, w io.Writer, cfg Config) error {
	c := cfg.withDefaults()
	epfSizes := []int{c.Videos / 2, c.Videos, c.Videos * 2, c.Videos * 5}
	lpSizes := []int{20, 40, 80}
	if c.Quick {
		epfSizes = []int{c.Videos / 2, c.Videos}
		lpSizes = []int{10, 20}
	}
	rows, err := Table3Compute(ctx, cfg, epfSizes, lpSizes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %10s\n",
		"videos", "LP time(s)", "LP alloc MB", "EPF time(s)", "EPF allocMB", "speedup")
	for _, r := range rows {
		lpT, lpA, sp := "-", "-", "-"
		if r.LPSeconds > 0 {
			lpT = fmt.Sprintf("%.2f", r.LPSeconds)
			lpA = fmt.Sprintf("%.1f", r.LPAllocMB)
			sp = fmt.Sprintf("%.0fx", r.Speedup)
		}
		fmt.Fprintf(w, "%-10d %12s %12s %12.2f %12.1f %10s\n",
			r.Videos, lpT, lpA, r.EPFSeconds, r.EPFAllocMB, sp)
	}
	fmt.Fprintln(w, "(LP baseline runs on a 6-office network; larger instances exceed the dense tableau, as CPLEX did at 20K+ in the paper)")
	return nil
}

// Table6Row is one update policy's outcome.
type Table6Row struct {
	Policy      string
	MaxLinkMbps float64
	TotalGBHop  float64
	LocalFrac   float64
	Migrated    int
}

// Table6Compute reproduces Table VI: update frequency and estimation
// accuracy, without a complementary cache.
func Table6Compute(ctx context.Context, cfg Config) ([]Table6Row, error) {
	sc := NewScenario(cfg)
	type variant struct {
		name string
		opts core.MIPOptions
	}
	variants := []variant{
		{"once in 2 weeks", core.MIPOptions{UpdateEveryDays: 14, CacheFraction: -1}},
		{"weekly", core.MIPOptions{UpdateEveryDays: 7, CacheFraction: -1}},
		{"daily", core.MIPOptions{UpdateEveryDays: 1, CacheFraction: -1}},
		{"perfect estimate", core.MIPOptions{UpdateEveryDays: 7, CacheFraction: -1, Method: demand.Perfect}},
		{"no estimate", core.MIPOptions{UpdateEveryDays: 7, CacheFraction: -1, Method: demand.None}},
	}
	var rows []Table6Row
	for _, v := range variants {
		run, err := sc.Sys.RunMIPContext(ctx, sc.Trace, sc.Cfg.mipOptions(v.opts))
		if err != nil {
			return nil, fmt.Errorf("table6 %s: %w", v.name, err)
		}
		rows = append(rows, Table6Row{
			Policy:      v.name,
			MaxLinkMbps: run.Sim.MaxLinkMbps,
			TotalGBHop:  run.Sim.TotalGBHop,
			LocalFrac:   run.Sim.LocalFrac,
			Migrated:    run.Sim.MigratedVideos,
		})
	}
	return rows, nil
}

// Table6Updates prints the update-frequency table.
func Table6Updates(ctx context.Context, w io.Writer, cfg Config) error {
	rows, err := Table6Compute(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %14s %16s %14s %10s\n", "policy", "max bw (Mb/s)", "total GB x hop", "locally served", "migrated")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %14.0f %16.0f %14.3f %10d\n", r.Policy, r.MaxLinkMbps, r.TotalGBHop, r.LocalFrac, r.Migrated)
	}
	return nil
}

// RoundingRow is one library size's rounding quality.
type RoundingRow struct {
	Videos        int
	FractionalGap float64
	RoundedGap    float64
	Violation     float64
}

// RoundingCompute reproduces the §V-D rounding report: optimality gap (vs
// the Lagrangian bound) and constraint violation before and after rounding,
// per library size.
func RoundingCompute(ctx context.Context, cfg Config, sizes []int) ([]RoundingRow, error) {
	c := cfg.withDefaults()
	g := topology.Sprint()
	var rows []RoundingRow
	for _, videos := range sizes {
		inst, err := buildScaleInstance(g, videos, 2.0, c.Seed)
		if err != nil {
			return nil, err
		}
		frac, err := epf.SolveContext(ctx, inst, c.solver())
		if err != nil {
			return nil, err
		}
		if err := c.audit(inst, frac); err != nil {
			return nil, err
		}
		rounded, err := epf.SolveIntegerContext(ctx, inst, c.solver())
		if err != nil {
			return nil, err
		}
		if err := c.audit(inst, rounded); err != nil {
			return nil, err
		}
		rows = append(rows, RoundingRow{
			Videos:        videos,
			FractionalGap: frac.Gap,
			RoundedGap:    rounded.Gap,
			Violation:     rounded.Violation.Max(),
		})
	}
	return rows, nil
}

// RoundingStats prints the rounding-quality report.
func RoundingStats(ctx context.Context, w io.Writer, cfg Config) error {
	c := cfg.withDefaults()
	sizes := []int{c.Videos / 4, c.Videos, c.Videos * 4}
	if c.Quick {
		sizes = []int{c.Videos / 2, c.Videos}
	}
	rows, err := RoundingCompute(ctx, cfg, sizes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %16s %16s %14s\n", "videos", "fractional gap", "rounded gap", "violation")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %15.2f%% %15.2f%% %13.2f%%\n", r.Videos, 100*r.FractionalGap, 100*r.RoundedGap, 100*r.Violation)
	}
	fmt.Fprintln(w, "(paper: 4.1% gap / 4.4% violation at 5K videos, 1.0% / 0.8% at 200K — quality improves with size)")
	return nil
}
