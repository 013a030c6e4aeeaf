package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"vodplace/internal/core"
	"vodplace/internal/demand"
	"vodplace/internal/epf"
	"vodplace/internal/sim"
	"vodplace/internal/topology"
	"vodplace/internal/workload"
)

func init() {
	register("fig11", "Feasibility region: disk vs link capacity (Fig. 11)", Fig11Feasibility)
	register("fig12", "Complementary cache size sweep (Fig. 12)", Fig12CacheSweep)
	register("fig13", "Link capacity vs library size (Fig. 13)", Fig13LibraryGrowth)
	register("table4", "Topology vs feasible link capacity (Table IV)", Table4Topology)
	register("table5", "Peak window size vs bandwidth (Table V)", Table5Windows)
}

// feasTolerance is the violation level below which a solve counts as
// feasible. It sits above the solver's ε because on very tight instances
// the fractional point plateaus 1-2% over capacity until the Lagrangian
// bound catches up; the paper's feasibility-region plots are coarse enough
// that this tolerance does not move any frontier visibly.
const feasTolerance = 0.03

// linkSearchDiskTolerance is the disk violation the link-capacity searches
// accept: their disk budget is fixed (and mathematically adequate), so the
// verdict hangs on the link rows, and disk gets only a loose sanity guard
// against the solver's tight-disk plateau masquerading as link
// infeasibility.
const linkSearchDiskTolerance = 0.08

// probeFeasible builds the placement instance for day from the week of
// history before it, with win-second peak windows (0 keeps demand's
// default), and reports whether the EPF solver reaches a fractional point
// under the given capacities that serves every request with link violation
// at most feasTolerance and disk violation at most diskTol. A false result
// conflates true infeasibility with exceeding the pass budget, exactly as
// any numerical feasibility probe does. It is the one probe every capacity
// search runs.
func probeFeasible(ctx context.Context, sc *Scenario, diskGB, linkCapMbps []float64, day int, win int64, diskTol float64) bool {
	b := &demand.Builder{G: sc.G, Lib: sc.Lib, DiskGB: diskGB, LinkCapMbps: linkCapMbps,
		Cfg: demand.Config{WindowSec: win, HorizonDays: 7}}
	inst, err := b.Instance(sc.Trace, day)
	if err != nil {
		return false // disk cannot even hold one copy of each video
	}
	opts := sc.Cfg.solver()
	if opts.MaxPasses < 60 {
		opts.MaxPasses = 60
	}
	res, err := epf.SolveContext(ctx, inst, opts)
	if err != nil {
		return false
	}
	sc.Cfg.mustAudit(inst, res)
	v := res.Violation
	return v.Disk <= diskTol && v.Link <= feasTolerance && v.Unserved <= 1e-6
}

// minFeasible is the one capacity search: the least value in [lo, hi] at
// which feasible holds, taking feasibility as monotone in the value. It
// returns 0 when hi is infeasible and lo when lo is already feasible;
// otherwise it bisects steps times at mid(lo, hi) and returns the feasible
// end.
func minFeasible(lo, hi float64, steps int, mid func(lo, hi float64) float64, feasible func(float64) bool) float64 {
	if !feasible(hi) {
		return 0
	}
	if feasible(lo) {
		return lo
	}
	for i := 0; i < steps; i++ {
		if m := mid(lo, hi); feasible(m) {
			hi = m
		} else {
			lo = m
		}
	}
	return hi
}

// arithMid is the disk search's midpoint, on a linear scale.
func arithMid(lo, hi float64) float64 { return (lo + hi) / 2 }

// sqrtGeo is the link searches' midpoint, on a log scale: √(a·b) found by
// bisection. math.Sqrt(a*b) cannot overflow at these sizes either, but it
// lands on a different last bit, and a probe that sits on the frontier
// flips with it, moving a printed capacity (fig13 -quick's ebone/300 row
// reads 37 Mb/s instead of 39). The bisection keeps the committed results
// reproducible.
func sqrtGeo(a, b float64) float64 {
	m := a * b
	lo, hi := a, b
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if mid*mid > m {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// Fig11Result is one feasibility-region line: for each link capacity, the
// minimum aggregate disk (as a multiple of library size) at which all
// requests can be served.
type Fig11Result struct {
	LinkCapMbps []float64
	// MinDiskFactor[i] corresponds to LinkCapMbps[i]; 0 means no feasible
	// disk was found within the search range.
	MinDiskFactor []float64
}

// Fig11Compute searches the minimum disk factor per link capacity, for
// uniform or heterogeneous office disks.
func Fig11Compute(ctx context.Context, sc *Scenario, linkCaps []float64, heterogeneous bool) *Fig11Result {
	out := &Fig11Result{LinkCapMbps: linkCaps}
	day := min(7, sc.Cfg.Days-1)
	disk := core.UniformDisk
	if heterogeneous {
		disk = core.HeterogeneousDisk
	}
	for _, cap := range linkCaps {
		if ctx.Err() != nil {
			break // cancelled: report only the caps probed so far
		}
		links := core.UniformLinks(sc.G, cap)
		out.MinDiskFactor = append(out.MinDiskFactor, minFeasible(1.02, 8, 7, arithMid, func(factor float64) bool {
			return probeFeasible(ctx, sc, disk(sc.Lib, sc.Cfg.VHOs, factor), links, day, 0, feasTolerance)
		}))
	}
	return out
}

// Fig11Feasibility prints the uniform and heterogeneous feasibility lines.
func Fig11Feasibility(ctx context.Context, w io.Writer, cfg Config) error {
	sc := NewScenario(cfg)
	link := sc.Cfg.LinkCapMbps
	caps := []float64{link / 2, link, link * 2, link * 4}
	uni := Fig11Compute(ctx, sc, caps, false)
	het := Fig11Compute(ctx, sc, caps, true)
	if err := ctx.Err(); err != nil {
		return err // cancelled probes read as infeasible; don't print them
	}
	fmt.Fprintf(w, "%-16s %18s %18s\n", "link cap (Mb/s)", "uniform min disk", "nonuniform min disk")
	for i, c := range caps {
		fmt.Fprintf(w, "%-16.0f %17.2fx %17.2fx\n", c, uni.MinDiskFactor[i], het.MinDiskFactor[i])
	}
	fmt.Fprintln(w, "(0 = infeasible within 8x library; minimum possible is 1x — one copy of each video)")
	return nil
}

// Fig12Result is the Fig. 12 data: peak and aggregate bandwidth as a
// function of the complementary cache share.
type Fig12Result struct {
	CacheFractions []float64
	PeakMbps       []float64
	TotalGBHop     []float64
}

// Fig12Compute sweeps the complementary cache share.
func Fig12Compute(ctx context.Context, sc *Scenario, fractions []float64) (*Fig12Result, error) {
	out := &Fig12Result{CacheFractions: fractions}
	for _, f := range fractions {
		cf := f
		if cf == 0 {
			cf = -1 // MIPOptions: negative means exactly zero cache
		}
		run, err := sc.Sys.RunMIPContext(ctx, sc.Trace, sc.Cfg.mipOptions(core.MIPOptions{CacheFraction: cf}))
		if err != nil {
			return nil, err
		}
		out.PeakMbps = append(out.PeakMbps, run.Sim.MaxLinkMbps)
		out.TotalGBHop = append(out.TotalGBHop, run.Sim.TotalGBHop)
	}
	return out, nil
}

// Fig12CacheSweep prints the cache sweep.
func Fig12CacheSweep(ctx context.Context, w io.Writer, cfg Config) error {
	sc := NewScenario(cfg)
	fractions := []float64{0, 0.01, 0.05, 0.10, 0.25}
	r, err := Fig12Compute(ctx, sc, fractions)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %16s %16s\n", "cache frac", "peak (Mb/s)", "total GB x hop")
	for i, f := range fractions {
		fmt.Fprintf(w, "%-12s %16.0f %16.0f\n", fmt.Sprintf("%.0f%%", 100*f), r.PeakMbps[i], r.TotalGBHop[i])
	}
	return nil
}

// Fig13Row is one scenario of the Fig. 13 scalability study.
type Fig13Row struct {
	Network     string
	Videos      int
	MinLinkMbps float64
	// PerVideo is the capacity normalized by library size (the Fig. 13
	// y-axis: required capacity stays flat as the library grows because
	// request volume scales with it).
	PerVideo float64
}

// Fig13Compute finds the required link capacity per network and library
// size, with aggregate disk fixed at 2x library.
func Fig13Compute(ctx context.Context, cfg Config, sizes []int, networks []string) ([]Fig13Row, error) {
	var rows []Fig13Row
	for _, netName := range networks {
		for _, videos := range sizes {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c := cfg
			c.Videos = videos
			c.Days = min(cfg.withDefaults().Days, 14)
			sc := scenarioOn(namedTopology(netName), c)
			disk := core.UniformDisk(sc.Lib, sc.Cfg.VHOs, 2.0)
			cap := minFeasible(5, 50000, 8, sqrtGeo, func(mbps float64) bool {
				return probeFeasible(ctx, sc, disk, core.UniformLinks(sc.G, mbps), 7, 0, linkSearchDiskTolerance)
			})
			rows = append(rows, Fig13Row{
				Network:     netName,
				Videos:      videos,
				MinLinkMbps: cap,
				PerVideo:    cap / float64(videos),
			})
		}
	}
	return rows, nil
}

func namedTopology(name string) *topology.Graph {
	switch name {
	case "backbone":
		return topology.Backbone55()
	case "tree":
		return topology.Tree(55)
	case "mesh":
		return topology.FullMesh(55)
	case "tiscali":
		return topology.Tiscali()
	case "sprint":
		return topology.Sprint()
	case "ebone":
		return topology.Ebone()
	default:
		panic(fmt.Sprintf("experiments: unknown topology %q", name))
	}
}

// Fig13LibraryGrowth prints required capacity vs library size.
func Fig13LibraryGrowth(ctx context.Context, w io.Writer, cfg Config) error {
	c := cfg.withDefaults()
	sizes := []int{c.Videos / 4, c.Videos / 2, c.Videos}
	rows, err := Fig13Compute(ctx, cfg, sizes, []string{"tiscali", "sprint", "ebone"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %8s %14s %16s\n", "network", "videos", "cap (Mb/s)", "cap/1K videos")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %14.0f %16.1f\n", r.Network, r.Videos, r.MinLinkMbps, 1000*r.PerVideo)
	}
	return nil
}

// Table4Row is one topology's minimum feasible link capacity.
type Table4Row struct {
	Topology    string
	Nodes       int
	Edges       int
	MinLinkMbps float64
}

// Table4Compute reproduces Table IV: same library and (remapped) trace, 3x
// aggregate disk, minimum uniform link capacity per topology. For networks
// smaller than the trace's office count, the offices with the largest
// request volumes are kept, as in the paper.
func Table4Compute(ctx context.Context, cfg Config, names []string) ([]Table4Row, error) {
	base := NewScenario(cfg)
	day := min(7, base.Cfg.Days-1)
	var rows []Table4Row
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g := namedTopology(name)
		// On a same-size or larger network demand simply occupies the first
		// offices; a smaller one keeps the offices with the largest request
		// volumes, as in the paper's RocketFuel runs. The probe reads no
		// System, so the scenario carries none.
		c, tr := base.Cfg, base.Trace
		if g.NumNodes() < c.VHOs {
			c.VHOs = g.NumNodes()
			tr = remapTopVHOs(base.Trace, g.NumNodes())
		}
		sc := &Scenario{Cfg: c, G: g, Lib: base.Lib, Trace: tr}
		disk := core.UniformDisk(sc.Lib, g.NumNodes(), 3.0)
		cap := minFeasible(5, 80000, 8, sqrtGeo, func(mbps float64) bool {
			return probeFeasible(ctx, sc, disk, core.UniformLinks(g, mbps), day, 0, linkSearchDiskTolerance)
		})
		rows = append(rows, Table4Row{
			Topology:    name,
			Nodes:       g.NumNodes(),
			Edges:       g.NumEdges(),
			MinLinkMbps: cap,
		})
	}
	return rows, nil
}

// remapTopVHOs keeps the n offices with the most requests and renumbers
// them 0..n-1 by decreasing volume.
func remapTopVHOs(tr *workload.Trace, n int) *workload.Trace {
	counts := make([]int, tr.NumVHOs)
	for _, r := range tr.Requests {
		counts[r.VHO]++
	}
	idx := make([]int, tr.NumVHOs)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return counts[idx[a]] > counts[idx[b]] })
	remap := make(map[int32]int32)
	for newID, oldID := range idx[:n] {
		remap[int32(oldID)] = int32(newID)
	}
	out := &workload.Trace{Days: tr.Days, NumVHOs: n, Lib: tr.Lib}
	for _, r := range tr.Requests {
		if nj, ok := remap[r.VHO]; ok {
			out.Requests = append(out.Requests, workload.Request{Time: r.Time, VHO: nj, Video: r.Video})
		}
	}
	return out
}

// Table4Topology prints the topology comparison.
func Table4Topology(ctx context.Context, w io.Writer, cfg Config) error {
	names := []string{"backbone", "tree", "mesh", "tiscali", "sprint", "ebone"}
	if cfg.withDefaults().VHOs != 55 {
		names = []string{"tiscali", "sprint", "ebone"}
	}
	rows, err := Table4Compute(ctx, cfg, names)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %7s %7s %22s\n", "topology", "nodes", "edges", "feasible cap (Mb/s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %7d %7d %22.0f\n", r.Topology, r.Nodes, r.Edges, r.MinLinkMbps)
	}
	return nil
}

// Table5Row is one peak-window size's outcome.
type Table5Row struct {
	WindowSec       int64
	FeasibleCapMbps float64
	MaxDuringWindow float64
	MaxEntirePeriod float64
	// Run is the placement solved with every link at FeasibleCapMbps and
	// played against the trace; nil when no capacity was feasible.
	Run *core.MIPRun
}

// Table5Compute reproduces Table V: for each constraint-window size, the
// minimum feasible link capacity, then a placement solved at that capacity
// and played against the full trace, reporting the realized maxima inside
// the enforced windows and over the whole period.
func Table5Compute(ctx context.Context, cfg Config, windows []int64) ([]Table5Row, error) {
	sc := NewScenario(cfg)
	day := min(7, sc.Cfg.Days-1)
	var rows []Table5Row
	for _, win := range windows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cap := minFeasible(5, 50000, 8, sqrtGeo, func(mbps float64) bool {
			return probeFeasible(ctx, sc, sc.Sys.DiskGB, core.UniformLinks(sc.G, mbps), day, win, feasTolerance)
		})
		if cap == 0 {
			rows = append(rows, Table5Row{WindowSec: win})
			continue
		}
		// Solve at that capacity: the scenario's system, every link at cap.
		sys := *sc.Sys
		sys.LinkCapMbps = core.UniformLinks(sc.G, cap)
		run, err := sys.RunMIPContext(ctx, sc.Trace, sc.Cfg.mipOptions(core.MIPOptions{WindowSec: win, CacheFraction: -1}))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			WindowSec:       win,
			FeasibleCapMbps: cap,
			MaxDuringWindow: maxDuringEnforcedWindows(sc, run, win),
			MaxEntirePeriod: run.Sim.MaxLinkMbps,
			Run:             run,
		})
	}
	return rows, nil
}

// maxDuringEnforcedWindows returns the realized peak link bandwidth within
// the peak windows each plan enforced.
func maxDuringEnforcedWindows(sc *Scenario, run *core.MIPRun, win int64) float64 {
	var peak float64
	for _, plan := range run.Plans {
		histFrom := int64(plan.Day-demand.HistoryDays) * workload.SecondsPerDay
		if histFrom < 0 {
			histFrom = 0
		}
		histTo := int64(plan.Day) * workload.SecondsPerDay
		sub := sc.Trace.Slice(histFrom, histTo)
		for _, start := range sub.TopPeakWindows(win, plan.Instance.Slices) {
			// The window was identified in history; the matching period in
			// the serving week is one week later.
			servStart := start + 7*workload.SecondsPerDay
			for b := servStart / sim.BinSec; b <= (servStart+win)/sim.BinSec; b++ {
				if b >= 0 && int(b) < len(run.Sim.BinPeakMbps) {
					if v := run.Sim.BinPeakMbps[b]; v > peak {
						peak = v
					}
				}
			}
		}
	}
	return peak
}

// Table5Windows prints the window sweep.
func Table5Windows(ctx context.Context, w io.Writer, cfg Config) error {
	windows := []int64{1, 60, 3600, workload.SecondsPerDay}
	rows, err := Table5Compute(ctx, cfg, windows)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %20s %20s %20s\n", "window", "feasible cap (Mb/s)", "max in LP window", "max entire period")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %20.0f %20.0f %20.0f\n",
			formatWindow(r.WindowSec), r.FeasibleCapMbps, r.MaxDuringWindow, r.MaxEntirePeriod)
	}
	return nil
}
