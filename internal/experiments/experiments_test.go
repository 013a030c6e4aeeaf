package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"vodplace/internal/epf"
	"vodplace/internal/topology"
	"vodplace/internal/workload"
)

func quickCfg() Config {
	return Config{Quick: true, Seed: 3, MaxPasses: 40}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig11", "fig12", "fig13", "table2", "table3", "table4", "table5",
		"table6", "rounding",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		var ids []string
		for _, r := range All() {
			ids = append(ids, r.ID)
		}
		t.Errorf("registry has %d entries, want %d: %v", len(All()), len(want), ids)
	}
	for _, r := range All() {
		if r.Title == "" || r.Run == nil {
			t.Errorf("experiment %q incomplete", r.ID)
		}
	}
}

func TestNewScenarioDefaults(t *testing.T) {
	sc := NewScenario(Config{Quick: true})
	if sc.G.NumNodes() != 10 || sc.Lib.Len() != 300 || sc.Trace.Days != 16 {
		t.Errorf("quick scenario wrong shape: %d nodes, %d videos, %d days",
			sc.G.NumNodes(), sc.Lib.Len(), sc.Trace.Days)
	}
	sc55 := NewScenario(Config{Videos: 50, Days: 7, RequestsPerVideoPerDay: 1})
	if sc55.G.Name() != "backbone55" {
		t.Errorf("default topology %q, want backbone55", sc55.G.Name())
	}
}

func TestFig2(t *testing.T) {
	sc := NewScenario(quickCfg())
	r := Fig2Compute(sc)
	if len(r.FridayGB) != sc.Cfg.VHOs {
		t.Fatalf("working sets for %d offices, want %d", len(r.FridayGB), sc.Cfg.VHOs)
	}
	frac := r.MaxFraction()
	if frac <= 0 || frac > 1 {
		t.Errorf("max working-set fraction %g outside (0,1]", frac)
	}
	var buf bytes.Buffer
	if err := Fig2WorkingSet(context.Background(), &buf, quickCfg()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "max working set") {
		t.Error("fig2 output missing summary")
	}
}

func TestFig3WindowMonotonicity(t *testing.T) {
	sc := NewScenario(quickCfg())
	r := Fig3Compute(sc)
	if len(r.Similarity) != len(r.WindowSec) {
		t.Fatal("shape mismatch")
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// Fig 3's finding: 1-day windows look more similar than 1-hour windows.
	first := mean(r.Similarity[0])
	last := mean(r.Similarity[len(r.Similarity)-1])
	if last <= first {
		t.Errorf("similarity should grow with window size: 1h %.3f vs 1d %.3f", first, last)
	}
}

func TestFig4(t *testing.T) {
	sc := NewScenario(quickCfg())
	r := Fig4Compute(sc)
	if len(r.Daily) == 0 {
		t.Fatal("no episodes observed")
	}
	peaks := r.ReleaseDayCounts()
	if len(peaks) != len(r.Daily) {
		t.Errorf("peak counts %d, episodes %d", len(peaks), len(r.Daily))
	}
}

func TestCompareSchemes(t *testing.T) {
	sc := NewScenario(quickCfg())
	res, err := CompareSchemes(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schemes) != 4 {
		t.Fatalf("%d schemes, want 4", len(res.Schemes))
	}
	mip := res.Outcome("mip")
	lru := res.Outcome("random+lru")
	if mip == nil || lru == nil {
		t.Fatal("missing schemes")
	}
	// Headline result: the MIP scheme wins on transfers.
	if mip.Sim.TotalGBHop >= lru.Sim.TotalGBHop {
		t.Errorf("MIP transfers %.0f not below LRU %.0f", mip.Sim.TotalGBHop, lru.Sim.TotalGBHop)
	}
	if mip.Sim.MaxLinkMbps >= lru.Sim.MaxLinkMbps {
		t.Errorf("MIP peak %.0f not below LRU %.0f", mip.Sim.MaxLinkMbps, lru.Sim.MaxLinkMbps)
	}
	// Fig 7/8 analyses on the same run.
	f7 := Fig7Compute(res.MIPRun)
	if f7.TotalGB <= 0 {
		t.Error("fig7: no placed bytes")
	}
	if f7.MediumGB <= 0 {
		t.Error("fig7: medium-popularity class empty; paper expects it substantial")
	}
	f8 := Fig8Compute(res.MIPRun)
	if f8.MultiCopy == 0 {
		t.Error("fig8: no videos with multiple copies")
	}
	// Popular videos should have at least as many copies as the deep tail.
	headAvg, tailAvg := 0.0, 0.0
	head := len(f8.Copies) / 10
	for _, c := range f8.Copies[:head] {
		headAvg += float64(c)
	}
	headAvg /= float64(head)
	for _, c := range f8.Copies[len(f8.Copies)-head:] {
		tailAvg += float64(c)
	}
	tailAvg /= float64(head)
	if headAvg < tailAvg {
		t.Errorf("head copies %.2f below tail %.2f", headAvg, tailAvg)
	}
}

func TestFig9(t *testing.T) {
	sc := NewScenario(quickCfg())
	r, err := Fig9Compute(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests == 0 {
		t.Fatal("no requests")
	}
	if r.RemoteFrac < 0 || r.RemoteFrac > 1 {
		t.Errorf("remote fraction %g", r.RemoteFrac)
	}
}

func TestProbeFeasibleBounds(t *testing.T) {
	cfg := quickCfg()
	cfg.Videos = 150
	cfg.Days = 10
	sc := NewScenario(cfg)
	// Generous capacities must be feasible.
	bigDisk := make([]float64, sc.Cfg.VHOs)
	for i := range bigDisk {
		bigDisk[i] = sc.Lib.TotalSizeGB()
	}
	bigLinks := make([]float64, sc.G.NumLinks())
	for l := range bigLinks {
		bigLinks[l] = 1e6
	}
	if !probeFeasible(context.Background(), sc, bigDisk, bigLinks, 7, 0, feasTolerance) {
		t.Error("generous capacities reported infeasible")
	}
	// Disk below one copy of the library must be infeasible.
	tinyDisk := make([]float64, sc.Cfg.VHOs)
	for i := range tinyDisk {
		tinyDisk[i] = sc.Lib.TotalSizeGB() * 0.5 / float64(sc.Cfg.VHOs)
	}
	if probeFeasible(context.Background(), sc, tinyDisk, bigLinks, 7, 0, feasTolerance) {
		t.Error("sub-library disk reported feasible")
	}
}

// TestTable5SolvesAtFoundCap holds Table V to its promise: every placement
// it plays is solved with every link at the capacity its search found, not
// at the scenario's own link budget.
func TestTable5SolvesAtFoundCap(t *testing.T) {
	cfg := Config{Quick: true, Videos: 150, Days: 14, VHOs: 6,
		RequestsPerVideoPerDay: 10, Seed: 2, MaxPasses: 20}
	rows, err := Table5Compute(context.Background(), cfg, []int64{60, 3600})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Run == nil || len(r.Run.Plans) == 0 {
			t.Fatalf("window %ds: no placement played", r.WindowSec)
		}
		for _, plan := range r.Run.Plans {
			for l, c := range plan.Instance.LinkCapMbps {
				if c != r.FeasibleCapMbps {
					t.Fatalf("window %ds, day %d: link %d solved at %g Mb/s, want the found %g",
						r.WindowSec, plan.Day, l, c, r.FeasibleCapMbps)
				}
			}
		}
	}
}

func TestRemapTopVHOs(t *testing.T) {
	sc := NewScenario(quickCfg())
	tr := remapTopVHOs(sc.Trace, 4)
	if tr.NumVHOs != 4 {
		t.Fatalf("remapped to %d offices", tr.NumVHOs)
	}
	counts := make([]int, 4)
	for _, r := range tr.Requests {
		if r.VHO < 0 || r.VHO >= 4 {
			t.Fatalf("bad office %d after remap", r.VHO)
		}
		counts[r.VHO]++
	}
	// Office 0 is the busiest original office.
	for j := 1; j < 4; j++ {
		if counts[0] < counts[j] {
			t.Errorf("office 0 (%d reqs) should be busiest, office %d has %d", counts[0], j, counts[j])
		}
	}
	if len(tr.Requests) >= len(sc.Trace.Requests) {
		t.Error("remap should drop requests from excluded offices")
	}
}

func TestFormatWindow(t *testing.T) {
	cases := map[int64]string{
		1:                          "1s",
		60:                         "1m",
		3600:                       "1h",
		workload.SecondsPerDay:     "1d",
		2 * workload.SecondsPerDay: "2d",
	}
	for sec, want := range cases {
		if got := formatWindow(sec); got != want {
			t.Errorf("formatWindow(%d) = %q, want %q", sec, got, want)
		}
	}
}

func TestRoundingComputeQuick(t *testing.T) {
	rows, err := RoundingCompute(context.Background(), quickCfg(), []int{150})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatal("expected one row")
	}
	r := rows[0]
	if r.RoundedGap < -1e-9 {
		t.Errorf("negative rounded gap %g", r.RoundedGap)
	}
	if r.Violation > 0.15 {
		t.Errorf("rounding violation %g too large", r.Violation)
	}
}

func TestNamedTopology(t *testing.T) {
	for _, name := range []string{"backbone", "tree", "mesh", "tiscali", "sprint", "ebone"} {
		g := namedTopology(name)
		if g == nil || !g.Built() {
			t.Errorf("topology %q not built", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown topology should panic")
		}
	}()
	namedTopology("nope")
}

func TestSqrtGeo(t *testing.T) {
	if got := sqrtGeo(1, 100); got < 9.9 || got > 10.1 {
		t.Errorf("sqrtGeo(1,100) = %g, want ~10", got)
	}
	if got := sqrtGeo(4, 4); got < 3.99 || got > 4.01 {
		t.Errorf("sqrtGeo(4,4) = %g, want 4", got)
	}
}

// Table III prints the EPF solver's allocation beside deterministic columns,
// so what a solve allocates must not depend on how the pool schedules its
// workers. Five identical 800-video Tiscali solves at two workers, each on a
// freshly built instance as Table3Compute builds them, after one that warms
// the process up, allocate within runtimeSlack of each other: every
// allocation site of the solver itself repeats to the byte, and the slack is
// the Go runtime's own bookkeeping, which does not (a goroutine descriptor,
// 448 B, when no exited one is free to reuse; about 5 KB for a new OS
// thread). With per-worker scratch grown lazily by whichever worker met the
// larger block first, the same solves spread by 15 to 190 KB.
func TestEPFAllocationIsScheduleFree(t *testing.T) {
	const runtimeSlack = 16 << 10
	g := topology.Tiscali()
	lo, hi := math.Inf(1), 0.0
	for run := 0; run < 6; run++ {
		inst, err := buildScaleInstance(g, 800, 0.2*float64(g.NumNodes()), 1)
		if err != nil {
			t.Fatal(err)
		}
		_, allocMB := measure(func() {
			if _, err := epf.SolveIntegerContext(context.Background(), inst, epf.Options{Seed: 1, MaxPasses: 1, Workers: 2}); err != nil {
				t.Fatal(err)
			}
		})
		if run > 0 { // run 0 warms the process up
			lo, hi = min(lo, allocMB), max(hi, allocMB)
		}
	}
	if spread := (hi - lo) * (1 << 20); spread > runtimeSlack {
		t.Errorf("identical solves allocated %.4f to %.4f MB, a spread of %.0f B over the runtime's %d", lo, hi, spread, runtimeSlack)
	}
}
