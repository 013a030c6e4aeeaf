package core

import (
	"testing"

	"vodplace/internal/cache"
	"vodplace/internal/catalog"
	"vodplace/internal/demand"
	"vodplace/internal/epf"
	"vodplace/internal/topology"
	"vodplace/internal/workload"
)

// testSystem builds a small but realistic end-to-end setup: 8 offices,
// 400 videos, 21 days.
func testSystem(t *testing.T) (*System, *workload.Trace) {
	t.Helper()
	g := topology.Random(8, 1.2, 4)
	lib := catalog.Generate(catalog.Config{NumVideos: 400, Weeks: 3, NumSeries: 2}, 6)
	tr := workload.GenerateTrace(lib, workload.TraceConfig{
		Days: 21, NumVHOs: 8, RequestsPerVideoPerDay: 2,
	}, 9)
	s := &System{
		G:           g,
		Lib:         lib,
		DiskGB:      UniformDisk(lib, 8, 2.0),
		LinkCapMbps: UniformLinks(g, 1000),
	}
	return s, tr
}

func TestRunMIPEndToEnd(t *testing.T) {
	s, tr := testSystem(t)
	run, err := s.RunMIP(tr, MIPOptions{
		Solver: epf.Options{Seed: 1, MaxPasses: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Plans) != 2 { // placements at days 7 and 14
		t.Fatalf("plans = %d, want 2", len(run.Plans))
	}
	for _, p := range run.Plans {
		if !p.Result.Sol.IsIntegral(1e-6) {
			t.Errorf("day %d placement not integral", p.Day)
		}
		if p.Result.Violation.Unserved > 1e-6 {
			t.Errorf("day %d leaves demand unserved: %+v", p.Day, p.Result.Violation)
		}
	}
	if run.Sim.Requests == 0 {
		t.Fatal("no requests measured")
	}
	if run.Sim.LocalFrac <= 0.2 {
		t.Errorf("MIP scheme serves only %.2f locally; placement is not working", run.Sim.LocalFrac)
	}
	if run.Sim.MigratedVideos == 0 {
		t.Error("second placement should migrate some copies")
	}
}

func TestMIPBeatsBaselines(t *testing.T) {
	s, tr := testSystem(t)
	mipRun, err := s.RunMIP(tr, MIPOptions{Solver: epf.Options{Seed: 1, MaxPasses: 60}})
	if err != nil {
		t.Fatal(err)
	}
	lru, err := s.RunBaseline(tr, BaselineOptions{Policy: cache.LRU, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	lfu, err := s.RunBaseline(tr, BaselineOptions{Policy: cache.LFU, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The headline result (Fig. 5/6): the MIP scheme needs materially less
	// peak link bandwidth and transfers fewer bytes than LRU/LFU caching at
	// equal disk. Exact factors vary with the synthetic trace; require a
	// clear win rather than the paper's ~2x. The peak on this fixture is three
	// to five concurrent 2 Mb/s streams on 1000 Mb/s links, which no scheme
	// has a reason to shave, so here it only has to be no worse; the strict
	// win is asserted where links carry load (experiments.TestCompareSchemes).
	if mipRun.Sim.MaxLinkMbps > lru.MaxLinkMbps {
		t.Errorf("MIP peak %.0f Mbps above Random+LRU %.0f", mipRun.Sim.MaxLinkMbps, lru.MaxLinkMbps)
	}
	if mipRun.Sim.TotalGBHop >= lru.TotalGBHop {
		t.Errorf("MIP transfer %.0f GBxhop not below Random+LRU %.0f", mipRun.Sim.TotalGBHop, lru.TotalGBHop)
	}
	if mipRun.Sim.LocalFrac <= lru.LocalFrac {
		t.Errorf("MIP local fraction %.2f not above Random+LRU %.2f", mipRun.Sim.LocalFrac, lru.LocalFrac)
	}
	t.Logf("peak Mbps: MIP %.0f, LRU %.0f, LFU %.0f", mipRun.Sim.MaxLinkMbps, lru.MaxLinkMbps, lfu.MaxLinkMbps)
	t.Logf("GBxhop: MIP %.0f, LRU %.0f, LFU %.0f", mipRun.Sim.TotalGBHop, lru.TotalGBHop, lfu.TotalGBHop)
	t.Logf("local: MIP %.2f, LRU %.2f, LFU %.2f", mipRun.Sim.LocalFrac, lru.LocalFrac, lfu.LocalFrac)
}

func TestTopKBaseline(t *testing.T) {
	s, tr := testSystem(t)
	topk, err := s.RunBaseline(tr, BaselineOptions{Policy: cache.LRU, TopK: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if topk.Requests == 0 {
		t.Fatal("no requests")
	}
	// Top-K storage must shrink the caches vs plain random.
	if topk.LocalFrac < 0 || topk.LocalFrac > 1 {
		t.Errorf("bad local fraction %g", topk.LocalFrac)
	}
}

func TestOriginLRU(t *testing.T) {
	s, tr := testSystem(t)
	res, err := s.RunOriginLRU(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests")
	}
	// All misses route to origins, so remote service must occur.
	if res.RemoteServed == 0 {
		t.Error("origin scheme should serve some requests remotely")
	}
}

func TestRunMIPPerfectEstimate(t *testing.T) {
	s, tr := testSystem(t)
	perfect, err := s.RunMIP(tr, MIPOptions{
		Method: demand.Perfect,
		Solver: epf.Options{Seed: 1, MaxPasses: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	history, err := s.RunMIP(tr, MIPOptions{
		Method: demand.History,
		Solver: epf.Options{Seed: 1, MaxPasses: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Table VI: perfect knowledge should not do worse than history on
	// transfers (allowing a little noise).
	if perfect.Sim.TotalGBHop > history.Sim.TotalGBHop*1.1 {
		t.Errorf("perfect estimate transfers %.0f vs history %.0f", perfect.Sim.TotalGBHop, history.Sim.TotalGBHop)
	}
}

func TestRunMIPUpdateWeight(t *testing.T) {
	s, tr := testSystem(t)
	plain, err := s.RunMIP(tr, MIPOptions{Solver: epf.Options{Seed: 1, MaxPasses: 40}})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := s.RunMIP(tr, MIPOptions{UpdateWeight: 1, Solver: epf.Options{Seed: 1, MaxPasses: 40}})
	if err != nil {
		t.Fatal(err)
	}
	// Penalizing migration should not migrate more than the plain run.
	if weighted.Sim.MigratedVideos > plain.Sim.MigratedVideos {
		t.Errorf("update-weighted run migrated %d > plain %d", weighted.Sim.MigratedVideos, plain.Sim.MigratedVideos)
	}
}

func TestDiskHelpers(t *testing.T) {
	lib := catalog.Generate(catalog.Config{NumVideos: 100}, 1)
	uni := UniformDisk(lib, 5, 2.0)
	var totalU float64
	for _, d := range uni {
		totalU += d
		if d != uni[0] {
			t.Error("uniform disk not uniform")
		}
	}
	if diff := totalU - 2*lib.TotalSizeGB(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("uniform total %g, want %g", totalU, 2*lib.TotalSizeGB())
	}
	het := HeterogeneousDisk(lib, 55, 3.0)
	var totalH float64
	for _, d := range het {
		totalH += d
	}
	if diff := totalH - 3*lib.TotalSizeGB(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("heterogeneous total %g, want %g", totalH, 3*lib.TotalSizeGB())
	}
	if het[0] <= het[54] {
		t.Error("large office should have more disk than small office")
	}
	if het[0]/het[54] < 3.5 || het[0]/het[54] > 4.5 {
		t.Errorf("large/small ratio %g, want ~4", het[0]/het[54])
	}
}

func TestRunMIPErrors(t *testing.T) {
	s, tr := testSystem(t)
	short := tr.DaySlice(0, 5)
	short.Days = 5
	if _, err := s.RunMIP(short, MIPOptions{Solver: epf.Options{Seed: 1, MaxPasses: 5}}); err == nil {
		t.Error("trace shorter than first placement day accepted")
	}
	bad := &System{G: s.G, Lib: s.Lib, DiskGB: []float64{1}, LinkCapMbps: s.LinkCapMbps}
	if _, err := bad.RunMIP(tr, MIPOptions{}); err == nil {
		t.Error("mismatched disk accepted")
	}
}
