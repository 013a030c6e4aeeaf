// Benchmarks regenerating every table and figure of the paper's evaluation,
// at reduced (Quick) scale so the full suite completes on a laptop. Each
// benchmark iteration performs the complete experiment — workload synthesis,
// placement solves, trace simulation — and discards the printed report; run
// cmd/vodexp for full-scale, human-readable output.
//
// Micro-benchmarks for the core solver components follow the per-artifact
// benchmarks.
package vodplace

import (
	"context"
	"io"
	"testing"

	"vodplace/internal/cache"
	"vodplace/internal/core"
	"vodplace/internal/demand"
	"vodplace/internal/epf"
	"vodplace/internal/experiments"
	"vodplace/internal/workload"
)

// benchCfg is the reduced scale used by the per-artifact benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{Quick: true, Seed: 1, MaxPasses: 30}
}

// tinyCfg further shrinks experiments that run many solver invocations
// (binary searches, frequency sweeps).
func tinyCfg() experiments.Config {
	return experiments.Config{Quick: true, Videos: 200, Days: 14, VHOs: 8,
		RequestsPerVideoPerDay: 2, Seed: 1, MaxPasses: 25}
}

func runExperiment(b *testing.B, id string, cfg experiments.Config) {
	b.Helper()
	r, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(context.Background(), io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 2: working set size during peak hours.
func BenchmarkFig2WorkingSet(b *testing.B) { runExperiment(b, "fig2", benchCfg()) }

// Fig. 3: request-mix cosine similarity vs window size.
func BenchmarkFig3Similarity(b *testing.B) { runExperiment(b, "fig3", benchCfg()) }

// Fig. 4: per-episode daily request counts.
func BenchmarkFig4Series(b *testing.B) { runExperiment(b, "fig4", benchCfg()) }

// Fig. 5: peak link bandwidth, MIP vs caching baselines.
func BenchmarkFig5PeakBandwidth(b *testing.B) { runExperiment(b, "fig5", benchCfg()) }

// Fig. 6: aggregate transfer volume per scheme.
func BenchmarkFig6Aggregate(b *testing.B) { runExperiment(b, "fig6", benchCfg()) }

// Fig. 7: disk usage by popularity class.
func BenchmarkFig7DiskByPopularity(b *testing.B) { runExperiment(b, "fig7", benchCfg()) }

// Fig. 8: copies per video by demand rank.
func BenchmarkFig8Copies(b *testing.B) { runExperiment(b, "fig8", benchCfg()) }

// Fig. 9: pure LRU cache cycling and uncachable requests.
func BenchmarkFig9LRUBehavior(b *testing.B) { runExperiment(b, "fig9", benchCfg()) }

// Fig. 10 / Table II: MIP vs LRU caching with origin servers.
func BenchmarkTable2Origin(b *testing.B) { runExperiment(b, "table2", tinyCfg()) }

// Fig. 11: feasibility region (disk vs link capacity).
func BenchmarkFig11Feasibility(b *testing.B) { runExperiment(b, "fig11", tinyCfg()) }

// Fig. 12: complementary cache sweep.
func BenchmarkFig12CacheSweep(b *testing.B) { runExperiment(b, "fig12", tinyCfg()) }

// Fig. 13: link capacity vs library size.
func BenchmarkFig13LibraryGrowth(b *testing.B) { runExperiment(b, "fig13", tinyCfg()) }

// Table III: running time and memory, EPF vs the general LP baseline.
func BenchmarkTable3Scalability(b *testing.B) { runExperiment(b, "table3", tinyCfg()) }

// Table IV: topology vs feasible link capacity.
func BenchmarkTable4Topology(b *testing.B) { runExperiment(b, "table4", tinyCfg()) }

// Table V: peak-window size vs bandwidth.
func BenchmarkTable5Windows(b *testing.B) { runExperiment(b, "table5", tinyCfg()) }

// Table VI: placement update frequency and estimation accuracy.
func BenchmarkTable6Updates(b *testing.B) { runExperiment(b, "table6", tinyCfg()) }

// §V-D: rounding optimality gap and violation.
func BenchmarkRoundingStats(b *testing.B) { runExperiment(b, "rounding", tinyCfg()) }

// ---- Core component micro-benchmarks ----

// benchInstance builds a mid-size placement instance once.
func benchInstance(b *testing.B) (*Instance, *experiments.Scenario) {
	b.Helper()
	sc := experiments.NewScenario(experiments.Config{
		Videos: 500, Days: 8, VHOs: 20, RequestsPerVideoPerDay: 2, Seed: 1})
	builder := &demand.Builder{
		G: sc.G, Lib: sc.Lib,
		DiskGB:      core.UniformDisk(sc.Lib, 20, 2.0),
		LinkCapMbps: core.UniformLinks(sc.G, 1000),
	}
	inst, err := builder.Instance(sc.Trace, 7)
	if err != nil {
		b.Fatal(err)
	}
	return inst, sc
}

// BenchmarkEPFSolve measures the fractional LP solve (the paper's core
// speed claim).
func BenchmarkEPFSolve(b *testing.B) {
	inst, _ := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := epf.Solve(inst, epf.Options{Seed: 1, MaxPasses: 30}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEPFSolveInteger measures LP solve plus rounding.
func BenchmarkEPFSolveInteger(b *testing.B) {
	inst, _ := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := epf.SolveInteger(inst, epf.Options{Seed: 1, MaxPasses: 30}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures trace playback speed
// (requests/op via b.ReportMetric).
func BenchmarkSimulatorThroughput(b *testing.B) {
	_, sc := benchInstance(b)
	pinned := make([][]int, 20)
	for _, v := range sc.Lib.Videos {
		pinned[v.ID%20] = append(pinned[v.ID%20], v.ID)
	}
	cfg := SimConfig{G: sc.G, Lib: sc.Lib, Pinned: pinned}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg, sc.Trace); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sc.Trace.Requests)), "requests/op")
}

// BenchmarkTraceGeneration measures workload synthesis.
func BenchmarkTraceGeneration(b *testing.B) {
	lib := GenerateLibrary(LibraryConfig{NumVideos: 1000, Weeks: 2}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GenerateTrace(lib, TraceConfig{Days: 7, NumVHOs: 20, RequestsPerVideoPerDay: 2}, int64(i)+1)
	}
}

// BenchmarkDemandEstimation measures instance assembly from history.
func BenchmarkDemandEstimation(b *testing.B) {
	sc := experiments.NewScenario(experiments.Config{
		Videos: 1000, Days: 14, VHOs: 20, RequestsPerVideoPerDay: 2, Seed: 1})
	builder := &demand.Builder{
		G: sc.G, Lib: sc.Lib,
		DiskGB:      core.UniformDisk(sc.Lib, 20, 2.0),
		LinkCapMbps: core.UniformLinks(sc.G, 1000),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Instance(sc.Trace, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeakConcurrency measures the f_j^m(t) sweep.
func BenchmarkPeakConcurrency(b *testing.B) {
	sc := experiments.NewScenario(experiments.Config{
		Videos: 1000, Days: 14, VHOs: 20, RequestsPerVideoPerDay: 2, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Trace.PeakConcurrency(0, 7*workload.SecondsPerDay)
	}
}

// ---- Scheme-comparison parallelism benchmarks ----

// compareCfg is the scale for the CompareSchemes parallel-vs-serial pair.
// The MIP scheme dominates, so the parallel speedup is bounded by how much
// of the three baseline simulations overlaps with the solve.
func compareCfg() experiments.Config {
	return experiments.Config{Quick: true, Seed: 1, MaxPasses: 30}
}

// BenchmarkCompareSchemesParallel fans the four schemes (MIP, Random+LRU,
// Random+LFU, Top-K+LRU) across the shared worker pool.
func BenchmarkCompareSchemesParallel(b *testing.B) {
	sc := experiments.NewScenario(compareCfg())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CompareSchemes(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareSchemesSerial runs the same four schemes one after
// another — the pre-refactor behavior — as the baseline for the parallel
// fan-out above.
func BenchmarkCompareSchemesSerial(b *testing.B) {
	sc := experiments.NewScenario(compareCfg())
	topK := sc.Cfg.Videos / 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Sys.RunMIP(sc.Trace, core.MIPOptions{
			Solver: epf.Options{Seed: sc.Cfg.Seed, MaxPasses: sc.Cfg.MaxPasses},
		}); err != nil {
			b.Fatal(err)
		}
		for _, opts := range []core.BaselineOptions{
			{Policy: cache.LRU, Seed: sc.Cfg.Seed},
			{Policy: cache.LFU, Seed: sc.Cfg.Seed},
			{Policy: cache.LRU, TopK: topK, Seed: sc.Cfg.Seed},
		} {
			if _, err := sc.Sys.RunBaseline(sc.Trace, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- Ablation benchmarks (design choices DESIGN.md calls out) ----

// ablationRun solves the shared instance with opts and reports the final
// optimality gap and violation as benchmark metrics, so variants can be
// compared at equal pass budgets.
func ablationRun(b *testing.B, opts epf.Options) {
	inst, _ := benchInstance(b)
	b.ResetTimer()
	var gap, viol float64
	for i := 0; i < b.N; i++ {
		res, err := epf.Solve(inst, opts)
		if err != nil {
			b.Fatal(err)
		}
		gap, viol = res.Gap, res.Violation.Max()
	}
	b.ReportMetric(gap, "gap")
	b.ReportMetric(viol, "maxviol")
}

// BenchmarkAblationShuffledOrder is the paper's Appendix observation:
// re-randomizing the block order each pass converges far faster than a
// fixed round-robin. Compare gap/maxviol at the same pass budget.
func BenchmarkAblationShuffledOrder(b *testing.B) {
	ablationRun(b, epf.Options{Seed: 1, MaxPasses: 25})
}

// BenchmarkAblationFixedOrder is the fixed-order control.
func BenchmarkAblationFixedOrder(b *testing.B) {
	ablationRun(b, epf.Options{Seed: 1, MaxPasses: 25, NoShuffle: true})
}

// BenchmarkAblationChunk1 refreshes duals after every block (maximum
// freshness, no batching).
func BenchmarkAblationChunk1(b *testing.B) {
	ablationRun(b, epf.Options{Seed: 1, MaxPasses: 25, ChunkSize: 1})
}

// BenchmarkAblationChunkWholePass freezes duals for an entire pass
// (the failure mode adaptive chunking avoids).
func BenchmarkAblationChunkWholePass(b *testing.B) {
	ablationRun(b, epf.Options{Seed: 1, MaxPasses: 25, ChunkSize: 1 << 20})
}
