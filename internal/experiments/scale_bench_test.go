package experiments

import (
	"testing"

	"vodplace/internal/core"
	"vodplace/internal/demand"
	"vodplace/internal/epf"
	"vodplace/internal/topology"
	"vodplace/internal/workload"

	"vodplace/internal/catalog"
)

// The scale sweep: instance construction and a short solve at 1k/10k/100k
// videos, recorded in BENCH_scale.json by `make bench-json`. Construction
// goes through the streaming demand→builder path with a bounded shard size,
// so its B/op column is the direct regression gate for the sharded pipeline's
// memory contract (peak staging O(shard), not O(catalog)); the solve rows
// track how block-sweep cost scales with the catalog dimension. Pass caps are
// deliberately tiny — the sweep measures per-pass cost at scale, not
// convergence.

// scaleShardSize is the builder's shard size at every scale point, so peak
// staging stays one shard's worth of videos however large the catalog. The
// solver's schedule does not read the layout.
const scaleShardSize = 256

// scaleWorkload generates the library and trace for a scale point once per
// benchmark (outside the timed loop).
func scaleWorkload(b *testing.B, g *topology.Graph, videos int) (*workload.Trace, *demand.Builder) {
	b.Helper()
	lib := catalog.Generate(catalog.Config{NumVideos: videos, Weeks: 2}, 1)
	tr := workload.GenerateTrace(lib, workload.TraceConfig{
		Days: 8, NumVHOs: g.NumNodes(), RequestsPerVideoPerDay: 1,
	}, 2)
	db := &demand.Builder{
		G: g, Lib: lib,
		DiskGB:      core.UniformDisk(lib, g.NumNodes(), 2.0),
		LinkCapMbps: core.UniformLinks(g, 20*float64(videos)/float64(g.NumNodes())),
		Cfg:         demand.Config{HorizonDays: 1, Shards: (videos + scaleShardSize - 1) / scaleShardSize},
	}
	return tr, db
}

func benchmarkScaleBuild(b *testing.B, videos int) {
	g := topology.Random(10, 1.2, 1)
	tr, db := scaleWorkload(b, g, videos)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := db.Instance(tr, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(inst.NumShards()), "shards/op")
	}
}

func benchmarkScaleSolve(b *testing.B, videos, passes int) {
	g := topology.Random(10, 1.2, 1)
	tr, db := scaleWorkload(b, g, videos)
	inst, err := db.Instance(tr, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *epf.Result
	for i := 0; i < b.N; i++ {
		r, err := epf.SolveInteger(inst, epf.Options{Seed: 1, MaxPasses: passes})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.StopTimer()
	if res.Sol == nil || len(res.Sol.Videos) != inst.NumVideos() {
		b.Fatal("solve dropped videos")
	}
}

func BenchmarkScaleBuild1k(b *testing.B)   { benchmarkScaleBuild(b, 1_000) }
func BenchmarkScaleBuild10k(b *testing.B)  { benchmarkScaleBuild(b, 10_000) }
func BenchmarkScaleBuild100k(b *testing.B) { benchmarkScaleBuild(b, 100_000) }

// BenchmarkScaleBuild1M is the catalog-scale ceiling point: a full
// 1M-video trace generation + streamed instance build. Build only — a
// solve at this size is beyond the scale gate. The
// workload generation and the build peak at several GB, so -short (CI's
// bench smoke) skips it; `make bench-json` runs it for BENCH_scale.json.
func BenchmarkScaleBuild1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-video build needs several GB and minutes; skipped under -short")
	}
	benchmarkScaleBuild(b, 1_000_000)
}

func BenchmarkScaleSolve1k(b *testing.B)   { benchmarkScaleSolve(b, 1_000, 4) }
func BenchmarkScaleSolve10k(b *testing.B)  { benchmarkScaleSolve(b, 10_000, 3) }
func BenchmarkScaleSolve100k(b *testing.B) { benchmarkScaleSolve(b, 100_000, 2) }
