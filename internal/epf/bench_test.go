package epf

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"vodplace/internal/facloc"
	"vodplace/internal/mip"
	"vodplace/internal/topology"
)

// benchInstance builds a mid-size instance with several time slices and a
// sparse concurrency matrix (off-peak slices have zero concurrency at many
// offices), the shape the flat kernels are designed for.
func benchInstance(b *testing.B, seed int64, nodes, videos, slices int) *mip.Instance {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := topology.Random(nodes, 1.0, seed)
	demands := make([]mip.VideoDemand, videos)
	var totalSize float64
	for v := range demands {
		size := []float64{0.1, 0.5, 1, 2}[rng.Intn(4)]
		totalSize += size
		nj := 1 + int(float64(nodes-1)*math.Pow(float64(v+1), -0.5))
		if extra := rng.Intn(3); nj+extra <= nodes {
			nj += extra
		}
		js := rng.Perm(nodes)[:nj]
		for a := 1; a < len(js); a++ {
			for c := a; c > 0 && js[c-1] > js[c]; c-- {
				js[c-1], js[c] = js[c], js[c-1]
			}
		}
		d := mip.VideoDemand{Video: v, SizeGB: size, RateMbps: 2}
		for _, j := range js {
			d.Js = append(d.Js, int32(j))
			d.Agg = append(d.Agg, rng.Float64()*20*math.Pow(float64(v+1), -0.8))
		}
		d.Conc = make([][]float64, slices)
		for t := range d.Conc {
			row := make([]float64, len(d.Js))
			for k := range row {
				// Peak slice 0 is dense; later slices are increasingly sparse,
				// exercising the nonzero-slice fast paths.
				if t == 0 || rng.Intn(t+1) == 0 {
					row[k] = math.Ceil(d.Agg[k] / float64(4+t))
				}
			}
			d.Conc[t] = row
		}
		demands[v] = d
	}
	disk := make([]float64, nodes)
	for i := range disk {
		disk[i] = totalSize * 2.0 / float64(nodes)
	}
	caps := make([]float64, g.NumLinks())
	for i := range caps {
		caps[i] = 300
	}
	inst, err := mip.NewInstance(g, disk, caps, slices, demands)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// benchSolver returns a solver advanced a few passes into a representative
// mid-solve state (warm scratch, non-trivial activities and duals).
func benchSolver(b *testing.B) *solver {
	b.Helper()
	inst := benchInstance(b, 1, 20, 400, 3)
	s, err := newSolver(inst, Options{Seed: 1, MaxPasses: 3, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.close)
	s.run(context.Background())
	return s
}

// BenchmarkAddBlockRows measures one full add+remove activity sweep over
// every block (the incremental state-update kernel).
func BenchmarkAddBlockRows(b *testing.B) {
	s := benchSolver(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for vi := range s.sol {
			s.addBlockRows(vi, &s.sol[vi], +1)
			s.addBlockRows(vi, &s.sol[vi], -1)
		}
	}
}

// BenchmarkComputePathDuals measures the per-chunk path-dual refresh: one
// rebuild of every table entry from the frozen duals.
func BenchmarkComputePathDuals(b *testing.B) {
	s := benchSolver(b)
	s.computeDuals(s.q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.computePathDuals(s.q)
	}
}

// BenchmarkBuildBlockProblem measures pricing every video's facility-location
// block under frozen duals (the dominant per-chunk kernel).
func BenchmarkBuildBlockProblem(b *testing.B) {
	s := benchSolver(b)
	s.computeDuals(s.q)
	s.computePathDuals(s.q)
	var prob facloc.Problem
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for vi := range s.sol {
			s.buildBlockProblem(vi, s.q, &prob)
		}
	}
}

// BenchmarkLineSearch measures one exact potential line search over a
// synthetic 48-row delta whose root is interior (so the search never exits on
// the endpoint tests and the full iteration budget runs).
func BenchmarkLineSearch(b *testing.B) {
	s := benchSolver(b)
	s.touched = s.touched[:0]
	m := 48
	if m > s.rows {
		m = s.rows
	}
	for r := 0; r < m; r++ {
		s.touched = append(s.touched, int32(r))
		if r%2 == 0 {
			s.act[r] = 1.2 * s.b[r] // hot row relieved by the step
			s.acc[r] = -0.3 * s.b[r]
		} else {
			s.act[r] = 0.8 * s.b[r] // cold row loaded by the step
			s.acc[r] = 0.45 * s.b[r]
		}
	}
	s.alpha = 50
	dObj := 1e-6 * s.bObj
	if got := s.lineSearch(dObj); got <= 0 || got >= 1 {
		b.Fatalf("line-search root %g not interior; benchmark state is degenerate", got)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.lineSearch(dObj)
	}
}

// BenchmarkEPFSolveQuick is the end-to-end tracked benchmark: a complete LP
// solve (default options, fixed seed) on a mid-size instance. BENCH_epf.json
// records its trajectory across PRs.
func BenchmarkEPFSolveQuick(b *testing.B) {
	inst := benchInstance(b, 1, 20, 400, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(inst, Options{Seed: 1, MaxPasses: 20}); err != nil {
			b.Fatal(err)
		}
	}
}
