package epf

import (
	"context"
	"io"
	"testing"

	"vodplace/internal/obs"
)

// minAllocsPerRun is the minimum of three testing.AllocsPerRun(3, f) trials.
// AllocsPerRun counts every malloc in the process, so a background GC or
// scheduler allocation landing inside a trial reads as 1 alloc/run — seen
// once in 8 runs with five packages testing in parallel on 2 vCPUs. A kernel
// that really allocates does so in every trial, so the minimum keeps the
// contract exact and takes the flake out of tier 1.
func minAllocsPerRun(f func()) float64 {
	best := testing.AllocsPerRun(3, f)
	for trial := 1; trial < 3 && best != 0; trial++ {
		best = min(best, testing.AllocsPerRun(3, f))
	}
	return best
}

// The performance architecture's allocation contract (DESIGN.md §15): once a
// solve is warmed up — per-worker scratch live, merge-row and chunk-result
// capacities grown to their steady state — a full gradient-descent pass
// allocates nothing. Every buffer a pass touches is created or
// capacity-bounded in newSolver/initRun, so a regression here means a hot
// kernel started allocating again (a closure escaping, a slice growing per
// call) and shows up long before it is visible in wall-clock benchmarks. The
// pass includes the per-chunk path-dual rebuild and the per-video warm-start
// open sets.
func TestDescentPassZeroAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	inst := randomInstance(t, 11, 10, 90, 2.0, 150)
	s, err := newSolver(inst, Options{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.ctx = context.Background()
	s.initDescent()
	// Warm-up: sparse row capacities (mergeFracs copies, chunk solutions)
	// grow during early passes and then stabilize. Workers=1 keeps the pass
	// fully deterministic, so the measurement is exact, not flaky.
	for i := 0; i < 6; i++ {
		if !s.descentPass() {
			t.Fatal("warm-up pass cancelled")
		}
	}
	allocs := minAllocsPerRun(func() {
		if !s.descentPass() {
			t.Fatal("measured pass cancelled")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state descent pass allocates %g times per pass, want 0", allocs)
	}
}

// A traced pass keeps the contract (DESIGN.md §14): with a recorder
// attached, the per-pass event — potential, link utilizations, merged work
// counters, one encoded trace line and the epf gauges — allocates nothing
// once its instruments exist.
func TestTracedPassZeroAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	inst := randomInstance(t, 11, 10, 90, 2.0, 150)
	s, err := newSolver(inst, Options{Seed: 3, Workers: 1, Recorder: obs.New(io.Discard), TraceStream: "epf"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.ctx = context.Background()
	s.initDescent()
	for pass := 1; pass <= 6; pass++ {
		if !s.descentPass() {
			t.Fatal("warm-up pass cancelled")
		}
		s.recordPass(pass)
	}
	if allocs := minAllocsPerRun(func() { s.recordPass(7) }); allocs != 0 {
		t.Errorf("a traced pass's telemetry allocates %g times per pass, want 0", allocs)
	}
}

// TestWarmExportBytesPerVideo bounds what exporting a warm state allocates
// per video, bound terms and assignment aside, on a 2 000-video, 55-office
// instance: the ID table, the open-set offsets and the open sets, 4 B each
// per entry. A map from ID to a per-video struct with its own open slice
// costs several times that.
func TestWarmExportBytesPerVideo(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const videos = 2000
	s, err := newSolver(randomInstance(t, 7, 55, videos, 2.0, 150), Options{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.bound.terms = nil
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.exportWarm(&Result{}, nil)
		}
	})
	perVideo := float64(res.AllocedBytesPerOp()) / videos
	t.Logf("warm export: %.1f B per video", perVideo)
	if perVideo > 32 {
		t.Errorf("warm export allocates %.1f B per video, want ≤ 32", perVideo)
	}
}
