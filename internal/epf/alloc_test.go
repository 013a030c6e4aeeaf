package epf

import (
	"context"
	"testing"
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

// The performance architecture's allocation contract (DESIGN.md §8): once a
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
