package epf

import (
	"context"
	"fmt"
	"testing"
)

// forceMultiLeaf shrinks the reduction-tree leaf width so small test
// instances exercise the multi-leaf machinery, restoring the default on
// cleanup.
func forceMultiLeaf(t *testing.T, leaf int) {
	t.Helper()
	old := reduceLeafBlocks
	reduceLeafBlocks = leaf
	t.Cleanup(func() { reduceLeafBlocks = old })
}

// The multi-leaf reduction contract: leaf boundaries depend only on the
// catalog size, so at a fixed leaf width every worker×shard combination
// must reproduce the same solve bit for bit — objective, bound, duals,
// solution, and trajectory.
func TestMultiLeafReductionInvariance(t *testing.T) {
	forceMultiLeaf(t, 16) // 60 videos -> 4 leaves
	base := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 30, Workers: 1})
	if len(base.RowDuals) == 0 {
		t.Fatal("baseline exported no duals")
	}
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 3, 7} {
			res := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
				Options{Seed: 5, MaxPasses: 30, Workers: workers, Shards: shards})
			if res.Objective != base.Objective || res.LowerBound != base.LowerBound {
				t.Errorf("workers=%d shards=%d: (%.17g, %.17g) vs baseline (%.17g, %.17g)",
					workers, shards, res.Objective, res.LowerBound, base.Objective, base.LowerBound)
			}
			if !identicalDuals(base.RowDuals, res.RowDuals) {
				t.Errorf("workers=%d shards=%d: row duals differ from baseline", workers, shards)
			}
			if !identicalSolutions(base.Sol, res.Sol) {
				t.Errorf("workers=%d shards=%d: solutions differ from baseline", workers, shards)
			}
			if res.Passes != base.Passes {
				t.Errorf("workers=%d shards=%d: %d passes vs baseline %d", workers, shards, res.Passes, base.Passes)
			}
		}
	}
}

// A single-leaf catalog must reduce by exactly the historical flat sum: the
// multi-leaf code path stays inert and the solve is bit-identical to one
// with the default leaf width. (A different leaf width may legitimately
// change low-order bits — this pins that the default does not.)
func TestSingleLeafMatchesFlatReduction(t *testing.T) {
	base := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 30, Workers: 4})
	forceMultiLeaf(t, 60) // 60 videos in one leaf: still the flat path
	res := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 30, Workers: 4})
	if res.Objective != base.Objective || res.LowerBound != base.LowerBound {
		t.Errorf("single-leaf solve diverged from flat reduction: (%.17g, %.17g) vs (%.17g, %.17g)",
			res.Objective, res.LowerBound, base.Objective, base.LowerBound)
	}
	if !identicalSolutions(base.Sol, res.Sol) {
		t.Error("single-leaf solve solution differs from flat reduction")
	}
}

// The multi-leaf tree reorders float additions, so it need not match the
// flat sum bit for bit — but it must stay a faithful solve: certified
// bound, ε-feasibility, and an objective within solver tolerance of the
// flat-reduction run.
func TestMultiLeafReductionSanity(t *testing.T) {
	flat := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 40, Workers: 1})
	forceMultiLeaf(t, 16)
	res := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 40, Workers: 4})
	if res.LowerBound > res.Objective*(1+1e-9) {
		t.Errorf("LB %g above objective %g", res.LowerBound, res.Objective)
	}
	if v := res.Violation; v.Unserved > 1e-6 || v.XExceedsY > 1e-6 {
		t.Errorf("block constraints violated: %+v", v)
	}
	if rel := (res.Objective - flat.Objective) / flat.Objective; rel > 0.05 || rel < -0.05 {
		t.Errorf("multi-leaf objective %g drifted %.2f%% from flat %g",
			res.Objective, 100*rel, flat.Objective)
	}
}

// Integer output is bit-identical across the whole worker × shard grid, not
// just along each axis.
func TestFastModeWorkerShardInvariance(t *testing.T) {
	opts := func(workers, shards int) Options {
		return Options{Seed: 5, MaxPasses: 30, Workers: workers, Shards: shards}
	}
	base, err := SolveInteger(randomInstance(t, 9, 8, 60, 2.0, 100), opts(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.RowDuals) == 0 {
		t.Fatal("baseline exported no duals")
	}
	for _, workers := range []int{1, 4, 8} {
		for _, shards := range []int{0, 2, 7} {
			if workers == 1 && shards == 0 {
				continue
			}
			res, err := SolveInteger(randomInstance(t, 9, 8, 60, 2.0, 100), opts(workers, shards))
			if err != nil {
				t.Fatal(err)
			}
			if res.Objective != base.Objective || res.LowerBound != base.LowerBound {
				t.Errorf("workers=%d shards=%d: (%.17g, %.17g) vs baseline (%.17g, %.17g)",
					workers, shards, res.Objective, res.LowerBound, base.Objective, base.LowerBound)
			}
			if !identicalDuals(base.RowDuals, res.RowDuals) {
				t.Errorf("workers=%d shards=%d: row duals differ from baseline", workers, shards)
			}
			if !identicalSolutions(base.Sol, res.Sol) {
				t.Errorf("workers=%d shards=%d: rounded solutions differ from baseline", workers, shards)
			}
			if a, b := base.Stats, res.Stats; a.Polishes != b.Polishes || a.LBEvals != b.LBEvals || a.LBRaised != b.LBRaised {
				t.Errorf("workers=%d shards=%d: %d polish rounds, %d lb evals, %d raised vs baseline %d, %d, %d",
					workers, shards, b.Polishes, b.LBEvals, b.LBRaised, a.Polishes, a.LBEvals, a.LBRaised)
			}
		}
	}
}

// A sharded solve's whole trace is worker-invariant, not just its final
// point: every pass event, and the per-shard block tallies the driver keeps
// while the shard-affine tasks move between workers.
func TestFastModeTracedSeriesInvariance(t *testing.T) {
	a, eventsA := tracedSolve(t, Options{Seed: 5, MaxPasses: 30, Workers: 1, Shards: 4})
	for _, workers := range []int{3, 8} {
		b, eventsB := tracedSolve(t, Options{Seed: 5, MaxPasses: 30, Workers: workers, Shards: 4})
		label := fmt.Sprintf("4 shards, Workers=1 vs %d", workers)
		if a.Objective != b.Objective || a.LowerBound != b.LowerBound {
			t.Errorf("%s: (%.17g, %.17g) vs (%.17g, %.17g)", label, a.Objective, a.LowerBound, b.Objective, b.LowerBound)
		}
		sameTrace(t, label, eventsA, eventsB)
	}
}

// Cross-period warm starts compose with rounding: a warm-seeded integer
// solve is worker- and shard-invariant.
func TestWarmRoundInvariance(t *testing.T) {
	cold := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 20, Workers: 1})
	opts := func(workers, shards int) Options {
		return Options{Seed: 5, MaxPasses: 20, Workers: workers, Shards: shards, Warm: cold.Warm}
	}
	base, err := SolveInteger(randomInstance(t, 9, 8, 60, 2.0, 100), opts(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4} {
		for _, shards := range []int{0, 3} {
			res, err := SolveInteger(randomInstance(t, 9, 8, 60, 2.0, 100), opts(workers, shards))
			if err != nil {
				t.Fatal(err)
			}
			if res.Objective != base.Objective || res.LowerBound != base.LowerBound {
				t.Errorf("workers=%d shards=%d: (%.17g, %.17g) vs baseline (%.17g, %.17g)",
					workers, shards, res.Objective, res.LowerBound, base.Objective, base.LowerBound)
			}
			if !identicalSolutions(base.Sol, res.Sol) {
				t.Errorf("workers=%d shards=%d: warm rounded solutions differ", workers, shards)
			}
		}
	}
}

// The allocation contract extends to the rounding phase: once the candidate
// slot and block-row buffers are warm, a chunk's refresh + solve + commit
// cycle (the polish loop's visit, committed unconditionally) allocates nothing.
func TestRoundZeroAllocations(t *testing.T) {
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
	for i := 0; i < 4; i++ {
		if !s.descentPass() {
			t.Fatal("warm-up pass cancelled")
		}
	}
	s.retuneScale()
	var frac []int
	for vi := range s.sol {
		if fractionalBlock(&s.sol[vi]) {
			frac = append(frac, vi)
		}
	}
	if len(frac) == 0 {
		t.Fatal("no fractional videos to round after 4 passes")
	}
	chunk := frac
	if len(chunk) > roundChunk {
		chunk = chunk[:roundChunk]
	}
	ws := s.scratch.Get(0)
	cycle := func() {
		s.refreshRoundDuals()
		for _, vi := range chunk {
			bs := &s.sol[vi]
			s.addBlockRows(vi, bs, -1)
			oldCost := s.blockCost(vi, bs)
			ns := s.roundSolve(ws, vi)
			s.setIntBlock(vi, ns.open, ns.assign)
			s.noteRoundSol(vi, ns)
			s.addBlockRows(vi, bs, +1)
			s.obj += s.blockCost(vi, bs) - oldCost
		}
	}
	// Warm-up: roundSol capacity and per-block sparse rows grow to steady
	// state on the first cycles.
	cycle()
	cycle()
	allocs := minAllocsPerRun(cycle)
	if allocs != 0 {
		t.Errorf("steady-state rounding cycle allocates %g times, want 0", allocs)
	}
	// The polish acceptance test rides the same contract: both criteria over
	// sparse row accumulators, no maps.
	s.computeDuals(s.q)
	vi := chunk[0]
	bs := &s.sol[vi]
	ns := intSol{assign: make([]int32, len(bs.Assign))}
	for _, f := range bs.Open {
		ns.open = append(ns.open, f.I)
	}
	for k := range ns.assign {
		ns.assign[k] = ns.open[len(ns.open)-1]
	}
	s.addBlockRows(vi, bs, -1)
	cost := s.blockCost(vi, bs)
	allocs = minAllocsPerRun(func() {
		s.integerStepImproves(vi, bs, &ns, cost, true, 1)
		s.integerStepImproves(vi, bs, &ns, cost, false, 1)
	})
	s.addBlockRows(vi, bs, +1)
	if allocs != 0 {
		t.Errorf("integerStepImproves allocates %g times per pair of calls, want 0", allocs)
	}
}
