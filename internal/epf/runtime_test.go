package epf

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"vodplace/internal/mip"
	"vodplace/internal/obs"
)

// identicalSolutions reports whether two solutions are bit-identical:
// every sparse entry equal with ==, no tolerance.
func identicalSolutions(a, b *mip.Solution) bool {
	if len(a.Videos) != len(b.Videos) {
		return false
	}
	for vi := range a.Videos {
		va, vb := &a.Videos[vi], &b.Videos[vi]
		if len(va.Open) != len(vb.Open) {
			return false
		}
		for i := range va.Open {
			if va.Open[i] != vb.Open[i] {
				return false
			}
		}
		if len(va.Assign) != len(vb.Assign) {
			return false
		}
		for k := range va.Assign {
			if len(va.Assign[k]) != len(vb.Assign[k]) {
				return false
			}
			for i := range va.Assign[k] {
				if va.Assign[k][i] != vb.Assign[k][i] {
					return false
				}
			}
		}
	}
	return true
}

// tracedSolve runs Solve on the shared invariance instance with a recorder
// attached and returns the result with its parsed trace.
func tracedSolve(t *testing.T, o Options) (*Result, []obs.Event) {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.New(&buf)
	o.Recorder = rec
	res := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100), o)
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	events, err := obs.ParseTrace(&buf)
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	return res, events
}

// sameTrace fails unless both traces carry the same events with every
// deterministic field of every pass and shard event bit-identical.
func sameTrace(t *testing.T, label string, a, b []obs.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s: %d trace events vs %d", label, len(a), len(b))
		return
	}
	for i := range a {
		ea, eb := a[i], b[i]
		switch {
		case ea.K != eb.K || ea.Pass != eb.Pass:
			t.Errorf("%s: event %d is %s/%d vs %s/%d", label, i, ea.K, ea.Pass, eb.K, eb.Pass)
		case ea.K == "epf_shard" && (ea.Shard != eb.Shard || ea.Videos != eb.Videos || ea.Blocks != eb.Blocks):
			t.Errorf("%s: shard summaries diverge:\n  %+v\n  %+v", label, ea, eb)
		case ea.K == "epf_pass" && (ea.Phi != eb.Phi || ea.Objective != eb.Objective || ea.LowerBound != eb.LowerBound ||
			ea.UpperBound != eb.UpperBound || ea.Gap != eb.Gap || ea.UBGap != eb.UBGap ||
			ea.MaxViol != eb.MaxViol || ea.MaxLinkUtil != eb.MaxLinkUtil ||
			ea.MeanLinkUtil != eb.MeanLinkUtil || ea.Delta != eb.Delta || ea.Blocks != eb.Blocks):
			t.Errorf("%s: pass %d traced series diverges:\n  %+v\n  %+v", label, ea.Pass, ea, eb)
		}
	}
}

// The determinism invariant: the worker count partitions work but never
// changes the floating-point summation order, so the same seed must produce
// bit-identical output at any parallelism — the final point and the whole
// traced convergence trajectory.
func TestSolveWorkerCountInvariance(t *testing.T) {
	a, eventsA := tracedSolve(t, Options{Seed: 5, MaxPasses: 30, Workers: 1})
	for _, workers := range []int{2, 3, 8} {
		b, eventsB := tracedSolve(t, Options{Seed: 5, MaxPasses: 30, Workers: workers})
		label := fmt.Sprintf("Workers=1 vs %d", workers)
		if a.LowerBound != b.LowerBound || a.Objective != b.Objective {
			t.Errorf("%s: (%.17g, %.17g) vs (%.17g, %.17g)", label, a.Objective, a.LowerBound, b.Objective, b.LowerBound)
		}
		if !identicalSolutions(a.Sol, b.Sol) {
			t.Errorf("%s: solutions differ", label)
		}
		sameTrace(t, label, eventsA, eventsB)
	}
}

func TestSolveIntegerWorkerCountInvariance(t *testing.T) {
	inst1 := randomInstance(t, 9, 8, 60, 2.0, 100)
	inst8 := randomInstance(t, 9, 8, 60, 2.0, 100)
	a, err := SolveInteger(inst1, Options{Seed: 5, MaxPasses: 30, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveInteger(inst8, Options{Seed: 5, MaxPasses: 30, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.LowerBound != b.LowerBound || a.Objective != b.Objective {
		t.Errorf("Workers=1 vs 8: (%.17g, %.17g) vs (%.17g, %.17g)",
			a.Objective, a.LowerBound, b.Objective, b.LowerBound)
	}
	if !identicalSolutions(a.Sol, b.Sol) {
		t.Error("Workers=1 vs 8: rounded solutions differ")
	}
}

func TestSolveContextCancelledMidSolve(t *testing.T) {
	inst := randomInstance(t, 7, 10, 120, 2.0, 200)
	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{Seed: 2, MaxPasses: 250, OnPass: func(pi PassInfo) {
		if pi.Pass == 2 {
			cancel()
		}
	}}
	res, err := SolveContext(ctx, inst, opts)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled solve returned nil result")
	}
	// Prompt: cancellation lands at the next chunk boundary, so at most one
	// extra pass starts after the cancelling callback.
	if res.Passes > 3 {
		t.Errorf("solve ran %d passes after cancellation at pass 2", res.Passes)
	}
	// Partial but usable: a real solution with sane bookkeeping.
	if res.Sol == nil || len(res.Sol.Videos) != len(inst.Demands) {
		t.Error("partial result has no usable solution")
	}
	if v := res.Violation; v.Unserved > 1e-6 || v.XExceedsY > 1e-6 {
		t.Errorf("partial solution violates block constraints: %+v", v)
	}
	if res.Stats.BlocksOptimized == 0 {
		t.Error("partial result reports no work done")
	}
}

func TestSolveContextPreCancelled(t *testing.T) {
	inst := randomInstance(t, 3, 8, 60, 2.0, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveIntegerContext(ctx, inst, Options{Seed: 1})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Sol == nil {
		t.Fatal("pre-cancelled solve returned no result")
	}
	if res.Stats.BlocksOptimized != 0 {
		t.Errorf("pre-cancelled solve optimized %d blocks", res.Stats.BlocksOptimized)
	}
}

func TestResultStatsPopulated(t *testing.T) {
	inst := randomInstance(t, 3, 8, 60, 2.0, 100)
	res, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 40, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Workers != 4 {
		t.Errorf("Stats.Workers = %d, want 4", st.Workers)
	}
	if st.Passes != res.Passes {
		t.Errorf("Stats.Passes = %d, want %d", st.Passes, res.Passes)
	}
	if st.BlocksOptimized == 0 || st.LBBlockSolves == 0 || st.LBEvals == 0 {
		t.Errorf("work counters empty: %+v", st)
	}
	if st.DualRefreshes == 0 || st.LineSearches == 0 {
		t.Errorf("sequential counters empty: %+v", st)
	}
	// The scratch economy: at most one allocation per worker, everything
	// else a reuse.
	if st.ScratchAllocs > int64(st.Workers) {
		t.Errorf("%d scratch allocs for %d workers", st.ScratchAllocs, st.Workers)
	}
	if st.ScratchReuses == 0 {
		t.Error("no scratch reuses recorded")
	}
	if st.LPTime <= 0 {
		t.Errorf("LPTime = %v, want > 0", st.LPTime)
	}
	if st.RoundTime <= 0 {
		t.Errorf("RoundTime = %v, want > 0", st.RoundTime)
	}
	if st.String() == "" {
		t.Error("Stats.String() empty")
	}
}
