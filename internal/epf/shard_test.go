package epf

import (
	"reflect"
	"testing"

	"vodplace/internal/mip"
)

// identicalDuals reports bit-identity of two dual vectors.
func identicalDuals(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sealedInstance streams randomInstance's problem through the InstanceBuilder
// at the given shard size, so the catalog carries a multi-shard layout.
func sealedInstance(t *testing.T, seed int64, nodes, videos int, diskFactor, linkCap float64, shardSize int) *mip.Instance {
	t.Helper()
	g, disk, caps, demands := randomProblem(t, seed, nodes, videos, diskFactor, linkCap)
	b, err := mip.NewInstanceBuilder(g, disk, caps, 1, shardSize)
	if err != nil {
		t.Fatal(err)
	}
	for vi := range demands {
		if err := b.Add(&demands[vi]); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if want := (videos + shardSize - 1) / shardSize; inst.NumShards() != want {
		t.Fatalf("shardSize=%d: instance has %d shards, want %d", shardSize, inst.NumShards(), want)
	}
	return inst
}

// An instance sealed by the streaming builder solves bit-identically to the
// batch-built one: its shard layout is accounting only and never reaches the
// solver.
func TestSolveSealedInstanceMatchesBatch(t *testing.T) {
	base := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 30, Workers: 1})
	for _, shardSize := range []int{3, 10, 25} {
		res := mustSolve(t, sealedInstance(t, 9, 8, 60, 2.0, 100, shardSize),
			Options{Seed: 5, MaxPasses: 30, Workers: 4})
		if res.Objective != base.Objective || res.LowerBound != base.LowerBound {
			t.Errorf("shardSize=%d: (%.17g, %.17g) vs baseline (%.17g, %.17g)",
				shardSize, res.Objective, res.LowerBound, base.Objective, base.LowerBound)
		}
		if !identicalDuals(base.RowDuals, res.RowDuals) {
			t.Errorf("shardSize=%d: row duals differ from baseline", shardSize)
		}
		if !identicalSolutions(base.Sol, res.Sol) {
			t.Errorf("shardSize=%d: solutions differ from baseline", shardSize)
		}
	}
}

// The integer solve of a sealed instance is the batch-built instance's too, at
// any shard count of its layout.
func TestSolveIntegerShardCountInvariance(t *testing.T) {
	base, err := SolveInteger(randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 30, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shardSize := range []int{30, 9} { // 2 and 7 shards
		res, err := SolveInteger(sealedInstance(t, 9, 8, 60, 2.0, 100, shardSize),
			Options{Seed: 5, MaxPasses: 30, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Objective != base.Objective || res.LowerBound != base.LowerBound {
			t.Errorf("shardSize=%d: (%.17g, %.17g) vs baseline (%.17g, %.17g)",
				shardSize, res.Objective, res.LowerBound, base.Objective, base.LowerBound)
		}
		if !identicalSolutions(base.Sol, res.Sol) {
			t.Errorf("shardSize=%d: rounded solutions differ from baseline", shardSize)
		}
	}
}

// Warm states cross shard layouts in both directions: a sealed instance's
// carryover seeds the batch-built instance and vice versa, and both warm
// solves are the same bits.
func TestWarmStartShardInvariance(t *testing.T) {
	plainCold := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 20, Workers: 1})
	shardedCold := mustSolve(t, sealedInstance(t, 9, 8, 60, 2.0, 100, 15),
		Options{Seed: 5, MaxPasses: 20, Workers: 4})

	warmFromPlain := mustSolve(t, sealedInstance(t, 9, 8, 60, 2.0, 100, 15),
		Options{Seed: 5, MaxPasses: 20, Workers: 4, Warm: plainCold.Warm})
	warmFromSharded := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 20, Workers: 1, Warm: shardedCold.Warm})

	if warmFromPlain.Objective != warmFromSharded.Objective ||
		warmFromPlain.LowerBound != warmFromSharded.LowerBound {
		t.Errorf("warm cross-over diverges: sharded-from-plain (%.17g, %.17g) vs plain-from-sharded (%.17g, %.17g)",
			warmFromPlain.Objective, warmFromPlain.LowerBound,
			warmFromSharded.Objective, warmFromSharded.LowerBound)
	}
	if !identicalSolutions(warmFromPlain.Sol, warmFromSharded.Sol) {
		t.Error("warm cross-over solutions differ")
	}
}

// A resumed re-solve keeps the determinism contract end to end: after a
// demand patch, the warm integer solve — descent from the carried LP point,
// rounding resumed from the carried placement, and the state it exports in
// turn — is bit-identical at any worker count, whether the resume is accepted
// or refused (pinned references force each: 2 is met by any sane placement, 0
// by none, so the from-scratch attempt runs behind it).
func TestResumeWorkerInvariance(t *testing.T) {
	opts := func(workers int) Options {
		return Options{Seed: 5, MaxPasses: 60, Epsilon: 0.05, Workers: workers}
	}
	patched := func() *mip.Instance {
		inst := randomInstance(t, 43, 9, 200, 1.6, 150)
		for _, vi := range []int{0, 7, 19, 120} {
			patchDemand(t, inst, vi, 2.5, false)
		}
		patchDemand(t, inst, 33, 2, true)
		return inst
	}
	cold, err := SolveInteger(randomInstance(t, 43, 9, 200, 1.6, 150), opts(1))
	if err != nil {
		t.Fatal(err)
	}
	accepted, refused := *cold.Warm, *cold.Warm
	accepted.RoundRef, refused.RoundRef = 2, 0
	resumeInvariance(t, &accepted, "resumed", patched, opts)
	resumeInvariance(t, &refused, "rejected", patched, opts)
}

func resumeInvariance(t *testing.T, w *WarmState, mode string, patched func() *mip.Instance, opts func(workers int) Options) {
	var base *Result
	for _, workers := range []int{1, 3, 2} {
		o := opts(workers)
		o.Warm = w
		res, err := SolveInteger(patched(), o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ResumedVideos != 199 || res.Stats.RoundCarried != 199 {
			t.Errorf("workers=%d: resumed %d videos, carried %d into rounding, want 199 (one changed its offices)",
				workers, res.Stats.ResumedVideos, res.Stats.RoundCarried)
		}
		if base == nil {
			base = res
			if res.Stats.RoundMode() != mode {
				t.Errorf("reference %v: rounding %s (ratio %v), want %s",
					w.RoundRef, res.Stats.RoundMode(), res.Stats.RoundRatio, mode)
			}
			continue
		}
		if res.Objective != base.Objective || res.LowerBound != base.LowerBound || res.Passes != base.Passes {
			t.Errorf("workers=%d: (%.17g, %.17g, %d passes) vs Workers 1 (%.17g, %.17g, %d passes)",
				workers, res.Objective, res.LowerBound, res.Passes,
				base.Objective, base.LowerBound, base.Passes)
		}
		if !identicalDuals(base.RowDuals, res.RowDuals) || !identicalSolutions(base.Sol, res.Sol) {
			t.Errorf("workers=%d: duals or rounded solution differ from Workers 1", workers)
		}
		if !reflect.DeepEqual(base.Warm.LP, res.Warm.LP) || !reflect.DeepEqual(base.Warm.Assign, res.Warm.Assign) ||
			base.Warm.RoundRef != res.Warm.RoundRef {
			t.Errorf("workers=%d: exported LP point, placement or reference differs from Workers 1", workers)
		}
		if res.Stats.RoundResumed != base.Stats.RoundResumed || res.Stats.RoundRatio != base.Stats.RoundRatio {
			t.Errorf("workers=%d: rounding %s at ratio %v, Workers 1 %s at %v", workers,
				res.Stats.RoundMode(), res.Stats.RoundRatio, base.Stats.RoundMode(), base.Stats.RoundRatio)
		}
		if res.Stats.RoundResolves != base.Stats.RoundResolves {
			t.Errorf("workers=%d: %d blocks priced live in rounding, Workers 1 priced %d",
				workers, res.Stats.RoundResolves, base.Stats.RoundResolves)
		}
	}
}
