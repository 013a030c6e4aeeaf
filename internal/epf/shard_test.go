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

// The sharding invariant: shards decompose scheduling and telemetry, never
// numerics. Any shard count at any worker count must reproduce the unsharded
// single-worker solve bit for bit — objective, bound, duals, and solution.
func TestSolveShardCountInvariance(t *testing.T) {
	base := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 30, Workers: 1})
	for _, shards := range []int{1, 2, 4, 7} {
		for _, workers := range []int{1, 4} {
			res := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
				Options{Seed: 5, MaxPasses: 30, Workers: workers, Shards: shards})
			if res.Objective != base.Objective || res.LowerBound != base.LowerBound {
				t.Errorf("shards=%d workers=%d: (%.17g, %.17g) vs baseline (%.17g, %.17g)",
					shards, workers, res.Objective, res.LowerBound, base.Objective, base.LowerBound)
			}
			if !identicalDuals(base.RowDuals, res.RowDuals) {
				t.Errorf("shards=%d workers=%d: row duals differ from baseline", shards, workers)
			}
			if !identicalSolutions(base.Sol, res.Sol) {
				t.Errorf("shards=%d workers=%d: solutions differ from baseline", shards, workers)
			}
			if res.Passes != base.Passes || res.Converged != base.Converged {
				t.Errorf("shards=%d workers=%d: trajectory diverged (passes %d vs %d)",
					shards, workers, res.Passes, base.Passes)
			}
			// A forced re-partition packs ceil(videos/shards) videos per
			// shard, so the resolved count may fall below the request on a
			// tiny catalog. The 60-video instance resolves all four counts.
			per := (60 + shards - 1) / shards
			if want := (60 + per - 1) / per; res.Stats.Shards != want {
				t.Errorf("shards=%d: Stats.Shards = %d, want %d", shards, res.Stats.Shards, want)
			}
		}
	}
}

func TestSolveIntegerShardCountInvariance(t *testing.T) {
	base, err := SolveInteger(randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 30, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 7} {
		res, err := SolveInteger(randomInstance(t, 9, 8, 60, 2.0, 100),
			Options{Seed: 5, MaxPasses: 30, Workers: 4, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if res.Objective != base.Objective || res.LowerBound != base.LowerBound {
			t.Errorf("shards=%d: (%.17g, %.17g) vs baseline (%.17g, %.17g)",
				shards, res.Objective, res.LowerBound, base.Objective, base.LowerBound)
		}
		if !identicalSolutions(base.Sol, res.Sol) {
			t.Errorf("shards=%d: rounded solutions differ from baseline", shards)
		}
	}
}

// An instance sealed by the streaming builder carries its own shard layout;
// Options.Shards == 0 adopts it. Adopted layouts must also be numerically
// invisible: the solve matches the batch-built unsharded instance bit for bit.
func TestSolveAdoptsInstanceShardLayout(t *testing.T) {
	base := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 30, Workers: 1})
	for _, shardSize := range []int{3, 10, 25} {
		g, disk, caps, demands := randomProblem(t, 9, 8, 60, 2.0, 100)
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
		wantShards := (len(demands) + shardSize - 1) / shardSize
		if ns := inst.NumShards(); ns != wantShards {
			t.Fatalf("shardSize=%d: instance has %d shards, want %d", shardSize, ns, wantShards)
		}
		res := mustSolve(t, inst, Options{Seed: 5, MaxPasses: 30, Workers: 4})
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
		if wantShards > 1 && res.Stats.Shards != wantShards {
			t.Errorf("shardSize=%d: Stats.Shards = %d, want %d", shardSize, res.Stats.Shards, wantShards)
		}
	}
}

// Warm starts must survive sharding in both directions: a sharded solve's
// carryover seeds an unsharded one and vice versa, with the warm trajectory
// itself shard-invariant.
func TestWarmStartShardInvariance(t *testing.T) {
	coldOpts := Options{Seed: 5, MaxPasses: 20, Workers: 1}
	cold := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100), coldOpts)
	shardedCold := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 20, Workers: 4, Shards: 4})

	warmFromPlain := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 20, Workers: 4, Shards: 4, Warm: cold.Warm})
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
// turn — is bit-identical at any shard × worker count, whether the resume is
// accepted or refused (pinned references force each: 2 is met by any sane
// placement, 0 by none, so the from-scratch attempt runs behind it).
func TestResumeShardWorkerInvariance(t *testing.T) {
	opts := func(shards, workers int) Options {
		return Options{Seed: 5, MaxPasses: 60, Epsilon: 0.05, Shards: shards, Workers: workers}
	}
	patched := func() *mip.Instance {
		inst := randomInstance(t, 43, 9, 200, 1.6, 150)
		for _, vi := range []int{0, 7, 19, 120} {
			patchDemand(t, inst, vi, 2.5, false)
		}
		patchDemand(t, inst, 33, 2, true)
		return inst
	}
	cold, err := SolveInteger(randomInstance(t, 43, 9, 200, 1.6, 150), opts(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	accepted, refused := *cold.Warm, *cold.Warm
	accepted.RoundRef, refused.RoundRef = 2, 0
	resumeInvariance(t, &accepted, "resumed", patched, opts)
	resumeInvariance(t, &refused, "rejected", patched, opts)
}

func resumeInvariance(t *testing.T, w *WarmState, mode string, patched func() *mip.Instance, opts func(shards, workers int) Options) {
	var base *Result
	for _, cfg := range [][2]int{{1, 1}, {4, 3}, {7, 2}} {
		o := opts(cfg[0], cfg[1])
		o.Warm = w
		res, err := SolveInteger(patched(), o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ResumedVideos != 199 || res.Stats.RoundCarried != 199 {
			t.Errorf("shards=%d workers=%d: resumed %d videos, carried %d into rounding, want 199 (one changed its offices)",
				cfg[0], cfg[1], res.Stats.ResumedVideos, res.Stats.RoundCarried)
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
			t.Errorf("shards=%d workers=%d: (%.17g, %.17g, %d passes) vs 1×1 (%.17g, %.17g, %d passes)",
				cfg[0], cfg[1], res.Objective, res.LowerBound, res.Passes,
				base.Objective, base.LowerBound, base.Passes)
		}
		if !identicalDuals(base.RowDuals, res.RowDuals) || !identicalSolutions(base.Sol, res.Sol) {
			t.Errorf("shards=%d workers=%d: duals or rounded solution differ from 1×1", cfg[0], cfg[1])
		}
		if !reflect.DeepEqual(base.Warm.LP, res.Warm.LP) || !reflect.DeepEqual(base.Warm.Assign, res.Warm.Assign) ||
			base.Warm.RoundRef != res.Warm.RoundRef {
			t.Errorf("shards=%d workers=%d: exported LP point, placement or reference differs from 1×1", cfg[0], cfg[1])
		}
		if res.Stats.RoundResumed != base.Stats.RoundResumed || res.Stats.RoundRatio != base.Stats.RoundRatio {
			t.Errorf("shards=%d workers=%d: rounding %s at ratio %v, 1×1 %s at %v", cfg[0], cfg[1],
				res.Stats.RoundMode(), res.Stats.RoundRatio, base.Stats.RoundMode(), base.Stats.RoundRatio)
		}
		if res.Stats.RoundResolves != base.Stats.RoundResolves {
			t.Errorf("shards=%d workers=%d: %d blocks priced live in rounding, 1×1 priced %d",
				cfg[0], cfg[1], res.Stats.RoundResolves, base.Stats.RoundResolves)
		}
	}
}
