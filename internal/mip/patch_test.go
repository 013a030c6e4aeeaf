package mip

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomProfile draws a fresh sparse demand profile for one video: ascending
// offices (possibly none), non-negative aggregates, and sparse concurrency
// in the dense staging shape ApplyDemandDelta and InstanceBuilder.Add share.
func randomProfile(rng *rand.Rand, nodes, slices int) (js []int32, agg []float64, conc [][]float64) {
	for j := 0; j < nodes; j++ {
		if rng.Intn(2) == 0 {
			js = append(js, int32(j))
			agg = append(agg, rng.Float64()*8)
		}
	}
	conc = make([][]float64, slices)
	for t := range conc {
		conc[t] = make([]float64, len(js))
	}
	for z := 0; z < 5 && slices > 0 && len(js) > 0; z++ {
		conc[rng.Intn(slices)][rng.Intn(len(js))] = float64(rng.Intn(4))
	}
	return js, agg, conc
}

// TestApplyDemandDeltaEquivalence is the patch path's bit-for-bit contract:
// a randomized sequence of in-place patches leaves the instance value
// identical — demand rows, CSR nonzeros, shard geometry and NNZ tallies —
// to streaming the final demand set through a fresh builder at the same
// shard size.
func TestApplyDemandDeltaEquivalence(t *testing.T) {
	const (
		seed, nodes, videos, slices, shardSize = 11, 6, 40, 3, 7
	)
	g, disk, caps, demands := builderProblem(t, seed, nodes, videos, slices, 5)
	// mirror keeps the dense staging of every row so the from-scratch
	// rebuild sees the same final demand set the patches produced.
	mirror := make([]VideoDemand, len(demands))
	for vi := range demands {
		d := demands[vi]
		d.Js = append([]int32(nil), d.Js...)
		d.Agg = append([]float64(nil), d.Agg...)
		d.Conc = make([][]float64, slices)
		for tt := range d.Conc {
			d.Conc[tt] = append([]float64(nil), demands[vi].Conc[tt]...)
		}
		mirror[vi] = d
	}
	patched := streamBuild(t, g, disk, caps, slices, shardSize, demands)

	rng := rand.New(rand.NewSource(seed))
	const steps = 200
	for step := 0; step < steps; step++ {
		vi := rng.Intn(videos)
		js, agg, conc := randomProfile(rng, nodes, slices)
		if err := patched.ApplyDemandDelta(vi, js, agg, conc); err != nil {
			t.Fatalf("step %d: patch video %d: %v", step, vi, err)
		}
		// The mirror keeps pristine copies; the caller-owned slices are then
		// scribbled over, so any aliasing bug in the copy-on-write path shows
		// up as a mismatch against the from-scratch rebuild below.
		mirror[vi].Js = append([]int32(nil), js...)
		mirror[vi].Agg = append([]float64(nil), agg...)
		mirror[vi].Conc = make([][]float64, slices)
		for tt := range conc {
			mirror[vi].Conc[tt] = append([]float64(nil), conc[tt]...)
		}
		for k := range js {
			js[k] = -99
			agg[k] = -99
		}
		for tt := range conc {
			for k := range conc[tt] {
				conc[tt][k] = -99
			}
		}
	}
	if patched.Generation() != steps {
		t.Fatalf("generation %d after %d patches", patched.Generation(), steps)
	}

	rebuilt := streamBuild(t, g, disk, caps, slices, shardSize, mirror)
	assertInstancesEqual(t, patched, rebuilt)
	if len(patched.Shards) != len(rebuilt.Shards) {
		t.Fatalf("%d shards vs %d", len(patched.Shards), len(rebuilt.Shards))
	}
	for si := range patched.Shards {
		if patched.Shards[si] != rebuilt.Shards[si] {
			t.Fatalf("shard %d differs after patching: %+v vs %+v",
				si, patched.Shards[si], rebuilt.Shards[si])
		}
	}
}

// TestApplyDemandDeltaRejects pins the validation and atomicity contract: a
// profile the builder would reject is rejected with the builder's message,
// and a failed patch leaves the instance — row, shard tallies, generation —
// untouched.
func TestApplyDemandDeltaRejects(t *testing.T) {
	g, disk, caps, demands := builderProblem(t, 5, 5, 12, 2, 4)
	inst := streamBuild(t, g, disk, caps, 2, 4, demands)

	conc2 := func(k int) [][]float64 { return [][]float64{make([]float64, k), make([]float64, k)} }
	cases := []struct {
		name string
		vi   int
		js   []int32
		agg  []float64
		conc [][]float64
		want string
	}{
		{"index out of range", 12, nil, nil, conc2(0), "out of range"},
		{"negative index", -1, nil, nil, conc2(0), "out of range"},
		{"agg length mismatch", 3, []int32{0, 2}, []float64{1}, conc2(2), "agg entries"},
		{"slice count mismatch", 3, []int32{0}, []float64{1}, [][]float64{{0}}, "concurrency slices"},
		{"slice width mismatch", 3, []int32{0, 1}, []float64{1, 1}, [][]float64{{0, 0}, {0}}, "entries for"},
		{"office out of range", 3, []int32{0, 5}, []float64{1, 1}, conc2(2), "out of range"},
		{"offices not ascending", 3, []int32{2, 1}, []float64{1, 1}, conc2(2), "not strictly ascending"},
		{"negative aggregate", 3, []int32{0, 1}, []float64{1, -1}, conc2(2), "negative demand"},
		{"infinite concurrency", 3, []int32{0, 1}, []float64{1, 1}, [][]float64{{0, 0}, {0, math.Inf(1)}}, "non-finite concurrency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			beforeRow := inst.Demands[3]
			beforeShards := append([]InstanceShard(nil), inst.Shards...)
			beforeGen := inst.Generation()
			err := inst.ApplyDemandDelta(tc.vi, tc.js, tc.agg, tc.conc)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
			after := inst.Demands[3]
			if &beforeRow.Js[0] != &after.Js[0] || len(beforeRow.Js) != len(after.Js) ||
				beforeRow.NNZ() != after.NNZ() {
				t.Fatal("failed patch mutated the row")
			}
			for si := range beforeShards {
				if inst.Shards[si] != beforeShards[si] {
					t.Fatalf("failed patch changed shard %d", si)
				}
			}
			if inst.Generation() != beforeGen {
				t.Fatal("failed patch bumped the generation")
			}
		})
	}
}

// TestApplyDemandDeltaShardOf pins the owning-shard lookup across every
// video index and shard boundary.
func TestApplyDemandDeltaShardOf(t *testing.T) {
	g, disk, caps, demands := builderProblem(t, 7, 4, 23, 2, 3)
	inst := streamBuild(t, g, disk, caps, 2, 5, demands)
	for vi := range inst.Demands {
		si := inst.shardOf(vi)
		sh := inst.Shards[si]
		if vi < sh.Lo || vi >= sh.Hi {
			t.Fatalf("video %d mapped to shard %d [%d,%d)", vi, si, sh.Lo, sh.Hi)
		}
	}
}
