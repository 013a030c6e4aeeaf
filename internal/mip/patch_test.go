package mip

import (
	"math"
	"math/rand"
	"slices"
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

// FuzzApplyDemandDelta applies a script of demand deltas — valid profiles and
// each kind the builder refuses, to in- and out-of-range videos — to a built
// instance. A refused delta must leave every row, shard tally and the
// generation untouched and carry the builder's own error for the same
// profile; after the script the instance must equal, byte for byte, an
// InstanceBuilder rebuild of the rows the accepted deltas left.
func FuzzApplyDemandDelta(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte{3, 0x1f, 0, 8, 16, 24, 32, 40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(int64(2), uint8(0), []byte{0, 0x0b, 9, 1, 2, 3, 10, 0x03, 8, 5, 6, 0, 1, 2, 3, 4, 10, 0x07, 12, 1, 1, 1})
	f.Add(int64(3), uint8(4), []byte{5, 0x00, 3, 7, 0x15, 14, 9, 9, 9, 8, 0x1e, 15, 1, 2, 3, 4, 0, 0, 0, 0, 6, 0x06, 11, 4, 4})
	f.Fuzz(func(t *testing.T, seed int64, shardB uint8, script []byte) {
		const nodes, videos, nSlices, maxDeltas = 5, 9, 2, 32
		shardSize := int(shardB % 5)
		g, disk, caps, demands := builderProblem(t, seed, nodes, videos, nSlices, 4)
		inst := streamBuild(t, g, disk, caps, nSlices, shardSize, demands)
		mirror := make([]VideoDemand, videos)
		for vi, d := range demands {
			mirror[vi] = VideoDemand{Video: d.Video, SizeGB: d.SizeGB, RateMbps: d.RateMbps,
				Js: slices.Clone(d.Js), Agg: slices.Clone(d.Agg), Conc: cloneConc(d.Conc)}
		}
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		var accepted uint64
		for step := 0; step < maxDeltas && len(script) > 0; step++ {
			vi := int(next())%(videos+2) - 1
			js, agg, conc := fuzzProfile(next, nodes, nSlices)

			rows, shards, gen := slices.Clone(inst.Demands), slices.Clone(inst.Shards), inst.Generation()
			err := inst.ApplyDemandDelta(vi, js, agg, conc)
			if err != nil {
				for r := range rows {
					if !sameRow(&rows[r], &inst.Demands[r]) {
						t.Fatalf("step %d: refused delta (%v) touched row %d", step, err, r)
					}
				}
				if !slices.Equal(shards, inst.Shards) || gen != inst.Generation() {
					t.Fatalf("step %d: refused delta (%v) touched the shard tallies or the generation", step, err)
				}
				if vi < 0 || vi >= videos {
					continue
				}
				d := &mirror[vi]
				b, berr := NewInstanceBuilder(g, disk, caps, nSlices, shardSize)
				if berr != nil {
					t.Fatal(berr)
				}
				staged := VideoDemand{Video: d.Video, SizeGB: d.SizeGB, RateMbps: d.RateMbps, Js: js, Agg: agg, Conc: conc}
				if berr := b.Add(&staged); berr == nil || berr.Error() != err.Error() {
					t.Fatalf("step %d: patch refused with %q, the builder says %v", step, err, berr)
				}
				continue
			}
			accepted++
			mirror[vi].Js, mirror[vi].Agg, mirror[vi].Conc = slices.Clone(js), slices.Clone(agg), cloneConc(conc)
			// Scribble over the caller's slices: a patch that aliased them
			// shows up as a mismatch against the rebuild.
			for k := range js {
				js[k], agg[k] = -99, -99
			}
			for tt := range conc {
				for k := range conc[tt] {
					conc[tt][k] = -99
				}
			}
		}
		if inst.Generation() != accepted {
			t.Fatalf("generation %d after %d accepted deltas", inst.Generation(), accepted)
		}
		rebuilt := streamBuild(t, g, disk, caps, nSlices, shardSize, mirror)
		if len(inst.Shards) != len(rebuilt.Shards) {
			t.Fatalf("%d shards vs %d rebuilt", len(inst.Shards), len(rebuilt.Shards))
		}
		for si := range inst.Shards {
			a, b := inst.Shards[si], rebuilt.Shards[si]
			if a.Lo != b.Lo || a.Hi != b.Hi || a.NNZ != b.NNZ || math.Float64bits(a.SizeGB) != math.Float64bits(b.SizeGB) {
				t.Fatalf("shard %d: %+v patched, %+v rebuilt", si, a, b)
			}
		}
		for vi := range inst.Demands {
			a, b := &inst.Demands[vi], &rebuilt.Demands[vi]
			if a.Video != b.Video || !sameBits([]float64{a.SizeGB, a.RateMbps}, []float64{b.SizeGB, b.RateMbps}) ||
				!slices.Equal(a.Js, b.Js) || !sameBits(a.Agg, b.Agg) || len(a.Conc) != len(b.Conc) ||
				!slices.Equal(a.concOff, b.concOff) || !slices.Equal(a.concT, b.concT) || !sameBits(a.concV, b.concV) {
				t.Fatalf("video %d: patched row %+v, rebuilt %+v", vi, *a, *b)
			}
		}
	})
}

// fuzzProfile decodes one demand profile from the script: an office mask,
// per-office aggregates and per-(slice, office) concurrency, then a byte that
// either keeps the profile or breaks it in one of the ways validation refuses.
func fuzzProfile(next func() byte, nodes, nSlices int) (js []int32, agg []float64, conc [][]float64) {
	mask := next()
	for j := 0; j < nodes; j++ {
		if mask&(1<<j) != 0 {
			js = append(js, int32(j))
			agg = append(agg, float64(next())/8)
		}
	}
	conc = make([][]float64, nSlices)
	for tt := range conc {
		conc[tt] = make([]float64, len(js))
		for k := range conc[tt] {
			if v := next() % 7; v < 4 {
				conc[tt][k] = float64(v)
			}
		}
	}
	switch last := len(js) - 1; next() % 16 {
	case 8: // offices out of order
		if last > 0 {
			js[0], js[last] = js[last], js[0]
		}
	case 9: // office out of range
		js = append(js, int32(nodes))
		agg = append(agg, 1)
		for tt := range conc {
			conc[tt] = append(conc[tt], 0)
		}
	case 10: // negative aggregate
		if last >= 0 {
			agg[last] = -1
		}
	case 11: // non-finite aggregate
		if last >= 0 {
			agg[0] = math.NaN()
		}
	case 12: // non-finite concurrency
		if last >= 0 {
			conc[nSlices-1][last] = math.Inf(1)
		}
	case 13: // aggregates short of the offices
		if last >= 0 {
			agg = agg[:last]
		}
	case 14: // a slice missing
		conc = conc[:nSlices-1]
	case 15: // a slice short of the offices
		if last >= 0 {
			conc[0] = conc[0][:last]
		}
	}
	return js, agg, conc
}

// cloneConc deep-copies dense concurrency staging.
func cloneConc(conc [][]float64) [][]float64 {
	out := make([][]float64, len(conc))
	for tt := range conc {
		out[tt] = slices.Clone(conc[tt])
	}
	return out
}

// sameRow reports whether two demand rows are the same slices over the same
// backing arrays, field for field.
func sameRow(a, b *VideoDemand) bool {
	return a.Video == b.Video && a.SizeGB == b.SizeGB && a.RateMbps == b.RateMbps &&
		sameBacking(a.Js, b.Js) && sameBacking(a.Agg, b.Agg) && sameBacking(a.Conc, b.Conc) &&
		sameBacking(a.concOff, b.concOff) && sameBacking(a.concT, b.concT) && sameBacking(a.concV, b.concV)
}

// sameBacking reports whether a and b are the same slice header.
func sameBacking[T any](a, b []T) bool {
	return len(a) == len(b) && cap(a) == cap(b) && (cap(a) == 0 || &a[:1][0] == &b[:1][0])
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
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
