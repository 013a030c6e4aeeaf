package serve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"vodplace/internal/mip"
	"vodplace/internal/topology"
)

// instance builds a fresh placement instance from the current state by
// streaming every row through an InstanceBuilder with one reused staging
// demand (the builder copies what it keeps): the full-catalog rebuild the
// tests hold patchInstance's in-place rows to.
func (st *demandState) instance(base *mip.Instance) (*mip.Instance, error) {
	b, err := mip.NewInstanceBuilder(base.G, base.DiskGB, base.LinkCapMbps, st.slices, 0)
	if err != nil {
		return nil, err
	}
	staging := st.newStaging()
	for vi := range st.rows {
		st.fillStaging(vi, &staging)
		if err := b.Add(&staging); err != nil {
			return nil, fmt.Errorf("video %d: %w", st.rows[vi].video, err)
		}
	}
	inst, err := b.Seal()
	if err != nil {
		return nil, err
	}
	inst.Alpha, inst.Beta = base.Alpha, base.Beta
	return inst, nil
}

// aggCell is the tests' one handle on a state cell: the aggregate demand of
// row vi at office j, inserting zeroed cells as apply would when the row
// holds none for j (they stay invisible to staging until positive).
func (st *demandState) aggCell(vi, j int) *float64 {
	return &st.rows[vi].cellsAt(j, 1+st.slices)[0]
}

// sameBits reports whether two float slices hold the same bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// matchDense fails the test unless the sparse state and the dense reference
// agree bit for bit on everything the resolver reads: every row's staging
// (identity, Js, Agg, Conc), the drift and the dirty set.
func matchDense(t *testing.T, when string, st *demandState, ds *denseState) {
	t.Helper()
	if math.Float64bits(st.drift) != math.Float64bits(ds.drift) {
		t.Fatalf("%s: drift %v, dense %v", when, st.drift, ds.drift)
	}
	if !reflect.DeepEqual(st.dirty, ds.dirty) {
		t.Fatalf("%s: dirty %v, dense %v", when, st.dirty, ds.dirty)
	}
	got, want := st.newStaging(), st.newStaging()
	for vi := range st.rows {
		st.fillStaging(vi, &got)
		ds.fillStaging(vi, &want)
		if got.Video != want.Video || got.SizeGB != want.SizeGB || got.RateMbps != want.RateMbps {
			t.Fatalf("%s: row %d identity %d/%v/%v, dense %d/%v/%v", when, vi,
				got.Video, got.SizeGB, got.RateMbps, want.Video, want.SizeGB, want.RateMbps)
		}
		if !slices.Equal(got.Js, want.Js) || !sameBits(got.Agg, want.Agg) {
			t.Fatalf("%s: row %d offices %v agg %v, dense %v agg %v", when, vi, got.Js, got.Agg, want.Js, want.Agg)
		}
		for t2 := range want.Conc {
			if !sameBits(got.Conc[t2], want.Conc[t2]) {
				t.Fatalf("%s: row %d slice %d conc %v, dense %v", when, vi, t2, got.Conc[t2], want.Conc[t2])
			}
		}
	}
}

// zeroOfficeInstance is a seed whose rows carry offices the keep-filter
// drops: video 10's office 2 is all zero (its office 4 has only
// concurrency), video 11's row is all zero, video 12 has demand everywhere.
func zeroOfficeInstance(t *testing.T) *mip.Instance {
	t.Helper()
	const n = 5
	g := topology.FullMesh(n)
	demands := []mip.VideoDemand{
		{Video: 10, SizeGB: 2, RateMbps: 4, Js: []int32{0, 2, 4}, Agg: []float64{3, 0, 0},
			Conc: [][]float64{{1, 0, 0}, {0, 0, 2}}},
		{Video: 11, SizeGB: 1, RateMbps: 4, Js: []int32{1, 3}, Agg: []float64{0, 0},
			Conc: [][]float64{{0, 0}, {0, 0}}},
		{Video: 12, SizeGB: 3, RateMbps: 2, Js: []int32{0, 1, 2, 3, 4}, Agg: []float64{1, 2, 3, 4, 5},
			Conc: [][]float64{{0.5, 0.5, 1, 1, 2}, {0.25, 0, 0.5, 0, 1}}},
	}
	inst, err := mip.NewInstance(g, uniform(n, 1e6), uniform(g.NumLinks(), 1e6), 2, demands)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestStateMatchesDense walks the sparse rows through every shape apply can
// give them — a new office (in the middle and at the end of a row), a decay
// to zero and a re-add, saturation at maxDemandCell, negative adds that
// clamp (on a held and on an absent office), a seed whose rows carry
// all-zero offices — then a random stream over a synthetic catalog, and
// after every batch holds the state to the parent commit's dense layout.
func TestStateMatchesDense(t *testing.T) {
	inst := zeroOfficeInstance(t)
	st, ds := stateFromInstance(inst), denseStateFromInstance(inst)
	if !sameBits(st.concFrac, ds.concFrac) {
		t.Fatalf("concFrac %v, dense %v", st.concFrac, ds.concFrac)
	}
	matchDense(t, "seed", st, ds)
	if got := st.rows[1].js; !slices.Equal(got, []int32{1, 3}) {
		t.Fatalf("all-zero seed row holds offices %v, want the instance's [1 3]", got)
	}

	batches := [][]DemandUpdate{
		{{Video: 10, VHO: 1, Add: 5}, {Video: 11, VHO: 4, Add: 2}, {Video: 12, VHO: 0, Add: -1e6}, {Video: 10, VHO: 2, Add: 4}},
		{{Video: 12, VHO: 0, Add: 7}, {Video: 10, VHO: 3, Add: -5}, {Video: 11, VHO: 1, Add: -1}},
		{{Video: 12, VHO: 4, Add: maxDemandCell}, {Video: 12, VHO: 4, Add: maxDemandCell}, {Video: 10, VHO: 0, Add: -maxDemandCell}},
		{{Video: 12, VHO: 4, Add: -maxDemandCell}, {Video: 10, VHO: 0, Add: 0.1}, {Video: 11, VHO: 0, Add: 1.0 / 3}},
	}
	for b, us := range batches {
		if err := st.validate(us); err != nil {
			t.Fatal(err)
		}
		st.apply(us)
		ds.apply(us)
		matchDense(t, fmt.Sprintf("batch %d", b), st, ds)
		switch b {
		case 0:
			// The decayed office stays in the row; staging drops it.
			if !slices.Contains(st.rows[2].js, 0) {
				t.Fatalf("row 2 dropped decayed office 0: %v", st.rows[2].js)
			}
			if got := st.rows[0].js; !slices.Equal(got, []int32{0, 1, 2, 4}) {
				t.Fatalf("row 0 offices %v after a new office 1, want [0 1 2 4]", got)
			}
		case 1:
			if got := st.rows[0].js; !slices.Equal(got, []int32{0, 1, 2, 3, 4}) {
				t.Fatalf("row 0 offices %v after a clamped add at office 3, want [0 1 2 3 4]", got)
			}
		case 2:
			if got := *st.aggCell(2, 4); got != maxDemandCell {
				t.Fatalf("two adds at the bound left the cell at %g, want %g", got, maxDemandCell)
			}
		}
		if got, want := st.drainDirty(), ds.drainDirty(); !slices.Equal(got, want) {
			t.Fatalf("batch %d: drained %v, dense %v", b, got, want)
		}
	}

	// A random stream: touches concentrated on few rows so offices enter,
	// decay, saturate and return; dirty sets are drained now and then.
	base := syntheticInstance(t, 40, 8, 2, 3)
	st, ds = stateFromInstance(base), denseStateFromInstance(base)
	rng := rand.New(rand.NewSource(5))
	adds := []float64{1, 2.5, 40, -1, -7.25, -1e6, maxDemandCell, -maxDemandCell, 1.0 / 3, 0}
	for b := 0; b < 300; b++ {
		us := make([]DemandUpdate, 1+rng.Intn(8))
		for x := range us {
			us[x] = DemandUpdate{Video: base.Demands[rng.Intn(10)].Video, VHO: rng.Intn(8), Add: adds[rng.Intn(len(adds))]}
		}
		st.apply(us)
		ds.apply(us)
		matchDense(t, fmt.Sprintf("random batch %d", b), st, ds)
		if rng.Intn(5) == 0 {
			if got, want := st.drainDirty(), ds.drainDirty(); !slices.Equal(got, want) {
				t.Fatalf("random batch %d: drained %v, dense %v", b, got, want)
			}
		}
	}
}

// fuzzAdds are the update magnitudes FuzzStateMatchesDense draws from: small
// and fractional adds, decays that clamp at zero, and adds at the bound.
var fuzzAdds = []float64{1, 2.5, 0.1, 1.0 / 3, 40, -1, -0.1, -7.25, -1e6, 1e6, maxDemandCell, -maxDemandCell, 0}

// FuzzStateMatchesDense decodes a seed instance (offices, aggregates and
// concurrency that may be zero) and a stream of update batches from the
// input, applies every batch to the sparse state and the dense reference,
// and after each one holds them to the same staging rows, drift and dirty
// set, bit for bit.
func FuzzStateMatchesDense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0x0b, 2, 0, 1, 3, 1, 0x06, 0, 0, 0, 0, 2, 0, 1, 4, 1, 1, 1, 10, 2, 1, 0, 6, 0, 0, 11})
	f.Add([]byte{6, 2, 4, 0xff, 1, 1, 0, 2, 2, 2, 0, 0, 0, 3, 1, 2, 1, 5, 3, 7, 2, 9, 10, 10, 3, 3, 0, 12, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := &fuzzBytes{data: data}
		n := 2 + int(rd.next())%7  // 2..8 offices
		nt := 1 + int(rd.next())%3 // 1..3 slices
		nv := 1 + int(rd.next())%5 // 1..5 videos
		demands := make([]mip.VideoDemand, nv)
		for v := range demands {
			d := mip.VideoDemand{Video: 2 * v, SizeGB: 1, RateMbps: 2, Conc: make([][]float64, nt)}
			mask := rd.next()
			for j := 0; j < n; j++ {
				if mask>>uint(j)&1 == 0 {
					continue
				}
				d.Js = append(d.Js, int32(j))
				d.Agg = append(d.Agg, float64(rd.next()%4))
				for t := range d.Conc {
					d.Conc[t] = append(d.Conc[t], float64(rd.next()%3)/2)
				}
			}
			demands[v] = d
		}
		g := topology.FullMesh(n)
		inst, err := mip.NewInstance(g, uniform(n, 1e6), uniform(g.NumLinks(), 1e6), nt, demands)
		if err != nil {
			return // instance validation rejected the decode; not our contract
		}
		st, ds := stateFromInstance(inst), denseStateFromInstance(inst)
		if !sameBits(st.concFrac, ds.concFrac) {
			t.Fatalf("concFrac %v, dense %v", st.concFrac, ds.concFrac)
		}
		matchDense(t, "seed", st, ds)
		for b := 0; rd.pos < len(rd.data); b++ {
			us := make([]DemandUpdate, 1+int(rd.next())%6)
			for x := range us {
				us[x] = DemandUpdate{
					Video: 2 * (int(rd.next()) % nv),
					VHO:   int(rd.next()) % n,
					Add:   fuzzAdds[int(rd.next())%len(fuzzAdds)],
				}
			}
			if err := st.validate(us); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			st.apply(us)
			ds.apply(us)
			matchDense(t, fmt.Sprintf("batch %d", b), st, ds)
			if rd.next()%4 == 0 {
				if got, want := st.drainDirty(), ds.drainDirty(); !slices.Equal(got, want) {
					t.Fatalf("batch %d: drained %v, dense %v", b, got, want)
				}
			}
		}
	})
}

// sameDemandInstance gives every one of videos the same demand — offices 1,
// 4 and 8, two slices — on an n-office tree.
func sameDemandInstance(t *testing.T, videos, n int) *mip.Instance {
	t.Helper()
	g := topology.Tree(n)
	b, err := mip.NewInstanceBuilder(g, uniform(n, 1e12), uniform(g.NumLinks(), 1e12), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := mip.VideoDemand{
		SizeGB: 1, RateMbps: 4,
		Js:   []int32{1, 4, 8},
		Agg:  []float64{5, 2, 3},
		Conc: [][]float64{{0.5, 0.5, 0.5}, {1, 0, 1}},
	}
	for v := 0; v < videos; v++ {
		d.Video = v
		if err := b.Add(&d); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestDemandStateSizedByDemand pins what the sparse rows are for: the bytes
// stateFromInstance allocates per video follow the offices the video has
// demand at, not the offices in the network. The same three-office demand
// on a 10- and a 55-office network must cost within 10% of each other.
func TestDemandStateSizedByDemand(t *testing.T) {
	const videos = 4000
	perVideo := func(n int) float64 {
		inst := sameDemandInstance(t, videos, n)
		best := math.Inf(1)
		for range 3 { // least of three, against stray allocations elsewhere
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st := stateFromInstance(inst)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(st)
			best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/videos)
		}
		return best
	}
	small, large := perVideo(10), perVideo(55)
	if math.Abs(large-small) >= 0.1*small {
		t.Errorf("demand state allocates %.0f B/video on 10 offices, %.0f B/video on 55, for the same demand", small, large)
	}
}

// BenchmarkDemandState100k is the demand state at the daemon's shape — 55
// offices, two slices, about 14 demand offices per video — over 100 000
// videos: stateFromInstance, then one 1 000-update batch applied and patched
// into the instance. B/video is what one iteration allocates per video,
// nearly all of it the state's rows.
func BenchmarkDemandState100k(b *testing.B) {
	inst := syntheticInstance(b, 100_000, 55, 2, 7)
	videos := len(inst.Demands)
	const k = 1000
	updates := make([]DemandUpdate, k)
	for x := range updates {
		vi := x * (videos / k)
		updates[x] = DemandUpdate{Video: inst.Demands[vi].Video, VHO: vi % 55, Add: 3}
	}
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		st := stateFromInstance(inst)
		st.apply(updates)
		if err := st.patchInstance(inst, st.drainDirty()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(videos), "B/video")
}
