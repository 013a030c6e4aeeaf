package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/topology"
)

// syntheticInstance builds a catalog of sparse demand rows directly through
// the instance builder — no trace generation, no solver — cheap enough for
// the 100k-video delta benchmarks. Library ids are the video indices.
func syntheticInstance(tb testing.TB, videos, vhos, slices int, seed int64) *mip.Instance {
	tb.Helper()
	g := topology.Random(vhos, 1.2, seed)
	b, err := mip.NewInstanceBuilder(g, uniform(vhos, 1e12), uniform(g.NumLinks(), 1e12), slices, 0)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	js := make([]int32, 0, 3)
	agg := make([]float64, 0, 3)
	conc := make([][]float64, slices)
	for vi := 0; vi < videos; vi++ {
		js, agg = js[:0], agg[:0]
		for j := 0; j < vhos; j++ {
			// ~2.5 offices per video on a 10-office graph.
			if rng.Intn(4) != 0 {
				continue
			}
			js = append(js, int32(j))
			agg = append(agg, 1+rng.Float64()*20)
		}
		if len(js) == 0 {
			js = append(js, int32(vi%vhos))
			agg = append(agg, 1)
		}
		for t := range conc {
			conc[t] = conc[t][:0]
			for range js {
				conc[t] = append(conc[t], rng.Float64())
			}
		}
		d := mip.VideoDemand{
			Video: vi, SizeGB: 1 + float64(vi%7), RateMbps: 4,
			Js: js, Agg: agg, Conc: conc,
		}
		if err := b.Add(&d); err != nil {
			tb.Fatal(err)
		}
	}
	inst, err := b.Seal()
	if err != nil {
		tb.Fatal(err)
	}
	inst.Alpha, inst.Beta = 1, 0.25
	return inst
}

// onePerVideoSolution opens office vi%n for every video — the cheapest
// placement shape that exercises the snapshot build without a solver run.
func onePerVideoSolution(inst *mip.Instance) *mip.Solution {
	n := inst.NumVHOs()
	sol := &mip.Solution{Inst: inst, Videos: make([]mip.VideoPlacement, len(inst.Demands))}
	for vi := range sol.Videos {
		sol.Videos[vi].Open = []mip.Frac{{I: int32(vi % n), V: 1}}
	}
	return sol
}

// deltaFx is the shared 100k-video fixture for the resolve benchmarks,
// built once: a live instance, its demand state, a synthetic placement and
// the published snapshot the incremental builds chain from.
var deltaFx struct {
	once sync.Once
	inst *mip.Instance
	st   *demandState
	sol  *mip.Solution
	snap *Snapshot
	ver  uint64
}

func deltaFixture(b *testing.B) {
	deltaFx.once.Do(func() {
		const videos, vhos = 100_000, 10
		deltaFx.inst = syntheticInstance(b, videos, vhos, 2, 1)
		deltaFx.st = stateFromInstance(deltaFx.inst)
		deltaFx.sol = onePerVideoSolution(deltaFx.inst)
		snap, err := buildSnapshot(deltaFx.inst, deltaFx.sol, 1, true)
		if err != nil {
			b.Fatal(err)
		}
		deltaFx.snap = snap
		deltaFx.ver = 1
	})
}

// benchmarkResolveDelta measures one delta resolve step minus the solver:
// fold a k-video update batch into the state, patch the live instance's
// dirty rows in place, and build the next snapshot incrementally from the
// previous one. The solver is excluded on purpose — its cost depends on
// convergence, not on the delta plumbing this benchmark isolates.
func benchmarkResolveDelta(b *testing.B, k int) {
	deltaFixture(b)
	videos := len(deltaFx.inst.Demands)
	updates := make([]DemandUpdate, k)
	stride := videos / k
	for x := range updates {
		vi := x * stride
		updates[x] = DemandUpdate{Video: deltaFx.inst.Demands[vi].Video, VHO: vi % deltaFx.snap.n, Add: 3}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltaFx.st.apply(updates)
		dirty := deltaFx.st.drainDirty()
		if err := deltaFx.st.patchInstance(deltaFx.inst, dirty); err != nil {
			b.Fatal(err)
		}
		deltaFx.ver++
		snap, rebuilt, err := buildSnapshotFrom(deltaFx.snap, deltaFx.inst, deltaFx.sol, deltaFx.ver, true)
		if err != nil {
			b.Fatal(err)
		}
		if rebuilt != 0 {
			b.Fatalf("rebuilt %d rows with no open set changed (incremental mode not engaged?)", rebuilt)
		}
		deltaFx.snap = snap
	}
}

func BenchmarkResolveDelta1of100k(b *testing.B)    { benchmarkResolveDelta(b, 1) }
func BenchmarkResolveDelta10of100k(b *testing.B)   { benchmarkResolveDelta(b, 10) }
func BenchmarkResolveDelta100of100k(b *testing.B)  { benchmarkResolveDelta(b, 100) }
func BenchmarkResolveDelta1000of100k(b *testing.B) { benchmarkResolveDelta(b, 1000) }

// BenchmarkResolveFull100k is the pre-delta baseline the ResolveDelta
// benchmarks are compared against: the same update batch, then a full
// catalog re-stream and a from-scratch snapshot build.
func BenchmarkResolveFull100k(b *testing.B) {
	deltaFixture(b)
	videos := len(deltaFx.inst.Demands)
	const k = 1000
	updates := make([]DemandUpdate, k)
	for x := range updates {
		vi := x * (videos / k)
		updates[x] = DemandUpdate{Video: deltaFx.inst.Demands[vi].Video, VHO: vi % deltaFx.snap.n, Add: 3}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltaFx.st.apply(updates)
		deltaFx.st.drainDirty()
		inst, err := deltaFx.st.instance(deltaFx.inst)
		if err != nil {
			b.Fatal(err)
		}
		sol := &mip.Solution{Inst: inst, Videos: deltaFx.sol.Videos}
		deltaFx.ver++
		if _, _, err := buildSnapshotFrom(nil, inst, sol, deltaFx.ver, true); err != nil {
			b.Fatal(err)
		}
	}
	// The live instance missed this benchmark's state changes; resync so a
	// later delta benchmark in the same process patches from a consistent
	// base.
	b.StopTimer()
	inst, err := deltaFx.st.instance(deltaFx.inst)
	if err != nil {
		b.Fatal(err)
	}
	deltaFx.inst = inst
	deltaFx.sol = onePerVideoSolution(inst)
	snap, err := buildSnapshot(inst, deltaFx.sol, deltaFx.ver, true)
	if err != nil {
		b.Fatal(err)
	}
	deltaFx.snap = snap
}

// TestDemandDecodeNoLeakAcrossRequests pins the pooled-decode contract: a
// request whose updates omit fields must not inherit values a previous
// request decoded into the same reused batch slots (regression for the
// clear-before-decode in readDemandBatch).
func TestDemandDecodeNoLeakAcrossRequests(t *testing.T) {
	sc := &demandScratch{body: make([]byte, 0, 4096)}
	first := `[{"video":7,"vho":3,"add":100}]`
	if err := readDemandBatch(nil, io.NopCloser(strings.NewReader(first)), sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.updates) != 1 || sc.updates[0].Add != 100 {
		t.Fatalf("first decode: got %+v", sc.updates)
	}
	second := `[{"video":1,"vho":2}]`
	if err := readDemandBatch(nil, io.NopCloser(strings.NewReader(second)), sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.updates) != 1 {
		t.Fatalf("second decode: got %d updates, want 1", len(sc.updates))
	}
	if got := sc.updates[0]; got.Video != 1 || got.VHO != 2 || got.Add != 0 {
		t.Fatalf("second decode leaked pooled state: got %+v, want {Video:1 VHO:2 Add:0}", got)
	}
}

// BenchmarkServeDemandDecode measures the pooled POST /demand decode path:
// body read into the reused buffer plus JSON decode into the reused batch
// slice. The allocs/op figure is the satellite's contract — steady-state
// decoding must not re-allocate the megabyte read buffer or the batch.
func BenchmarkServeDemandDecode(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("[")
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"video":%d,"vho":%d,"add":%d.5}`, i*17, i%8, i)
	}
	sb.WriteString("]")
	body := []byte(sb.String())
	sc := &demandScratch{body: make([]byte, 0, 4096)}
	rd := bytes.NewReader(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		if err := readDemandBatch(nil, io.NopCloser(rd), sc); err != nil {
			b.Fatal(err)
		}
		if len(sc.updates) != 64 {
			b.Fatalf("decoded %d updates, want 64", len(sc.updates))
		}
	}
}

// equalInstanceDemands fails the test unless both instances carry
// bit-identical demand rows (identity fields, office sets, aggregates,
// concurrency CSR) and identical shard tallies.
func equalInstanceDemands(t *testing.T, got, want *mip.Instance) {
	t.Helper()
	if len(got.Demands) != len(want.Demands) {
		t.Fatalf("%d demands, want %d", len(got.Demands), len(want.Demands))
	}
	for vi := range want.Demands {
		a, b := &got.Demands[vi], &want.Demands[vi]
		if a.Video != b.Video || a.SizeGB != b.SizeGB || a.RateMbps != b.RateMbps {
			t.Fatalf("video index %d: identity mismatch", vi)
		}
		if len(a.Js) != len(b.Js) {
			t.Fatalf("video index %d: %d offices, want %d", vi, len(a.Js), len(b.Js))
		}
		for k := range b.Js {
			if a.Js[k] != b.Js[k] || a.Agg[k] != b.Agg[k] {
				t.Fatalf("video index %d office slot %d: agg mismatch", vi, k)
			}
			at, av := a.ConcNZ(k)
			bt, bv := b.ConcNZ(k)
			if len(at) != len(bt) {
				t.Fatalf("video index %d office slot %d: conc nnz mismatch", vi, k)
			}
			for x := range bt {
				if at[x] != bt[x] || av[x] != bv[x] {
					t.Fatalf("video index %d office slot %d: conc mismatch", vi, k)
				}
			}
		}
	}
	if len(got.Shards) != len(want.Shards) {
		t.Fatalf("%d shards, want %d", len(got.Shards), len(want.Shards))
	}
	for si := range want.Shards {
		if got.Shards[si] != want.Shards[si] {
			t.Fatalf("shard %d: %+v, want %+v", si, got.Shards[si], want.Shards[si])
		}
	}
}

// equalSnapshots fails the test unless both snapshots answer every routing
// question identically: same answer for every (video, office), same id
// mapping, same recorded open sets.
func equalSnapshots(t *testing.T, round int, got, want *Snapshot) {
	t.Helper()
	if got.n != want.n || len(got.openOff) != len(want.openOff) {
		t.Fatalf("round %d: shape %dx%d, want %dx%d", round, len(got.openOff)-1, got.n, len(want.openOff)-1, want.n)
	}
	for vi := int32(0); int(vi) < len(want.openOff)-1; vi++ {
		for j := 0; j < want.n; j++ {
			if g, w := got.serving(vi, j), want.serving(vi, j); g != w {
				t.Fatalf("round %d: video index %d, vho %d served from %d, want %d", round, vi, j, g, w)
			}
		}
	}
	if len(got.vidIdx) != len(want.vidIdx) {
		t.Fatalf("round %d: vidIdx length %d, want %d", round, len(got.vidIdx), len(want.vidIdx))
	}
	for i := range want.vidIdx {
		if got.vidIdx[i] != want.vidIdx[i] {
			t.Fatalf("round %d: vidIdx[%d] = %d, want %d", round, i, got.vidIdx[i], want.vidIdx[i])
		}
	}
	if len(got.openOff) != len(want.openOff) || len(got.openIdx) != len(want.openIdx) {
		t.Fatalf("round %d: open CSR shape mismatch", round)
	}
	for i := range want.openOff {
		if got.openOff[i] != want.openOff[i] {
			t.Fatalf("round %d: openOff[%d] = %d, want %d", round, i, got.openOff[i], want.openOff[i])
		}
	}
	for i := range want.openIdx {
		if got.openIdx[i] != want.openIdx[i] {
			t.Fatalf("round %d: openIdx[%d] = %d, want %d", round, i, got.openIdx[i], want.openIdx[i])
		}
	}
}

// TestDeltaSnapshotEquivalence is the differential test of the tentpole:
// random demand-delta sequences are folded into two identical states; one
// side patches a live instance and builds snapshots incrementally, the
// other re-streams the catalog and builds from scratch every round. The
// patched instance (rows, CSR, shard tallies) and the incremental snapshot
// (routes, id map, open CSR) must stay byte-identical to the rebuilt
// ones through every round, including rows negative updates empty out.
func TestDeltaSnapshotEquivalence(t *testing.T) {
	const videos, vhos, slices, rounds = 300, 8, 2, 12
	rng := rand.New(rand.NewSource(17))
	base := syntheticInstance(t, videos, vhos, slices, 5)
	stA := stateFromInstance(base)
	stB := stateFromInstance(base)
	live, err := stA.instance(base)
	if err != nil {
		t.Fatal(err)
	}

	// The placement both sides share, mutated between rounds so the
	// incremental build sees open-set churn on top of demand churn.
	open := make([][]mip.Frac, videos)
	for vi := range open {
		open[vi] = []mip.Frac{{I: int32(vi % vhos), V: 1}}
	}
	buildVids := func() []mip.VideoPlacement {
		vids := make([]mip.VideoPlacement, videos)
		for vi := range vids {
			vids[vi].Open = open[vi]
		}
		return vids
	}
	snapA, err := buildSnapshot(live, &mip.Solution{Inst: live, Videos: buildVids()}, 1, true)
	if err != nil {
		t.Fatal(err)
	}

	sawPartial := false
	for round := 1; round <= rounds; round++ {
		// Random batch: a handful of videos, positive and negative adds —
		// occasionally violent enough to empty a row entirely.
		us := make([]DemandUpdate, 0, 16)
		for x := 0; x < 1+rng.Intn(15); x++ {
			vi := rng.Intn(videos)
			add := rng.Float64()*30 - 10
			if rng.Intn(8) == 0 {
				add = -1e6 // clamps every touched office to zero
			}
			us = append(us, DemandUpdate{Video: base.Demands[vi].Video, VHO: rng.Intn(vhos), Add: add})
		}
		stA.apply(us)
		stB.apply(us)

		// Open-set churn for a small subset of videos.
		prevOpen := append([][]mip.Frac(nil), open...)
		for x := 0; x < 1+rng.Intn(5); x++ {
			vi := rng.Intn(videos)
			k := 1 + rng.Intn(3)
			perm := rng.Perm(vhos)[:k]
			var set []mip.Frac
			for j := 0; j < vhos; j++ {
				for _, p := range perm {
					if p == j {
						set = append(set, mip.Frac{I: int32(j), V: 1})
					}
				}
			}
			open[vi] = set
		}

		// Delta side: patch the live instance, build incrementally.
		dirty := stA.drainDirty()
		if err := stA.patchInstance(live, dirty); err != nil {
			t.Fatalf("round %d: patch: %v", round, err)
		}
		vids := buildVids()
		next, rebuilt, err := buildSnapshotFrom(snapA, live, &mip.Solution{Inst: live, Videos: vids}, uint64(round+1), true)
		if err != nil {
			t.Fatalf("round %d: incremental build: %v", round, err)
		}
		snapA = next
		changed := 0
		for vi := range open {
			if !reflect.DeepEqual(open[vi], prevOpen[vi]) {
				changed++
			}
		}
		if rebuilt != int64(changed) {
			t.Fatalf("round %d: rebuilt %d rows, %d videos changed their open set", round, rebuilt, changed)
		}
		if rebuilt < int64(videos) {
			sawPartial = true
		}

		// Rebuild side: fresh instance, from-scratch snapshot.
		instB, err := stB.instance(base)
		if err != nil {
			t.Fatalf("round %d: rebuild: %v", round, err)
		}
		snapB, fullRows, err := buildSnapshotFrom(nil, instB, &mip.Solution{Inst: instB, Videos: vids}, uint64(round+1), true)
		if err != nil {
			t.Fatalf("round %d: full build: %v", round, err)
		}
		if fullRows != int64(videos) {
			t.Fatalf("round %d: full build rebuilt %d rows, want %d", round, fullRows, videos)
		}

		equalInstanceDemands(t, live, instB)
		equalSnapshots(t, round, snapA, snapB)
	}
	if !sawPartial {
		t.Fatal("incremental build never copied a row; the delta path was not exercised")
	}
}

// TestDeltaMatchesFullResolve drives the whole resolver through resolveOnce
// and checks every round against a from-scratch rebuild: the patched live
// instance must carry exactly the rows state.instance(base) re-streams, and
// the published snapshot must equal buildSnapshot of the served placement on
// that rebuilt instance.
func TestDeltaMatchesFullResolve(t *testing.T) {
	s, err := New(testInstance(t, 30, 6, 21), Config{
		Solver: epf.Options{Seed: 21, MaxPasses: 600, Epsilon: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ids := make([]int, 0, 8)
	for vi := 0; vi < len(s.live.Demands) && vi < 8; vi++ {
		ids = append(ids, s.live.Demands[vi].Video)
	}
	for round := 1; round <= 3; round++ {
		us := make([]DemandUpdate, 0, len(ids))
		for x, id := range ids {
			us = append(us, DemandUpdate{Video: id, VHO: (x + round) % 6, Add: 40})
		}
		s.mu.Lock()
		s.state.apply(us)
		s.dirty = true
		s.mu.Unlock()
		if _, err := s.resolveOnce(context.Background()); err != nil {
			t.Fatalf("round %d: resolveOnce: %v", round, err)
		}
		snap := s.Snapshot()
		if snap.Version != uint64(round+1) {
			t.Fatalf("round %d: snapshot v%d did not swap (stats %+v)", round, snap.Version, s.Stats())
		}
		rebuilt, err := s.state.instance(s.live)
		if err != nil {
			t.Fatalf("round %d: rebuild: %v", round, err)
		}
		equalInstanceDemands(t, s.live, rebuilt)
		want, err := buildSnapshot(rebuilt, &mip.Solution{Inst: rebuilt, Videos: snap.Sol.Videos}, snap.Version, true)
		if err != nil {
			t.Fatalf("round %d: full build: %v", round, err)
		}
		equalSnapshots(t, round, snap, want)
	}
}

// TestPatchFailureKeepsServing injects the failure resolveOnce's patch error
// path exists for: a state row the instance refuses. The attempt is counted
// failed with its reason on /status, the old snapshot keeps serving, and the
// rows that never reached the instance stay dirty; once the row is repaired
// the next batch swaps, on an instance equal to the state.instance reference.
func TestPatchFailureKeepsServing(t *testing.T) {
	s := testServer(t, 30, 6, 21)
	s.Close() // stops the resolver loop; the handlers keep answering
	h := s.Handler()
	post := func(rows ...int) {
		t.Helper()
		us := make([]DemandUpdate, len(rows))
		for x, vi := range rows {
			us[x] = DemandUpdate{Video: s.live.Demands[vi].Video, VHO: vi % 6, Add: 40}
		}
		body, err := json.Marshal(us)
		if err != nil {
			t.Fatal(err)
		}
		if rec := postDemand(h, body); rec.Code != http.StatusAccepted {
			t.Fatalf("POST /demand: %d %s", rec.Code, rec.Body)
		}
	}

	post(0, 1, 2)
	*s.state.aggCell(1, 0) = math.Inf(1)
	if snap, err := s.resolveOnce(context.Background()); err == nil || snap != nil {
		t.Fatalf("resolveOnce over an invalid row: snapshot %v, error %v", snap, err)
	}
	if st := s.Stats(); st.Failed != 1 || st.ResolvesSwapped != 0 || s.Snapshot().Version != 1 {
		t.Errorf("after the failed patch: %+v, serving v%d", st, s.Snapshot().Version)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	var status statusJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status.LastReject, "demand patch failed") || status.Resolves.Failed != 1 {
		t.Errorf("/status last_reject %q, resolves.failed %d", status.LastReject, status.Resolves.Failed)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/route?video=%d&vho=0", s.live.Demands[1].Video), nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/route after the failed patch: %d", rec.Code)
	}
	// Row 0 was patched before the refusal; rows 1 and 2 were not.
	if want := map[int]struct{}{1: {}, 2: {}}; !reflect.DeepEqual(s.state.dirty, want) || !s.dirty {
		t.Errorf("dirty rows %v (flag %v), want %v", s.state.dirty, s.dirty, want)
	}

	*s.state.aggCell(1, 0) = 7
	post(3)
	snap, err := s.resolveOnce(context.Background())
	if err != nil || snap == nil || snap.Version != 2 {
		t.Fatalf("resolveOnce after the repair: snapshot %v, error %v (stats %+v)", snap, err, s.Stats())
	}
	ref, err := s.state.instance(s.live)
	if err != nil {
		t.Fatal(err)
	}
	equalInstanceDemands(t, s.live, ref)
}

// TestDeltaResolveRouteRace drives delta resolves (in-place patches of the
// instance the served snapshot also references) while reader goroutines
// hammer /route and /placement — the -race proof that patch writes touch
// only fields snapshot readers never load.
func TestDeltaResolveRouteRace(t *testing.T) {
	s := testServer(t, 40, 8, 31)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := make([]int, 0, 10)
	for vi := 0; vi < len(s.live.Demands) && vi < 10; vi++ {
		ids = append(ids, s.live.Demands[vi].Video)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for x := 0; ; x++ {
				select {
				case <-stop:
					return
				default:
				}
				if w == 3 {
					getJSON(t, ts, "/placement", nil)
					continue
				}
				getJSON(t, ts, fmt.Sprintf("/route?video=%d&vho=%d", ids[x%len(ids)], x%8), nil)
			}
		}(w)
	}
	for round := 1; round <= 5; round++ {
		us := make([]DemandUpdate, 0, len(ids))
		for x, id := range ids {
			us = append(us, DemandUpdate{Video: id, VHO: (x + round) % 8, Add: 25})
		}
		s.mu.Lock()
		s.state.apply(us)
		s.dirty = true
		s.mu.Unlock()
		if _, err := s.resolveOnce(context.Background()); err != nil {
			t.Fatalf("round %d: resolveOnce: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
}
