package serve

import (
	"fmt"
	"testing"
	"time"

	"vodplace/internal/mip"
)

// TestRouteZeroAllocations pins the /route hot path — query parse, snapshot
// lookup, and JSON encode into a reused buffer — at zero steady-state
// allocations. If this test starts failing, something on the data plane
// grew an allocation; fix it rather than relaxing the bound.
func TestRouteZeroAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	s := testServer(t, 30, 6, 11)
	snap := s.Snapshot()

	// Pre-built raw queries cycling over real pairs plus the 404 shapes, so
	// both the success and error encode paths are pinned.
	var queries []string
	for vi := range snap.Inst.Demands {
		queries = append(queries, fmt.Sprintf("video=%d&vho=%d",
			snap.Inst.Demands[vi].Video, vi%snap.NumVHOs()))
	}
	queries = append(queries, "video=999999&vho=0", "video=0&vho=999999")

	buf := make([]byte, 0, 256)
	// Warm-up: size the buffer to the longest response before measuring.
	for _, q := range queries {
		if v, j, ok := parseRouteQuery(q); ok {
			buf, _ = snap.AppendRoute(buf[:0], v, j)
		}
	}

	var idx int
	avg := testing.AllocsPerRun(500, func() {
		q := queries[idx%len(queries)]
		idx++
		v, j, ok := parseRouteQuery(q)
		if !ok {
			t.Fatalf("parseRouteQuery(%q) failed", q)
		}
		buf, _ = snap.AppendRoute(buf[:0], v, j)
	})
	if avg != 0 {
		t.Errorf("route hot path allocates %.1f times per lookup, want 0", avg)
	}

	// The instrumented path: the same work handleRoute does per request
	// with latency recording enabled — clock read, parse, lookup, encode,
	// instrument update — must also stay allocation-free.
	idx = 0
	avg = testing.AllocsPerRun(500, func() {
		t0 := time.Now()
		q := queries[idx%len(queries)]
		idx++
		v, j, ok := parseRouteQuery(q)
		if !ok {
			t.Fatalf("parseRouteQuery(%q) failed", q)
		}
		var status int
		buf, status = snap.AppendRoute(buf[:0], v, j)
		s.reqRoute.Record(status, time.Since(t0))
	})
	if avg != 0 {
		t.Errorf("instrumented route path allocates %.1f times per lookup, want 0", avg)
	}
	if got := s.reqRoute.Requests(); got == 0 {
		t.Error("instrument recorded nothing")
	}
}

// TestSnapshotBuildBytesPerVideo bounds what a full snapshot build allocates
// per video on a 2 000-video, 55-office catalog with one to three copies per
// video: the id table, the open-set offsets and the open sets, 4 B each per
// entry. A per-destination table would cost 4 B per office per video, 220 B
// here, on top.
func TestSnapshotBuildBytesPerVideo(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	const videos, vhos = 2000, 55
	inst := syntheticInstance(t, videos, vhos, 2, 3)
	sol := &mip.Solution{Inst: inst, Videos: make([]mip.VideoPlacement, videos)}
	for vi := range sol.Videos {
		for c := 0; c <= vi%3; c++ {
			sol.Videos[vi].Open = append(sol.Videos[vi].Open, mip.Frac{I: int32((vi + 17*c) % vhos), V: 1})
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := buildSnapshot(inst, sol, 1, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	perVideo := float64(res.AllocedBytesPerOp()) / videos
	t.Logf("snapshot build: %.1f B per video", perVideo)
	if perVideo > 32 {
		t.Errorf("snapshot build allocates %.1f B per video, want ≤ 32", perVideo)
	}
}
