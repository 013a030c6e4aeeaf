package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestBucketOf pins the one bucket rule — the smallest b with v ≤ 2^b — at
// every kind of boundary: a sample equal to an edge belongs under that edge
// (Prometheus le is ≤), one above it in the next bucket.
func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		v int64
		b int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {7, 3}, {8, 3}, {9, 4},
		{1<<20 - 1, 20}, {1 << 20, 20}, {1<<20 + 1, 21},
		{1<<62 - 1, 62}, {1 << 62, 62}, {1<<62 + 1, 63}, {math.MaxInt64, histBuckets - 1},
	} {
		b := bucketOf(tc.v)
		if b != tc.b {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, b, tc.b)
		}
		// The bucket invariant: v lies within (2^(b-1), 2^b].
		if tc.v > upperBound(b) {
			t.Errorf("v=%d above bucket %d upper bound %d", tc.v, b, upperBound(b))
		}
		if b > 0 && tc.v <= upperBound(b-1) {
			t.Errorf("v=%d should fit bucket %d already", tc.v, b-1)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	// 1000 samples 1..1000 ns: p50 upper bound is the bucket holding 500
	// (2^9 = 512), p99 the bucket holding 990 (2^10 = 1024).
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count != 1000 {
		t.Fatalf("count %d, want 1000", h.Count)
	}
	if want := int64(1000 * 1001 / 2); h.Sum != want {
		t.Fatalf("sum %d, want %d", h.Sum, want)
	}
	if q := h.Quantile(0.50); q != 512 {
		t.Errorf("p50 %d, want 512", q)
	}
	if q := h.Quantile(0.99); q != 1024 {
		t.Errorf("p99 %d, want 1024", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Errorf("q0 %d, want 1 (first bucket upper bound)", q)
	}
	h.Observe(-5) // dropped
	if h.Count != 1000 {
		t.Errorf("negative sample counted: %d", h.Count)
	}

	// Exact extremes from Observe; every other figure a bucket edge, in ms.
	sum := h.Summary(1e6)
	if sum.Count != 1000 || sum.P50 != 512/1e6 || sum.Min != 1/1e6 || sum.Max != 1000/1e6 || sum.Mean != 500.5/1e6 {
		t.Errorf("Summary(1e6) = %+v", sum)
	}
	if s := (Hist{}).Summary(1e6); s != (Summary{}) {
		t.Errorf("empty summary %+v, want zero", s)
	}
}

func TestHistSub(t *testing.T) {
	var h Hist
	h.Observe(10)
	h.Observe(1000)
	before := h
	h.Observe(10)
	h.Observe(20)
	h.Observe(3000)
	d := h.Sub(before)
	if d.Count != 3 {
		t.Fatalf("interval count %d, want 3", d.Count)
	}
	if d.Sum != 3030 {
		t.Errorf("interval sum %d, want 3030", d.Sum)
	}
	// An interval knows its extremes only to the bucket: 10 → (8,16],
	// 3000 → (2048,4096].
	if d.Min != 16 || d.Max != 4096 {
		t.Errorf("interval min/max %d/%d, want 16/4096", d.Min, d.Max)
	}
	// Subtracting the later snapshot from the earlier clamps at zero.
	if z := before.Sub(h); z != (Hist{}) {
		t.Errorf("reverse Sub not clamped: %+v", z)
	}
}

// TestReqStatConcurrent hammers one ReqStat from many goroutines; under
// -race this is the data-race gate for the lock-free design, and the final
// tallies must be exact (atomic adds lose nothing).
func TestReqStatConcurrent(t *testing.T) {
	const writers = 8
	const perWriter = 5000
	e := NewReqStat("route")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				status := 200
				if i%10 == 0 {
					status = 404
				}
				e.Record(status, time.Duration(w*perWriter+i))
			}
		}(w)
	}
	// Concurrent readers: snapshots must be well-formed while writes land.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := e.Latency()
			if s.Count < 0 || s.Sum < 0 {
				t.Error("negative snapshot")
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got := e.Requests(); got != writers*perWriter {
		t.Errorf("requests %d, want %d", got, writers*perWriter)
	}
	classes, _ := e.snapshot()
	want4xx := int64(writers * perWriter / 10)
	if classes[3] != want4xx {
		t.Errorf("4xx class %d, want %d", classes[3], want4xx)
	}
	if classes[1] != int64(writers*perWriter)-want4xx {
		t.Errorf("2xx class %d, want %d", classes[1], int64(writers*perWriter)-want4xx)
	}
}

// TestReqStatLatencySum pins the midpoint-derived sum: each bucket's
// contribution is count × midpoint, and the result stays within the
// documented factor-2 band of the true sum.
func TestReqStatLatencySum(t *testing.T) {
	e := NewReqStat("route")
	var truth int64
	for _, v := range []int64{1, 2, 3, 500, 900, 2000, 1 << 20} {
		e.Record(200, time.Duration(v))
		truth += v
	}
	s := e.Latency()
	// 1→1, 2→2, 3→3·2^0=3, 500→3·2^7=384, 900→3·2^8=768, 2000→3·2^9=1536,
	// 2^20→3·2^18.
	want := int64(1 + 2 + 3 + 384 + 768 + 1536 + 3<<18)
	if s.Sum != want {
		t.Errorf("derived sum %d, want %d", s.Sum, want)
	}
	if s.Sum < truth/2 || s.Sum > truth*2 {
		t.Errorf("derived sum %d outside factor-2 band of true %d", s.Sum, truth)
	}
	if m := midpointNS(63); m <= 0 {
		t.Errorf("top midpoint overflowed: %d", m)
	}
}

func TestStatusClass(t *testing.T) {
	for _, tc := range []struct{ status, class int }{
		{100, 0}, {200, 1}, {202, 1}, {301, 2}, {404, 3}, {405, 3}, {500, 4},
		{599, 4}, {0, 4}, {999, 4}, {-7, 4},
	} {
		if got := statusClass(tc.status); got != tc.class {
			t.Errorf("statusClass(%d) = %d, want %d", tc.status, got, tc.class)
		}
	}
}

// TestReqStatZeroAllocations pins the request-recording hot path at zero
// allocations — the serve handlers call Record on every request and the
// /route zero-alloc contract includes it.
func TestReqStatZeroAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	e := NewReqStat("route")
	var i int64
	avg := testing.AllocsPerRun(1000, func() {
		i++
		e.Record(200, time.Duration(i*137))
	})
	if avg != 0 {
		t.Errorf("ReqStat.Record allocates %.1f per call, want 0", avg)
	}
}

func TestReqStatNil(t *testing.T) {
	var e *ReqStat
	e.Record(200, time.Millisecond) // must not panic
}
