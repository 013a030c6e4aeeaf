package obs

import (
	"encoding/json"
	"expvar"
	"math"
	"sync"
	"testing"
)

// TestPublishIdempotent pins the double-publish contract: expvar.Publish
// panics on a duplicate name, Metrics.Publish must not — the first registry
// wins and later calls are no-ops.
func TestPublishIdempotent(t *testing.T) {
	m1 := NewMetrics()
	m1.Counter("wins").Set(7)
	m1.Publish("obs_test_ns")
	m2 := NewMetrics()
	m2.Counter("wins").Set(99)
	m2.Publish("obs_test_ns") // must not panic, must not replace m1

	got, ok := expvar.Get("obs_test_ns").(*expvar.Map)
	if !ok {
		t.Fatal("namespace not published as a map")
	}
	if v, ok := got.Get("wins").(*expvar.Int); !ok || v.Value() != 7 {
		t.Fatalf("published registry was replaced: wins = %v", got.Get("wins"))
	}
}

// TestInstrumentIdentity pins create-on-first-use: the same name always
// returns the same instrument, so increments from different call sites
// accumulate in one place.
func TestInstrumentIdentity(t *testing.T) {
	m := NewMetrics()
	if m.Counter("c") != m.Counter("c") {
		t.Error("Counter returned distinct instruments for one name")
	}
	if m.Gauge("g") != m.Gauge("g") {
		t.Error("Gauge returned distinct instruments for one name")
	}
	if m.Histogram("h", 1) != m.Histogram("h", 1) {
		t.Error("Histogram returned distinct instruments for one name")
	}
	// Nil registry: throwaway instruments, never nil, never shared state.
	var nilM *Metrics
	nilM.Counter("c").Add(1)
	nilM.Gauge("g").Set(1)
	nilM.Histogram("h", 1).Observe(1)
	nilM.GaugeFunc("f", func() float64 { return 1 })
	if nilM.String() != "{}" {
		t.Errorf("nil registry String = %q", nilM.String())
	}
}

// TestHistogram pins the registry instrument: samples observed in the
// exposed unit are recorded as whole small units, quantiles are bucket upper
// edges, a sample equal to an edge counts under that edge, non-finite and
// negative samples are dropped, and the expvar JSON is the Summary.
func TestHistogram(t *testing.T) {
	h := NewMetrics().Histogram("x_ms", nsPerMS)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		h.Observe(v)
	}
	if n := h.Snapshot().Count; n != 0 {
		t.Fatalf("invalid samples were counted: %d", n)
	}
	// 100 samples at 3 ms = 3e6 ns → every quantile lands in bucket
	// (2^21, 2^22] ns, upper edge 4.194304 ms.
	for i := 0; i < 100; i++ {
		h.Observe(3)
	}
	h.Observe(1000) // one outlier → p99 unmoved, max exact
	snap := h.Snapshot()
	if got := snap.Quantile(0.5); got != 1<<22 {
		t.Errorf("p50 = %v ns, want 2^22", got)
	}
	if got := snap.Quantile(0.99); got != 1<<22 {
		t.Errorf("p99 = %v ns, want 2^22", got)
	}
	if got := snap.Quantile(1); got != 1<<30 {
		t.Errorf("p100 = %v ns, want 2^30 (upper edge holding 1e9)", got)
	}
	if snap.Count != 101 || snap.Sum != 1300e6 {
		t.Errorf("count %d sum %v ns, want 101 / 1.3e9", snap.Count, snap.Sum)
	}
	var summary Summary
	if err := json.Unmarshal([]byte(h.String()), &summary); err != nil {
		t.Fatalf("String() is not valid JSON: %v\n%s", err, h.String())
	}
	if summary != snap.Summary(nsPerMS) || summary.Min != 3 || summary.Max != 1000 || summary.P50 != 4.194304 {
		t.Errorf("summary = %+v", summary)
	}

	// The edge-equal sample: exactly 2^20 ns observed as 1.048576 ms belongs
	// to the bucket whose le is 1.048576, one ns more to the next.
	e := NewMetrics().Histogram("edge_ms", nsPerMS)
	e.Observe(1.048576)
	e.Observe(1.048577)
	if snap := e.Snapshot(); snap.Buckets[20] != 1 || snap.Buckets[21] != 1 {
		t.Errorf("edge sample mis-binned: bucket 20 holds %d, bucket 21 holds %d, want 1 and 1", snap.Buckets[20], snap.Buckets[21])
	}
	// A sample too large for an int64 of small units saturates.
	e.Observe(1e300)
	if snap := e.Snapshot(); snap.Buckets[histBuckets-1] != 1 || snap.Max != math.MaxInt64 {
		t.Errorf("oversized sample: top bucket %d, max %d", snap.Buckets[histBuckets-1], snap.Max)
	}
}

// TestHistogramConcurrent hammers one histogram from several goroutines; the
// race detector vets the locking and the final count must be exact.
func TestHistogramConcurrent(t *testing.T) {
	h := NewMetrics().Histogram("x", 1)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per + i + 1))
			}
		}()
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != workers*per {
		t.Fatalf("count = %d, want %d", snap.Count, workers*per)
	}
	if snap.Min != 1 || snap.Max != workers*per {
		t.Fatalf("min/max = %v/%v, want 1/%d", snap.Min, snap.Max, workers*per)
	}
}
