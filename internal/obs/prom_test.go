package obs

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the registry exposition byte-for-byte: a
// fixed registry must always render the same text (sorted sanitized family
// names, # TYPE lines, cumulative buckets, shortest-float values). CI's
// /metrics contract rests on this determinism.
func TestWritePrometheusGolden(t *testing.T) {
	m := NewMetrics()
	m.Counter("serve.route_requests").Add(42)
	m.Gauge("serve.snapshot_age_seconds").Set(3.5)
	m.GaugeFunc("serve.demand_drift", func() float64 { return 12 })
	h := m.Histogram("epf.pass_ms", nsPerMS)
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(100)

	var b strings.Builder
	m.WritePrometheus(&b)
	const want = `# TYPE epf_pass_ms histogram
epf_pass_ms_bucket{le="0.262144"} 1
epf_pass_ms_bucket{le="1.048576"} 2
epf_pass_ms_bucket{le="134.217728"} 3
epf_pass_ms_bucket{le="+Inf"} 3
epf_pass_ms_sum 101.25
epf_pass_ms_count 3
# TYPE serve_demand_drift gauge
serve_demand_drift 12
# TYPE serve_route_requests counter
serve_route_requests 42
# TYPE serve_snapshot_age_seconds gauge
serve_snapshot_age_seconds 3.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWriteReqPromGolden(t *testing.T) {
	e := NewReqStat("route")
	e.Record(200, 500*time.Nanosecond)
	e.Record(200, 900*time.Nanosecond)
	e.Record(404, 2*time.Microsecond)

	var b strings.Builder
	WriteReqProm(&b, []*ReqStat{e, nil})
	const want = `# TYPE vod_http_requests_total counter
vod_http_requests_total{endpoint="route",code="1xx"} 0
vod_http_requests_total{endpoint="route",code="2xx"} 2
vod_http_requests_total{endpoint="route",code="3xx"} 0
vod_http_requests_total{endpoint="route",code="4xx"} 1
vod_http_requests_total{endpoint="route",code="5xx"} 0
# TYPE vod_http_request_duration_seconds histogram
vod_http_request_duration_seconds_bucket{endpoint="route",le="5.12e-07"} 1
vod_http_request_duration_seconds_bucket{endpoint="route",le="1.024e-06"} 2
vod_http_request_duration_seconds_bucket{endpoint="route",le="2.048e-06"} 3
vod_http_request_duration_seconds_bucket{endpoint="route",le="+Inf"} 3
vod_http_request_duration_seconds_sum{endpoint="route"} 2.688e-06
vod_http_request_duration_seconds_count{endpoint="route"} 3
`
	if got := b.String(); got != want {
		t.Errorf("request exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPromName(t *testing.T) {
	for _, tc := range []struct{ in, out string }{
		{"serve.route_requests", "serve_route_requests"},
		{"epf:pass-ms", "epf:pass_ms"},
		{"9lives", "_9lives"},
		{"plain", "plain"},
	} {
		if got := PromName(tc.in); got != tc.out {
			t.Errorf("PromName(%q) = %q, want %q", tc.in, got, tc.out)
		}
	}
}

// scrapeReq renders stats and reads endpoint's latency histogram back —
// the exact path vodload and servestat use on a scraped /metrics snapshot —
// together with the endpoint's summed vod_http_requests_total.
func scrapeReq(t *testing.T, endpoint string, stats ...*ReqStat) (lat Hist, total int64) {
	t.Helper()
	var b strings.Builder
	WriteReqProm(&b, stats)
	samples, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	lat, err = HistFromProm(samples, PromReqDurName, map[string]string{"endpoint": endpoint}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range samples {
		if sm.Name == PromReqTotalName && sm.Labels["endpoint"] == endpoint {
			total += int64(sm.Value)
		}
	}
	return lat, total
}

// TestParsePromRoundTrip feeds the writer's own output through the parser
// and reconstructs the latency histogram.
func TestParsePromRoundTrip(t *testing.T) {
	e := NewReqStat("route")
	for i := 1; i <= 100; i++ {
		e.Record(200, time.Duration(i)*time.Microsecond)
	}
	h, total := scrapeReq(t, "route", NewReqStat("status"), e)
	if h.Count != 100 || total != 100 {
		t.Fatalf("count %v, requests total %v, want 100", h.Count, total)
	}
	// Samples 1..100 µs; the direct snapshot and the parsed reconstruction
	// are the same value, quantiles and midpoint-derived sum included, and
	// that sum is within the documented factor-of-two bucket resolution of
	// the true one (5050 µs).
	if snap := e.Latency(); h != snap {
		t.Errorf("parsed %+v, want %+v", h, snap)
	}
	if truth := int64(5050e3); h.Sum < truth/2 || h.Sum > truth*2 {
		t.Errorf("approximate sum %v ns outside factor-2 band of %v", h.Sum, truth)
	}
	if none, _ := scrapeReq(t, "absent", e); none != (Hist{}) {
		t.Errorf("absent family parsed as %+v, want empty", none)
	}
}

func TestParsePromErrors(t *testing.T) {
	for _, in := range []string{
		"no_value_here",
		`bad{le="0.5" 3`,
		`bad{le=unquoted} 3`,
		"name notanumber",
	} {
		if _, err := ParseProm(strings.NewReader(in)); err == nil {
			t.Errorf("ParseProm(%q): expected error", in)
		}
	}
	// Comments, blank lines and trailing timestamps parse cleanly.
	in := "# HELP x y\n\nx{a=\"b\\\"c\",d=\"e\"} 1.5 1700000000\n"
	samples, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Value != 1.5 || samples[0].Labels["a"] != `b"c` {
		t.Errorf("parsed %+v", samples)
	}
}

// fillReqStat stores seeded random counts into e's grid: shape 0 leaves it
// empty, 1 fills one bucket, 2 saturates the top bucket alongside a few
// others, 3 spreads over every class.
func fillReqStat(e *ReqStat, rng *rand.Rand, shape int) {
	switch shape {
	case 1:
		e.cells[statusClass(200)*histBuckets+rng.Intn(32)].Add(1 + rng.Int63n(1000))
	case 2:
		e.cells[statusClass(500)*histBuckets+histBuckets-1].Add(1)
		for i := 0; i < 3; i++ {
			e.cells[statusClass(200)*histBuckets+rng.Intn(32)].Add(rng.Int63n(1000))
		}
	case 3:
		for i := 0; i < 40; i++ {
			e.cells[rng.Intn(numStatusClasses)*histBuckets+rng.Intn(32)].Add(rng.Int63n(1 << 12))
		}
	}
}

// sameHist reports whether got is want, allowing got.Sum the rounding a sum
// of src small units picks up on its way through the float exposition:
// none below 2^51, ulps of the float above (only the saturated top bucket's
// 2^61 ns midpoint gets there).
func sameHist(got, want Hist, src int64) bool {
	d := got.Sum - want.Sum
	got.Sum = want.Sum
	return got == want && max(d, -d) <= src>>50
}

// TestHistFromPromRoundTrip is the property the exact le mapping buys:
// over seeded random instrument contents, reading an exposition back gives
// the instrument's own Latency() — every bucket, count, sum and extreme —
// and the difference of two parsed scrapes is the difference of the two
// snapshots, including when the later scrape has buckets the earlier
// lacked.
func TestHistFromPromRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewReqStat("route")
		fillReqStat(e, rng, int(seed%4))
		before := e.Latency()
		a, aTotal := scrapeReq(t, "route", e)
		if !sameHist(a, before, before.Sum) || aTotal != before.Count {
			t.Fatalf("seed %d: parsed %+v (requests total %d), want %+v", seed, a, aTotal, before)
		}
		fillReqStat(e, rng, 1+rng.Intn(3))
		after := e.Latency()
		b, _ := scrapeReq(t, "route", e)
		if got, want := b.Sub(a), after.Sub(before); !sameHist(got, want, after.Sum) {
			t.Fatalf("seed %d: parsed interval %+v, want %+v", seed, got, want)
		}
	}

	// An le off the 2^b/per grid is refused, naming the family.
	for _, le := range []string{"0.005", "5.12e-07x", "1e-12", "1e+30"} {
		in := PromReqDurName + `_bucket{endpoint="route",le="` + le + `"} 3` + "\n"
		samples, err := ParseProm(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		_, err = HistFromProm(samples, PromReqDurName, map[string]string{"endpoint": "route"}, 1e9)
		if err == nil || !strings.Contains(err.Error(), PromReqDurName) {
			t.Errorf("le=%q: error %v, want one naming %s", le, err, PromReqDurName)
		}
	}
	// So is a cumulative series that decreases.
	samples, err := ParseProm(strings.NewReader("x_bucket{le=\"1\"} 5\nx_bucket{le=\"2\"} 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HistFromProm(samples, "x", nil, 1); err == nil {
		t.Error("decreasing cumulative counts accepted")
	}
}

// TestReqPromSelfConsistent renders expositions while writers hammer
// Record: within each one the per-class request counters and the latency
// histogram count describe the same requests, and both only grow.
func TestReqPromSelfConsistent(t *testing.T) {
	e := NewReqStat("route")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e.Record(200+100*(i%4), time.Duration(w+i%5000)*time.Microsecond)
			}
		}(w)
	}
	var last int64
	for i := 0; i < 100; i++ {
		lat, total := scrapeReq(t, "route", e)
		if lat.Count != total {
			t.Errorf("scrape %d: Σ %s = %d but %s_count = %d", i, PromReqTotalName, total, PromReqDurName, lat.Count)
		}
		if total < last {
			t.Errorf("scrape %d: total went back from %d to %d", i, last, total)
		}
		last = total
	}
	close(stop)
	wg.Wait()
}

func TestPromHandler(t *testing.T) {
	m := NewMetrics()
	m.Counter("x").Add(7)
	h := PromHandler(func(w io.Writer) { m.WritePrometheus(w) })
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "x 7\n") {
		t.Errorf("body %q", rr.Body.String())
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/metrics", nil))
	if rr.Code != 405 {
		t.Errorf("POST status %d, want 405", rr.Code)
	}
}
