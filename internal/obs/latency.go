package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Status classes a ReqStat distinguishes: 1xx..5xx. Anything outside
// [100,600) lands in the 5xx class (a handler that never writes a header
// counts as 200 via net/http's implicit WriteHeader).
const numStatusClasses = 5

// statusClassNames index the classes for exposition, in wire order.
var statusClassNames = [numStatusClasses]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// ReqStat is the per-endpoint request instrument of the serving plane: a
// latency histogram crossed with the HTTP status class, stored as one flat
// cell grid so recording a completed request is a single uncontended atomic
// add — cells[class×64+bucket]++ — no lock, no allocation, safe for any
// number of concurrent handler goroutines. Everything the instrument
// reports (per-class counts, totals, latency quantiles) is derived from the
// grid at snapshot time; the latency *sum* is approximated from bucket
// midpoints (values in bucket b average to ~3·2^(b-2)), the same
// factor-of-two contract the log2 quantiles already carry. Exactness was
// traded deliberately: a second atomic add for an exact sum doubles the
// hot-path cost, and nothing downstream needs the mean to better than the
// bucket resolution. Create one per endpoint up front (NewReqStat) and
// share the pointer.
type ReqStat struct {
	// Name labels the endpoint in exposition ("route", "status", ...).
	Name  string
	cells [numStatusClasses * histBuckets]atomic.Int64
}

// NewReqStat returns an instrument labeled name.
func NewReqStat(name string) *ReqStat { return &ReqStat{Name: name} }

// statusClass maps an HTTP status code to its class index.
func statusClass(status int) int {
	c := status/100 - 1
	if c < 0 || c >= numStatusClasses {
		return numStatusClasses - 1
	}
	return c
}

// Record counts one completed request: its status class and its latency,
// in one atomic add (the <10 ns/op budget BENCH_serve.json pins). Negative
// durations (a clock step mid-request) land in the first bucket. Zero
// allocations; nil receivers no-op so uninstrumented servers thread nil
// ReqStats freely.
func (e *ReqStat) Record(status int, d time.Duration) {
	if e == nil {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	e.cells[statusClass(status)*histBuckets+bucketOf(v)].Add(1)
}

// midpointNS is the representative value of bucket b used for the derived
// sum: the midpoint 3·2^(b-2) of (2^(b-1), 2^b], saturating at the top.
func midpointNS(b int) int64 {
	switch {
	case b <= 0:
		return 1
	case b == 1:
		return 2
	case b >= 63:
		return math.MaxInt64 / 4
	}
	return 3 << (b - 2)
}

// snapshot reads every cell once and derives both views of the grid from
// that single pass — the per-class request counts and the latency histogram
// across classes (nanoseconds, midpoint-derived Sum, bucket-edge extremes) —
// so the two always describe the same set of requests. Cells are read with
// individual atomic loads: a snapshot taken under load may miss the handful
// of requests in flight, the standard scrape semantics.
func (e *ReqStat) snapshot() (classes [numStatusClasses]int64, lat Hist) {
	var buckets [histBuckets]int64
	var sum int64
	for c := 0; c < numStatusClasses; c++ {
		for b := 0; b < histBuckets; b++ {
			n := e.cells[c*histBuckets+b].Load()
			classes[c] += n
			buckets[b] += n
			sum += n * midpointNS(b)
		}
	}
	return classes, histOf(&buckets, sum)
}

// Latency returns a snapshot of the endpoint's latency histogram across all
// status classes.
func (e *ReqStat) Latency() Hist {
	_, lat := e.snapshot()
	return lat
}

// Requests returns the total recorded request count across classes.
func (e *ReqStat) Requests() int64 { return e.Latency().Count }
