package obs

import (
	"math"
	"math/bits"
)

// histBuckets is the fixed bucket count of Hist: power-of-two buckets over
// the whole nonnegative int64 range, so no instrument needs configuring.
const histBuckets = 64

// Hist is the one histogram value of the telemetry layer: log2-bucketed
// nonnegative int64 samples in the recorder's small unit (nanoseconds for
// every duration instrument, whole Mb/s for the simulator's bin peaks).
// Bucket b holds values in (2^(b-1), 2^b] (b = 0 holds 0 and 1), so every
// reported quantile is a bucket upper edge — accurate to a factor of two,
// plenty for spotting a pass or request that takes 8× the median, which is
// what the histograms exist for.
//
// A Hist is plain data with one owner: the recorders (ReqStat's atomic
// grid, the registry's mutex-guarded Histogram, a load sender's private
// value) hand out copies. Sum, Min and Max are exact when the samples went
// through Observe; a Hist derived from bucket counts alone (ReqStat.Latency,
// HistFromProm, Sub) has the upper edges of its outermost non-empty buckets
// as extremes and whatever sum its source carried.
//
// Methods that render take per, the number of recorded units in one
// exposed unit (1e9: ns as seconds, 1e6: ns as ms, 1: as recorded), and
// divide by it: a quotient is correctly rounded where a product with 1e-9
// is not, which is what keeps expositions byte-stable.
type Hist struct {
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	Buckets [histBuckets]int64
}

// bucketOf maps v to its bucket: the smallest b with v ≤ 2^b.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// upperBound returns bucket b's inclusive upper edge 2^b, saturating at the
// top bucket.
func upperBound(b int) int64 {
	if b >= histBuckets-1 {
		return math.MaxInt64
	}
	return 1 << b
}

// histOf builds a Hist from bucket counts and a sum alone.
func histOf(buckets *[histBuckets]int64, sum int64) Hist {
	h := Hist{Sum: sum, Buckets: *buckets}
	for b, c := range buckets {
		if c == 0 {
			continue
		}
		if h.Count == 0 {
			h.Min = upperBound(b)
		}
		h.Max = upperBound(b)
		h.Count += c
	}
	return h
}

// Observe records one sample. A negative one (a clock step mid-measurement)
// is dropped.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		return
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bucketOf(v)]++
}

// Merge folds o's samples into h.
func (h *Hist) Merge(o Hist) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for b := range o.Buckets {
		h.Buckets[b] += o.Buckets[b]
	}
}

// Sub returns the samples recorded between snapshot o and the later
// snapshot h of one instrument — how two /metrics scrapes become an interval
// histogram. Negative differences (snapshots of different instruments, or
// out of order, or a counter reset) clamp to zero.
func (h Hist) Sub(o Hist) Hist {
	var d [histBuckets]int64
	for b := range d {
		d[b] = max(h.Buckets[b]-o.Buckets[b], 0)
	}
	return histOf(&d, max(h.Sum-o.Sum, 0))
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// upper edge of the bucket holding the q-th sample, 0 when empty.
func (h Hist) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(h.Count))), 1)
	var seen int64
	for b, c := range h.Buckets {
		if seen += c; seen >= rank {
			return upperBound(b)
		}
	}
	return upperBound(histBuckets - 1)
}

// Summary is a point-in-time digest of a histogram: counts, extremes, and
// the bucket-upper-edge quantiles the harnesses report.
type Summary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary digests h in the exposed unit (see Hist for per).
func (h Hist) Summary(per float64) Summary {
	s := Summary{Count: h.Count}
	if h.Count == 0 {
		return s
	}
	s.Sum = float64(h.Sum) / per
	s.Mean = s.Sum / float64(h.Count)
	s.Min = float64(h.Min) / per
	s.Max = float64(h.Max) / per
	s.P50 = float64(h.Quantile(0.50)) / per
	s.P90 = float64(h.Quantile(0.90)) / per
	s.P95 = float64(h.Quantile(0.95)) / per
	s.P99 = float64(h.Quantile(0.99)) / per
	return s
}
