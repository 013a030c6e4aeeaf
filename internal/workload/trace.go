package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"vodplace/internal/catalog"
)

// SecondsPerDay is the length of one trace day.
const SecondsPerDay = 86400

// Request is one VoD request: a user in VHO j starts streaming video m at
// time t. The stream occupies its path for the video's full duration.
type Request struct {
	Time  int64 // seconds since the start of the trace horizon
	VHO   int32
	Video int32
}

// End returns the stream's completion time given the library.
func (r Request) End(lib *catalog.Library) int64 {
	return r.Time + lib.Videos[r.Video].DurationSec
}

// FlashEvent records a synthetic flash crowd: video Video receives a large
// demand multiplier on day Day.
type FlashEvent struct {
	Day   int
	Video int
}

// Trace is a time-ordered request log over a fixed horizon.
type Trace struct {
	Requests []Request
	Days     int
	NumVHOs  int
	Lib      *catalog.Library
	// Pops are the per-VHO demand weights the trace was generated with.
	Pops []float64
	// FlashEvents lists injected flash crowds (empty unless configured).
	FlashEvents []FlashEvent
}

// TraceConfig parameterizes trace generation.
type TraceConfig struct {
	// Days is the horizon length. Default 28 (the paper uses one month).
	Days int
	// NumVHOs is the number of offices. Default 55.
	NumVHOs int
	// RequestsPerVideoPerDay scales volume: the system-wide average daily
	// request count is this value times the library size (the paper's
	// synthetic traces make requests proportional to library size). Default 1.
	RequestsPerVideoPerDay float64
	// Populations optionally overrides the per-VHO demand weights; must have
	// NumVHOs entries summing to ~1. Defaults to Populations(NumVHOs, seed).
	Populations []float64
	// FlashCrowds injects this many single-day ×100 demand spikes on random
	// videos. Default 0.
	FlashCrowds int
}

func (cfg *TraceConfig) withDefaults() TraceConfig {
	out := *cfg
	if out.Days <= 0 {
		out.Days = 28
	}
	if out.NumVHOs <= 0 {
		out.NumVHOs = 55
	}
	if out.RequestsPerVideoPerDay <= 0 {
		out.RequestsPerVideoPerDay = 1
	}
	return out
}

// hourShare is the fraction of a day's requests arriving in each hour:
// quiet overnight, ramping through the day to a strong evening peak —
// the canonical VoD diurnal curve.
var hourShare = func() [24]float64 {
	raw := [24]float64{
		0.30, 0.20, 0.15, 0.10, 0.10, 0.15,
		0.25, 0.40, 0.50, 0.60, 0.70, 0.80,
		0.90, 0.90, 0.90, 1.00, 1.10, 1.30,
		1.60, 1.90, 2.00, 1.80, 1.20, 0.60,
	}
	var sum float64
	for _, v := range raw {
		sum += v
	}
	for i := range raw {
		raw[i] /= sum
	}
	return raw
}()

// dayFactor scales daily volume by weekday; day 0 is a Monday. Fridays and
// Saturdays are the busiest days, as in §IV/§VI-B.
func dayFactor(day int) float64 {
	switch day % 7 {
	case 4: // Friday
		return 1.35
	case 5: // Saturday
		return 1.45
	case 6: // Sunday
		return 1.10
	default:
		return 0.90
	}
}

// prefSkew controls how much request mixes differ across offices: each
// (office, video) pair gets a deterministic multiplier in
// [2^-prefSkew, 2^prefSkew].
const prefSkew = 1.0

// prefMultiplier returns the deterministic (office, video) preference
// multiplier in [2^-prefSkew, 2^prefSkew] derived from a 64-bit mix of the
// pair.
func prefMultiplier(vho, video int) float64 {
	x := uint64(vho)*0x9E3779B97F4A7C15 + uint64(video)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53) // [0, 1)
	return math.Pow(2, (2*u-1)*prefSkew)
}

// poisson draws a Poisson(lambda) variate: Knuth's method for small lambda,
// a rounded normal approximation for large lambda.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		k := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if k < 0 {
			k = 0
		}
		return k
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// GenerateTrace synthesizes a request trace for lib under cfg and seed.
func GenerateTrace(lib *catalog.Library, cfg TraceConfig, seed int64) *Trace {
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	n := lib.Len()
	pops := c.Populations
	if pops == nil {
		pops = Populations(c.NumVHOs, seed+1)
	}
	if len(pops) != c.NumVHOs {
		panic(fmt.Sprintf("workload: %d populations for %d VHOs", len(pops), c.NumVHOs))
	}
	model := NewPopularityModel(lib, seed+2)

	tr := &Trace{
		Days:    c.Days,
		NumVHOs: c.NumVHOs,
		Lib:     lib,
		Pops:    append([]float64(nil), pops...),
	}

	// Schedule flash crowds on random (day >= 1, day-0 video) pairs.
	flashMult := make(map[[2]int]float64)
	for f := 0; f < c.FlashCrowds; f++ {
		day := 1 + rng.Intn(max(1, c.Days-1))
		video := rng.Intn(n)
		ev := FlashEvent{Day: day, Video: video}
		tr.FlashEvents = append(tr.FlashEvents, ev)
		flashMult[[2]int{day, video}] = 100
	}

	baseDaily := c.RequestsPerVideoPerDay * float64(n)
	weights := make([]float64, n)
	cum := make([]float64, n+1)
	maxMult := math.Pow(2, prefSkew)

	for day := 0; day < c.Days; day++ {
		total := model.dayWeights(day, weights)
		for key, mult := range flashMult {
			if key[0] == day && lib.Videos[key[1]].ReleaseDay <= day {
				total += weights[key[1]] * (mult - 1)
				weights[key[1]] *= mult
			}
		}
		if total <= 0 {
			continue
		}
		cum[0] = 0
		for v := 0; v < n; v++ {
			cum[v+1] = cum[v] + weights[v]
		}
		sample := func() int {
			u := rng.Float64() * cum[n]
			v := sort.SearchFloat64s(cum[1:], u)
			if v >= n {
				v = n - 1
			}
			return v
		}
		dailyVolume := baseDaily * dayFactor(day)
		for j := 0; j < c.NumVHOs; j++ {
			for h := 0; h < 24; h++ {
				lambda := dailyVolume * pops[j] * hourShare[h]
				k := poisson(rng, lambda)
				for r := 0; r < k; r++ {
					// Rejection-sample the office's preference skew.
					var v int
					for attempt := 0; ; attempt++ {
						v = sample()
						m := prefMultiplier(j, v)
						if attempt >= 16 || rng.Float64() < m/maxMult {
							break
						}
					}
					t := int64(day)*SecondsPerDay + int64(h)*3600 + int64(rng.Intn(3600))
					tr.Requests = append(tr.Requests, Request{Time: t, VHO: int32(j), Video: int32(v)})
				}
			}
		}
	}
	sort.Slice(tr.Requests, func(a, b int) bool {
		ra, rb := tr.Requests[a], tr.Requests[b]
		if ra.Time != rb.Time {
			return ra.Time < rb.Time
		}
		if ra.VHO != rb.VHO {
			return ra.VHO < rb.VHO
		}
		return ra.Video < rb.Video
	})
	return tr
}

// Slice returns the sub-trace with request times in [from, to) seconds,
// sharing the underlying request storage.
func (t *Trace) Slice(from, to int64) *Trace {
	lo := sort.Search(len(t.Requests), func(i int) bool { return t.Requests[i].Time >= from })
	hi := sort.Search(len(t.Requests), func(i int) bool { return t.Requests[i].Time >= to })
	out := *t
	out.Requests = t.Requests[lo:hi]
	return &out
}

// DaySlice returns the sub-trace for days [fromDay, toDay).
func (t *Trace) DaySlice(fromDay, toDay int) *Trace {
	return t.Slice(int64(fromDay)*SecondsPerDay, int64(toDay)*SecondsPerDay)
}
