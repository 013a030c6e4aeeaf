package workload

import (
	"math"
	"sort"
)

// JM packs a (VHO, video) pair into a map key.
type JM uint64

// MakeJM builds the packed key for office j and video m.
func MakeJM(j, m int) JM { return JM(uint64(j)<<32 | uint64(uint32(m))) }

// Split returns the office and video of the key.
func (k JM) Split() (j, m int) { return int(k >> 32), int(uint32(k)) }

// RequestCounts returns, for each office, a sparse per-video request count
// over requests with times in [from, to).
func (t *Trace) RequestCounts(from, to int64) []map[int]int {
	out := make([]map[int]int, t.NumVHOs)
	for j := range out {
		out[j] = make(map[int]int)
	}
	sub := t.Slice(from, to)
	for _, r := range sub.Requests {
		out[r.VHO][int(r.Video)]++
	}
	return out
}

// AggregateCounts returns a_j^m over [from, to): the total request count per
// (office, video) pair, keyed by MakeJM.
func (t *Trace) AggregateCounts(from, to int64) map[JM]int {
	out := make(map[JM]int)
	sub := t.Slice(from, to)
	for _, r := range sub.Requests {
		out[MakeJM(int(r.VHO), int(r.Video))]++
	}
	return out
}

// PeakHour returns the hour (0-23) of the given day with the most requests
// system-wide.
func (t *Trace) PeakHour(day int) int {
	var counts [24]int
	sub := t.DaySlice(day, day+1)
	for _, r := range sub.Requests {
		h := int((r.Time % SecondsPerDay) / 3600)
		counts[h]++
	}
	best := 0
	for h, c := range counts {
		if c > counts[best] {
			best = h
		}
		_ = c
	}
	return best
}

// WorkingSetSizes returns, for each office, the number of distinct videos
// requested during the peak hour of the given day — the Fig. 2 quantity.
func (t *Trace) WorkingSetSizes(day int) []int {
	h := t.PeakHour(day)
	from := int64(day)*SecondsPerDay + int64(h)*3600
	counts := t.RequestCounts(from, from+3600)
	out := make([]int, t.NumVHOs)
	for j, m := range counts {
		out[j] = len(m)
	}
	return out
}

// WorkingSetGB returns, for each office, the total size in GB of the
// distinct videos requested during the peak hour of the given day. Each
// office's sizes are summed in ascending video id, so the result has the
// same bits on every call.
func (t *Trace) WorkingSetGB(day int) []float64 {
	h := t.PeakHour(day)
	from := int64(day)*SecondsPerDay + int64(h)*3600
	counts := t.RequestCounts(from, from+3600)
	out := make([]float64, t.NumVHOs)
	var ids []int
	for j, m := range counts {
		ids = ids[:0]
		for v := range m {
			ids = append(ids, v)
		}
		sort.Ints(ids)
		for _, v := range ids {
			out[j] += t.Lib.Videos[v].SizeGB
		}
	}
	return out
}

// sparseCosine computes cosine similarity between two sparse count vectors.
func sparseCosine(a, b map[int]int) float64 {
	var dot, na, nb float64
	for k, va := range a {
		fa := float64(va)
		na += fa * fa
		if vb, ok := b[k]; ok {
			dot += fa * float64(vb)
		}
	}
	for _, vb := range b {
		fb := float64(vb)
		nb += fb * fb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// PeakWindowIndex returns the index of the fixed-size window (of windowSec
// seconds, partitioning the horizon from time 0) that contains the instant
// of peak total concurrent streams.
func (t *Trace) PeakWindowIndex(windowSec int64) int {
	peakT := t.PeakConcurrencyInstant()
	return int(peakT / windowSec)
}

// PeakConcurrencyInstant returns the time of the maximum system-wide number
// of concurrent streams (the "peak demand instant" of Fig. 3), at 60-second
// resolution.
func (t *Trace) PeakConcurrencyInstant() int64 {
	const step = 60
	curve := t.TotalConcurrencyCurve(step)
	best := 0
	for i, c := range curve {
		if c > curve[best] {
			best = i
		}
		_ = c
	}
	return int64(best) * step
}

// TotalConcurrencyCurve returns the total number of active streams sampled
// every stepSec seconds across the horizon (index i covers time
// [i*stepSec, (i+1)*stepSec)); a stream is counted in every bucket it
// overlaps.
func (t *Trace) TotalConcurrencyCurve(stepSec int64) []int {
	horizon := int64(t.Days) * SecondsPerDay
	buckets := int((horizon + stepSec - 1) / stepSec)
	diff := make([]int, buckets+1)
	for _, r := range t.Requests {
		start := r.Time / stepSec
		end := (r.End(t.Lib) - 1) / stepSec
		if end >= int64(buckets) {
			end = int64(buckets) - 1
		}
		if start >= int64(buckets) {
			continue
		}
		diff[start]++
		diff[end+1]--
	}
	out := make([]int, buckets)
	cur := 0
	for i := 0; i < buckets; i++ {
		cur += diff[i]
		out[i] = cur
	}
	return out
}

// SimilarityAtPeak computes, for each office, the cosine similarity between
// its per-video request-count vector in the window containing the peak
// demand instant and the vector for the previous window — the Fig. 3
// quantity. Offices with an empty vector in either window get similarity 0.
// If the peak falls in window 0 the first two windows are compared instead.
func (t *Trace) SimilarityAtPeak(windowSec int64) []float64 {
	w := t.PeakWindowIndex(windowSec)
	if w == 0 {
		w = 1
	}
	cur := t.RequestCounts(int64(w)*windowSec, int64(w+1)*windowSec)
	prev := t.RequestCounts(int64(w-1)*windowSec, int64(w)*windowSec)
	out := make([]float64, t.NumVHOs)
	for j := range out {
		out[j] = sparseCosine(cur[j], prev[j])
	}
	return out
}

// SeriesDailyCounts returns, for every episode of the given series, the
// per-day system-wide request counts — the Fig. 4 quantity. The result maps
// episode number to a slice of Days counts.
func (t *Trace) SeriesDailyCounts(series int) map[int][]int {
	episodeOf := make(map[int32]int)
	for _, v := range t.Lib.Videos {
		if v.Series == series {
			episodeOf[int32(v.ID)] = v.Episode
		}
	}
	out := make(map[int][]int)
	for _, r := range t.Requests {
		ep, ok := episodeOf[r.Video]
		if !ok {
			continue
		}
		if _, ok := out[ep]; !ok {
			out[ep] = make([]int, t.Days)
		}
		day := int(r.Time / SecondsPerDay)
		if day >= 0 && day < t.Days {
			out[ep][day]++
		}
	}
	return out
}

// PeakConcurrency returns, per (office, video) pair, the maximum number of
// concurrent streams overlapping the window [t0, t1) — the f_j^m(t) input of
// constraint (6), aggregated over a peak window as §VI-B prescribes.
func (t *Trace) PeakConcurrency(t0, t1 int64) map[JM]int {
	type event struct {
		time  int64
		delta int
	}
	events := make(map[JM][]event)
	for _, r := range t.Requests {
		end := r.End(t.Lib)
		if r.Time >= t1 || end <= t0 {
			continue
		}
		start := r.Time
		if start < t0 {
			start = t0
		}
		if end > t1 {
			end = t1
		}
		key := MakeJM(int(r.VHO), int(r.Video))
		events[key] = append(events[key], event{start, 1}, event{end, -1})
	}
	out := make(map[JM]int, len(events))
	for key, evs := range events {
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].time != evs[b].time {
				return evs[a].time < evs[b].time
			}
			return evs[a].delta < evs[b].delta // process ends before starts
		})
		cur, peak := 0, 0
		for _, e := range evs {
			cur += e.delta
			if cur > peak {
				peak = cur
			}
		}
		out[key] = peak
	}
	return out
}

// TopPeakWindows returns the start times of the k fixed-size windows (of
// windowSec seconds, partitioning the horizon) with the highest peak total
// concurrency, in decreasing order of peak. These are the |T| time slices at
// which the MIP enforces link constraints (§VI-B, |T| = 2 by default).
func (t *Trace) TopPeakWindows(windowSec int64, k int) []int64 {
	step := windowSec
	if step > 300 {
		step = 300 // finer sampling inside coarse windows
	}
	curve := t.TotalConcurrencyCurve(step)
	perWindow := int(windowSec / step)
	if perWindow < 1 {
		perWindow = 1
	}
	numWindows := (len(curve) + perWindow - 1) / perWindow
	type wpeak struct {
		window int
		peak   int
	}
	peaks := make([]wpeak, numWindows)
	for w := 0; w < numWindows; w++ {
		p := 0
		for i := w * perWindow; i < (w+1)*perWindow && i < len(curve); i++ {
			if curve[i] > p {
				p = curve[i]
			}
		}
		peaks[w] = wpeak{w, p}
	}
	sort.Slice(peaks, func(a, b int) bool {
		if peaks[a].peak != peaks[b].peak {
			return peaks[a].peak > peaks[b].peak
		}
		return peaks[a].window < peaks[b].window
	})
	if k > len(peaks) {
		k = len(peaks)
	}
	out := make([]int64, k)
	for i := 0; i < k; i++ {
		out[i] = int64(peaks[i].window) * windowSec
	}
	return out
}
