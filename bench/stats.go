package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the sample at or
// below it. sorted must be ascending and non-empty.
func percentile[T uint32 | float64](sorted []T, q float64) T {
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPerMille are the percentiles highestSupported picks from, in
// thousandths so that the sample arithmetic stays in integers.
var tailPerMille = []int{500, 900, 990, 999}

// highestSupported is the highest candidate percentile that still has at
// least ten samples beyond it, the rule the metrics guide sets for reporting
// a tail; with fewer than twenty samples only the median qualifies.
func highestSupported(n int) float64 {
	best := tailPerMille[0]
	for _, pm := range tailPerMille[1:] {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 1000
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the benchmark's driver measures spread.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
