// Package stats provides the small numeric aggregates the experiments
// report: means, geometric means, minima and maxima.
//
// All functions are pure and allocation-free; they are deliberately simple
// so that experiment code can depend on them without pulling in any heavier
// numerical machinery.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, or 0 for an empty slice.
// All elements must be positive; non-positive elements are treated as a
// tiny positive epsilon so that a single zero sample does not collapse the
// whole aggregate (matching how the paper aggregates six scenario means).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	const eps = 1e-12
	var sumLog float64
	for _, x := range xs {
		if x < eps {
			x = eps
		}
		sumLog += math.Log(x)
	}
	return math.Exp(sumLog / float64(len(xs)))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
