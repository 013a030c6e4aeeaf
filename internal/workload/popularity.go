// Package workload generates and analyzes VoD request traces.
//
// The paper evaluates placement against one month of request traces from a
// nationally deployed VoD service, plus synthetic traces that follow the
// YouTube popularity distribution measured by Cha et al. Neither data set is
// available, so this package synthesizes traces that reproduce the properties
// the paper's results depend on:
//
//   - a long-tailed (Zipf with exponential cutoff) video popularity
//     distribution in which "medium popular" videos carry substantial load,
//   - per-VHO demand proportional to metro population, with per-VHO
//     preference skew so different offices see different request mixes,
//   - strong diurnal and day-of-week modulation (Friday/Saturday peaks),
//   - weekly TV-series episodes whose demand tracks the previous episode,
//     blockbuster releases, and a stream of less predictable new videos,
//   - optional flash crowds.
//
// Everything is deterministic given a seed.
package workload

import (
	"math"
	"math/rand"

	"vodplace/internal/catalog"
)

// PopularityModel assigns every video a base popularity weight and a
// time-varying recency boost. Weights are relative: only ratios matter.
type PopularityModel struct {
	lib *catalog.Library
	// base[v] is the video's long-run popularity weight.
	base []float64
	// Cutoff is the exponential cutoff rank of the Zipf weights.
	Cutoff float64
}

// The popularity model's shape.
const (
	// zipfExponent gives the 10%-of-videos ≈ 70%-of-views concentration of
	// VoD catalogs; the exponential cutoff keeps a fat medium-popularity
	// band (Fig. 7).
	zipfExponent = 1.0
	// cutoffFraction sets the exponential cutoff rank as a fraction of the
	// library size (the "long tail with a cutoff" shape).
	cutoffFraction = 0.5
	// seriesBoost multiplies the base weight of TV-series episodes, which in
	// the paper account for more than half the requests to new releases.
	seriesBoost = 4
	// blockbusterBoost multiplies blockbuster movies.
	blockbusterBoost = 12
)

// NewPopularityModel builds the popularity model for lib. Ranks are assigned
// by a seeded permutation so that popularity is uncorrelated with video id or
// release order, except that series episodes inherit a per-series weight
// (episodes of one series draw similar demand, the Fig. 4 observation) and
// blockbusters land near the head.
func NewPopularityModel(lib *catalog.Library, seed int64) *PopularityModel {
	rng := rand.New(rand.NewSource(seed))
	n := lib.Len()
	m := &PopularityModel{
		lib:    lib,
		base:   make([]float64, n),
		Cutoff: cutoffFraction * float64(n),
	}
	if m.Cutoff < 1 {
		m.Cutoff = 1
	}

	// Random rank permutation.
	perm := rng.Perm(n)
	zipf := func(rank int) float64 {
		r := float64(rank + 1)
		return math.Pow(r, -zipfExponent) * math.Exp(-r/m.Cutoff)
	}
	for i, v := range lib.Videos {
		rank := perm[i]
		// §VI-A: series episodes and blockbusters account for the bulk of
		// new-release demand; the remaining new videos (music videos,
		// unpopular movies) are minor. Keep non-estimable new releases out
		// of the popularity head, as in the paper's traces.
		if v.ReleaseDay > 0 && v.Series == catalog.NoSeries && !v.Blockbuster && rank < n/5 {
			rank += n / 5
		}
		m.base[i] = zipf(rank)
		if v.Blockbuster {
			m.base[i] = zipf(perm[i]%25) * blockbusterBoost / 4
		}
	}
	// Per-series weight: draw once per series from the head of the
	// distribution, then give each episode that weight with mild jitter.
	seriesWeight := make([]float64, lib.NumSeries)
	for s := range seriesWeight {
		seriesWeight[s] = zipf(rng.Intn(50)) * seriesBoost / 4
	}
	for i, v := range lib.Videos {
		if v.Series != catalog.NoSeries {
			jitter := 0.8 + 0.45*rng.Float64() // Fig 4: similar but not equal
			m.base[i] = seriesWeight[v.Series] * jitter
		}
	}
	return m
}

// Base returns the long-run popularity weight of video v.
func (m *PopularityModel) Base(v int) float64 { return m.base[v] }

// recencyBoost is the demand multiplier applied to a video age days after
// its release: new content opens hot and decays toward steady state over
// about two weeks.
func recencyBoost(age int) float64 {
	switch {
	case age < 0:
		return 0 // not yet released
	case age == 0:
		return 8
	case age == 1:
		return 6
	case age == 2:
		return 4.5
	case age <= 4:
		return 3
	case age <= 6:
		return 2
	case age <= 9:
		return 1.5
	case age <= 13:
		return 1.2
	default:
		return 1
	}
}

// WeightOn returns video v's demand weight on the given day (0 for videos
// not yet released).
func (m *PopularityModel) WeightOn(v, day int) float64 {
	age := day - m.lib.Videos[v].ReleaseDay
	return m.base[v] * recencyBoost(age)
}

// dayWeights fills out[v] with every video's weight on the given day and
// returns the total. Flash-crowd multipliers (if any) are applied by the
// trace generator on top of these weights.
func (m *PopularityModel) dayWeights(day int, out []float64) float64 {
	var total float64
	for v := range m.base {
		w := m.WeightOn(v, day)
		out[v] = w
		total += w
	}
	return total
}

// Populations returns normalized per-VHO demand weights for n offices. For
// the default 55-office backbone it reproduces the paper's heterogeneity
// experiment: 12 large offices (relative weight 4), 19 medium (2), and 24
// small (1); other sizes use the same 22%/35%/43% split. Weights are jittered
// ±20% and normalized to sum to 1.
func Populations(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	large := n * 12 / 55
	medium := n * 19 / 55
	if large < 1 {
		large = 1
	}
	if large+medium > n {
		medium = n - large
	}
	weights := make([]float64, n)
	var total float64
	for i := range weights {
		var w float64
		switch {
		case i < large:
			w = 4
		case i < large+medium:
			w = 2
		default:
			w = 1
		}
		w *= 0.8 + 0.4*rng.Float64()
		weights[i] = w
		total += w
	}
	for i := range weights {
		weights[i] /= total
	}
	return weights
}

// VHOSizeClass labels an office as large, medium or small per the Fig. 11
// heterogeneous-disk experiment (12 large / 19 medium / 24 small on the
// 55-office backbone; proportional otherwise).
type VHOSizeClass int

// Office size classes.
const (
	SmallVHO VHOSizeClass = iota
	MediumVHO
	LargeVHO
)

// SizeClasses returns each office's class under the same split Populations
// uses, so offices with the largest populations are the large offices.
func SizeClasses(n int) []VHOSizeClass {
	large := n * 12 / 55
	medium := n * 19 / 55
	if large < 1 {
		large = 1
	}
	if large+medium > n {
		medium = n - large
	}
	out := make([]VHOSizeClass, n)
	for i := range out {
		switch {
		case i < large:
			out[i] = LargeVHO
		case i < large+medium:
			out[i] = MediumVHO
		default:
			out[i] = SmallVHO
		}
	}
	return out
}
