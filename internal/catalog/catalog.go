// Package catalog models the video library: videos with the four size
// classes used in the paper's evaluation (§VII-A), TV-series membership with
// weekly episode releases, blockbuster tagging, and a staggered release
// schedule so that new content keeps arriving during a simulated horizon —
// the situation that makes demand estimation (§VI-A) necessary.
package catalog

import (
	"fmt"
	"math/rand"
)

// Class is a video length/size class. The paper maps all trace videos to
// four classes (§VII-A).
type Class int

// The four size classes with their §VII-A storage footprints.
const (
	MusicVideo Class = iota // 5 min, 100 MB
	TVShow                  // 30 min, 500 MB
	Movie1h                 // 1 h, 1 GB
	Movie2h                 // 2 h, 2 GB
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case MusicVideo:
		return "music-video"
	case TVShow:
		return "tv-show"
	case Movie1h:
		return "movie-1h"
	case Movie2h:
		return "movie-2h"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// SizeGB returns the on-disk size in gigabytes for the class.
func (c Class) SizeGB() float64 {
	switch c {
	case MusicVideo:
		return 0.1
	case TVShow:
		return 0.5
	case Movie1h:
		return 1.0
	case Movie2h:
		return 2.0
	default:
		panic(fmt.Sprintf("catalog: invalid class %d", int(c)))
	}
}

// DurationSec returns the playback duration in seconds for the class.
func (c Class) DurationSec() int64 {
	switch c {
	case MusicVideo:
		return 300
	case TVShow:
		return 1800
	case Movie1h:
		return 3600
	case Movie2h:
		return 7200
	default:
		panic(fmt.Sprintf("catalog: invalid class %d", int(c)))
	}
}

// StandardRateMbps is the streaming bit rate for standard-definition video
// assumed throughout the paper's evaluation.
const StandardRateMbps = 2.0

// NoSeries marks a video that is not an episode of any TV series.
const NoSeries = -1

// Video is one item in the library.
type Video struct {
	ID          int
	Class       Class
	SizeGB      float64
	DurationSec int64
	RateMbps    float64

	// Series is the series id for TV-series episodes, or NoSeries.
	Series int
	// Episode is the 1-based episode number within Series (0 otherwise).
	Episode int
	// ReleaseDay is the day index (0-based from the start of the horizon) on
	// which the video becomes available. Day 0 videos form the initial
	// library.
	ReleaseDay int
	// Blockbuster marks the movies for which §VI-A assumes exogenous
	// release-list knowledge.
	Blockbuster bool
}

// Library is an immutable video catalog.
type Library struct {
	Videos    []Video
	NumSeries int
}

// Config parameterizes library generation.
type Config struct {
	// NumVideos is the total library size, including videos released during
	// the horizon.
	NumVideos int
	// NumSeries is the number of weekly TV series. Each series releases one
	// new episode per week starting on its release weekday. If zero, a
	// default of max(1, NumVideos/200) is used for horizons with new content.
	NumSeries int
	// Weeks is the horizon length in weeks over which new content arrives.
	// Weeks <= 1 means the whole library is available on day 0.
	Weeks int
	// BlockbustersPerWeek is how many of each week's new movies are tagged
	// blockbusters (§VI-A assumes 1–3). Default 2.
	BlockbustersPerWeek int
}

// classMix is the probability of each class, indexed by Class: mostly
// short-form and TV content with a substantial movie share, mirroring the
// trace description in §VII-A.
var classMix = [numClasses]float64{0.30, 0.40, 0.15, 0.15}

// newPerWeekFraction is the fraction of the library released in each week
// after the first (spread over series episodes, blockbusters and other new
// videos).
const newPerWeekFraction = 0.02

func (cfg *Config) withDefaults() Config {
	out := *cfg
	if out.NumVideos <= 0 {
		out.NumVideos = 1000
	}
	if out.Weeks <= 0 {
		out.Weeks = 1
	}
	if out.BlockbustersPerWeek <= 0 {
		out.BlockbustersPerWeek = 2
	}
	if out.NumSeries <= 0 {
		out.NumSeries = out.NumVideos / 200
		if out.NumSeries < 1 {
			out.NumSeries = 1
		}
	}
	return out
}

// Generate builds a deterministic library from cfg and seed.
//
// Layout: the first videos (release day 0) form the initial library. For
// each subsequent week w = 1..Weeks-1, NumSeries episodes (one per series),
// BlockbustersPerWeek blockbuster movies, and enough other new videos to
// reach newPerWeekFraction*NumVideos are released on day 7*w (series
// episodes) spread across the week (other content). Episode 1 of each series
// is part of the initial library so that history-based estimation has
// something to anchor on.
func Generate(cfg Config, seed int64) *Library {
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))

	lib := &Library{NumSeries: c.NumSeries}
	lib.Videos = make([]Video, 0, c.NumVideos)

	addVideo := func(class Class, series, episode, releaseDay int, blockbuster bool) {
		lib.Videos = append(lib.Videos, Video{
			ID:          len(lib.Videos),
			Class:       class,
			SizeGB:      class.SizeGB(),
			DurationSec: class.DurationSec(),
			RateMbps:    StandardRateMbps,
			Series:      series,
			Episode:     episode,
			ReleaseDay:  releaseDay,
			Blockbuster: blockbuster,
		})
	}

	drawClass := func() Class {
		u := rng.Float64()
		var acc float64
		for cl := MusicVideo; cl < numClasses; cl++ {
			acc += classMix[cl]
			if u < acc {
				return cl
			}
		}
		return Movie2h
	}

	// Reserve the per-week new content budget.
	newPerWeek := int(newPerWeekFraction * float64(c.NumVideos))
	minWeekly := c.NumSeries + c.BlockbustersPerWeek
	if newPerWeek < minWeekly {
		newPerWeek = minWeekly
	}
	futureCount := newPerWeek * (c.Weeks - 1)
	if futureCount > c.NumVideos/2 {
		futureCount = c.NumVideos / 2
	}
	initialCount := c.NumVideos - futureCount

	// Episode 1 of each series belongs to the initial library.
	for s := 0; s < c.NumSeries && len(lib.Videos) < initialCount; s++ {
		addVideo(TVShow, s, 1, 0, false)
	}
	for len(lib.Videos) < initialCount {
		addVideo(drawClass(), NoSeries, 0, 0, false)
	}

	episode := make([]int, c.NumSeries)
	for s := range episode {
		episode[s] = 1
	}
	for w := 1; w < c.Weeks && len(lib.Videos) < c.NumVideos; w++ {
		day := 7 * w
		budget := newPerWeek
		if remaining := c.NumVideos - len(lib.Videos); budget > remaining {
			budget = remaining
		}
		// One episode per series, released at the start of the week.
		for s := 0; s < c.NumSeries && budget > 0; s++ {
			episode[s]++
			addVideo(TVShow, s, episode[s], day, false)
			budget--
		}
		// Blockbusters: full-length movies released mid-week.
		for b := 0; b < c.BlockbustersPerWeek && budget > 0; b++ {
			class := Movie1h
			if rng.Intn(2) == 0 {
				class = Movie2h
			}
			addVideo(class, NoSeries, 0, day+2, true)
			budget--
		}
		// Other new content spread over the week.
		for budget > 0 {
			addVideo(drawClass(), NoSeries, 0, day+rng.Intn(7), false)
			budget--
		}
	}
	return lib
}

// Len returns the number of videos.
func (l *Library) Len() int { return len(l.Videos) }

// TotalSizeGB returns the storage required for one copy of every video.
func (l *Library) TotalSizeGB() float64 {
	var total float64
	for i := range l.Videos {
		total += l.Videos[i].SizeGB
	}
	return total
}

// AvailableOn returns the ids of videos whose ReleaseDay is <= day.
func (l *Library) AvailableOn(day int) []int {
	var ids []int
	for i := range l.Videos {
		if l.Videos[i].ReleaseDay <= day {
			ids = append(ids, l.Videos[i].ID)
		}
	}
	return ids
}

// SeriesEpisodes returns the episode videos of series s ordered by episode
// number.
func (l *Library) SeriesEpisodes(s int) []Video {
	var eps []Video
	for i := range l.Videos {
		if l.Videos[i].Series == s {
			eps = append(eps, l.Videos[i])
		}
	}
	// Episodes are generated in order, so they are already sorted by episode.
	return eps
}

// PreviousEpisode returns the video for the episode preceding v in its
// series, and whether one exists. Used by the §VI-A series-based demand
// estimator.
func (l *Library) PreviousEpisode(v Video) (Video, bool) {
	if v.Series == NoSeries || v.Episode <= 1 {
		return Video{}, false
	}
	for i := range l.Videos {
		w := l.Videos[i]
		if w.Series == v.Series && w.Episode == v.Episode-1 {
			return w, true
		}
	}
	return Video{}, false
}
