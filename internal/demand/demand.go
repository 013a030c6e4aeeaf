// Package demand turns request-trace history into placement-MIP inputs: the
// aggregate demands a_j^m, the peak-window concurrent-stream counts f_j^m(t),
// and the §VI-A estimation strategies for videos that have no history yet —
// new TV-series episodes (estimated from the previous episode), blockbusters
// (estimated from the most popular recent movie), and everything else
// (no estimate; absorbed by the complementary LRU cache at runtime).
package demand

import (
	"fmt"
	"slices"
	"sort"

	"vodplace/internal/catalog"
	"vodplace/internal/mip"
	"vodplace/internal/topology"
	"vodplace/internal/workload"
)

// Method selects how demand is forecast for the placement period.
type Method int

// Forecast methods of §VI-A / Table VI.
const (
	// History uses the previous HistoryDays of requests, plus series and
	// blockbuster estimation for new releases (the paper's deployed
	// strategy).
	History Method = iota
	// Perfect uses the actual requests of the placement period itself
	// (the "perfect estimate" row of Table VI).
	Perfect
	// None uses history for existing videos but nothing for new releases
	// (the "no estimate" row of Table VI).
	None
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case History:
		return "history"
	case Perfect:
		return "perfect"
	case None:
		return "no-estimate"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// HistoryDays is the look-back window of the History and None forecasts
// (§VI-A): the days of requests before a placement day that its instance is
// built from.
const HistoryDays = 7

// Config parameterizes instance building.
type Config struct {
	// Method is the forecast method. Default History.
	Method Method
	// HorizonDays is the placement period the instance must cover (new
	// videos released within it are included). Default 7.
	HorizonDays int
	// Slices is |T|, the number of peak windows whose link constraints are
	// enforced. Default 2 (§VI-B).
	Slices int
	// WindowSec is the peak-window length. Default 3600 (1 h, the Table V
	// sweet spot).
	WindowSec int64
	// Shards is the number of catalog shards the built instance is split
	// into (mip.Instance.Shards): the builder streams the catalog in shards
	// of that size, which bounds its peak staging memory. ≤ 1 builds a
	// single shard. The layout is accounting only — it never changes the
	// instance's numeric content, and the solver does not read it.
	Shards int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.HorizonDays <= 0 {
		out.HorizonDays = 7
	}
	if out.Slices <= 0 {
		out.Slices = 2
	}
	if out.WindowSec <= 0 {
		out.WindowSec = 3600
	}
	return out
}

// Builder assembles placement instances for successive placement days over
// one trace.
type Builder struct {
	G           *topology.Graph
	Lib         *catalog.Library
	DiskGB      []float64
	LinkCapMbps []float64
	Cfg         Config
}

// profile is the demand observed for one video over a window.
type profile struct {
	agg  map[int32]float64   // office -> request count
	conc []map[int32]float64 // per slice: office -> concurrent streams
}

// Instance builds the placement instance for the period starting at
// placementDay. With Method History or None the inputs come from the
// HistoryDays before placementDay; with Perfect, from the period itself.
func (b *Builder) Instance(tr *workload.Trace, placementDay int) (*mip.Instance, error) {
	cfg := b.Cfg.withDefaults()
	if tr == nil {
		return nil, fmt.Errorf("demand: nil trace")
	}

	var from, to int64
	switch cfg.Method {
	case Perfect:
		from = int64(placementDay) * workload.SecondsPerDay
		to = int64(placementDay+cfg.HorizonDays) * workload.SecondsPerDay
	default:
		histStart := placementDay - HistoryDays
		if histStart < 0 {
			histStart = 0
		}
		from = int64(histStart) * workload.SecondsPerDay
		to = int64(placementDay) * workload.SecondsPerDay
	}
	if to <= from {
		return nil, fmt.Errorf("demand: empty observation window [%d, %d)", from, to)
	}

	// Aggregate demand and peak-window concurrency over the observation
	// window.
	sub := tr.Slice(from, to)
	aggCounts := tr.AggregateCounts(from, to)
	windows := sub.TopPeakWindows(cfg.WindowSec, cfg.Slices)
	concs := make([]map[workload.JM]int, len(windows))
	for t, w := range windows {
		concs[t] = tr.PeakConcurrency(w, w+cfg.WindowSec)
	}

	// Group by video.
	profiles := make(map[int]*profile)
	prof := func(v int) *profile {
		p, ok := profiles[v]
		if !ok {
			p = &profile{agg: make(map[int32]float64), conc: make([]map[int32]float64, cfg.Slices)}
			for t := range p.conc {
				p.conc[t] = make(map[int32]float64)
			}
			profiles[v] = p
		}
		return p
	}
	for key, c := range aggCounts {
		j, m := key.Split()
		prof(m).agg[int32(j)] += float64(c)
	}
	for t := range concs {
		if t >= cfg.Slices {
			break
		}
		for key, c := range concs[t] {
			j, m := key.Split()
			prof(m).conc[t][int32(j)] += float64(c)
		}
	}

	// Scale up partially observed videos (released mid-history): their
	// counts cover fewer days than the full window.
	if cfg.Method != Perfect {
		histStart := int(from / workload.SecondsPerDay)
		for v, p := range profiles {
			rel := b.Lib.Videos[v].ReleaseDay
			if rel <= histStart {
				continue
			}
			observed := placementDay - rel
			if observed < 1 {
				observed = 1
			}
			scale := float64(HistoryDays) / float64(observed)
			if scale > 3 {
				scale = 3
			}
			for j := range p.agg {
				p.agg[j] *= scale
			}
			// Concurrency is a peak, not a sum; leave it unscaled.
		}
	}

	// Estimation for videos released during the placement period.
	if cfg.Method == History {
		b.estimateNewVideos(profiles, placementDay, cfg)
	}

	// Stream one VideoDemand per available video into an InstanceBuilder.
	// A single reused staging row set (Js/Agg/Conc below) is the only dense
	// per-video state alive at any moment — the builder copies what it keeps
	// and stores concurrency as CSR nonzeros — so build memory is bounded by
	// the largest single video plus the sealed shards, never by a dense
	// all-catalog intermediate. Videos are emitted in library order, exactly
	// the order the historical batch path materialized them in.
	lastDay := placementDay + cfg.HorizonDays
	eligible := 0
	for i := range b.Lib.Videos {
		if b.Lib.Videos[i].ReleaseDay < lastDay {
			eligible++
		}
	}
	shardSize := 0
	if cfg.Shards > 1 && eligible > 0 {
		shardSize = (eligible + cfg.Shards - 1) / cfg.Shards
	}
	ib, err := mip.NewInstanceBuilder(b.G, b.DiskGB, b.LinkCapMbps, cfg.Slices, shardSize)
	if err != nil {
		return nil, err
	}
	stage := mip.VideoDemand{Conc: make([][]float64, cfg.Slices)}
	for _, v := range b.Lib.Videos {
		if v.ReleaseDay >= lastDay {
			continue
		}
		stage.Video, stage.SizeGB, stage.RateMbps = v.ID, v.SizeGB, v.RateMbps
		stage.Js, stage.Agg = stage.Js[:0], stage.Agg[:0]
		for t := range stage.Conc {
			stage.Conc[t] = stage.Conc[t][:0]
		}
		if p, ok := profiles[v.ID]; ok {
			for j := range p.agg {
				stage.Js = append(stage.Js, j)
			}
			sort.Slice(stage.Js, func(x, y int) bool { return stage.Js[x] < stage.Js[y] })
			for _, j := range stage.Js {
				stage.Agg = append(stage.Agg, p.agg[j])
			}
			for t := 0; t < cfg.Slices; t++ {
				for _, j := range stage.Js {
					stage.Conc[t] = append(stage.Conc[t], p.conc[t][j])
				}
			}
		}
		if err := ib.Add(&stage); err != nil {
			return nil, err
		}
	}
	return ib.Seal()
}

// estimateNewVideos adds §VI-A estimated profiles for videos released in
// [placementDay, placementDay+HorizonDays) that have no history.
func (b *Builder) estimateNewVideos(profiles map[int]*profile, placementDay int, cfg Config) {
	// Most popular movie of the window, for blockbuster estimation. Movies
	// are walked in library order and each sums its offices in ascending
	// order, so the pick is the same on every build and a tie goes to the
	// lowest video ID.
	bestMovie, bestMovieAgg := -1, 0.0
	var offices []int32
	for _, vid := range b.Lib.Videos {
		if vid.Class != catalog.Movie1h && vid.Class != catalog.Movie2h {
			continue
		}
		p, ok := profiles[vid.ID]
		if !ok {
			continue
		}
		offices = offices[:0]
		for j := range p.agg {
			offices = append(offices, j)
		}
		slices.Sort(offices)
		var total float64
		for _, j := range offices {
			total += p.agg[j]
		}
		if total > bestMovieAgg {
			bestMovieAgg, bestMovie = total, vid.ID
		}
	}

	lastDay := placementDay + cfg.HorizonDays
	for i := range b.Lib.Videos {
		v := b.Lib.Videos[i]
		if v.ReleaseDay < placementDay || v.ReleaseDay >= lastDay {
			continue
		}
		if _, seen := profiles[v.ID]; seen {
			continue
		}
		var src int = -1
		switch {
		case v.Series != catalog.NoSeries:
			if prev, ok := b.Lib.PreviousEpisode(v); ok {
				if _, has := profiles[prev.ID]; has {
					src = prev.ID
				}
			}
		case v.Blockbuster && bestMovie >= 0:
			src = bestMovie
		}
		if src < 0 {
			continue
		}
		srcP := profiles[src]
		p := &profile{agg: make(map[int32]float64, len(srcP.agg)), conc: make([]map[int32]float64, cfg.Slices)}
		for j, a := range srcP.agg {
			p.agg[j] = a
		}
		for t := range p.conc {
			p.conc[t] = make(map[int32]float64, len(srcP.conc[t]))
			for j, c := range srcP.conc[t] {
				p.conc[t][j] = c
			}
		}
		profiles[v.ID] = p
	}
}
