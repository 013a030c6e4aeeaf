package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"vodplace/internal/stats"
	"vodplace/internal/workload"
)

func init() {
	register("fig2", "Working set size during peak hours (Fig. 2)", Fig2WorkingSet)
	register("fig3", "Request-mix cosine similarity vs time window (Fig. 3)", Fig3Similarity)
	register("fig4", "Daily request counts per episode of a series (Fig. 4)", Fig4Series)
}

// Fig2Result is the Fig. 2 data: per-office working set sizes, in GB and as
// a fraction of the library, during the peak hour of a Friday and Saturday.
type Fig2Result struct {
	LibraryGB  float64
	FridayGB   []float64
	SaturdayGB []float64
}

// MaxFraction returns the largest working set as a fraction of the library.
func (r *Fig2Result) MaxFraction() float64 {
	m := stats.Max(r.FridayGB)
	if s := stats.Max(r.SaturdayGB); s > m {
		m = s
	}
	return m / r.LibraryGB
}

// Fig2Compute runs the working-set analysis on a scenario.
func Fig2Compute(sc *Scenario) *Fig2Result {
	// Pick the second Friday/Saturday so the library's release schedule has
	// kicked in (days are Monday-based: Friday = 4, Saturday = 5).
	friday, saturday := 11, 12
	if sc.Cfg.Days <= 12 {
		friday, saturday = 4, 5
	}
	return &Fig2Result{
		LibraryGB:  sc.Lib.TotalSizeGB(),
		FridayGB:   sc.Trace.WorkingSetGB(friday),
		SaturdayGB: sc.Trace.WorkingSetGB(saturday),
	}
}

// Fig2WorkingSet prints per-office working sets sorted decreasing, as the
// paper plots them.
func Fig2WorkingSet(_ context.Context, w io.Writer, cfg Config) error {
	sc := NewScenario(cfg)
	r := Fig2Compute(sc)
	type row struct {
		vho      int
		fri, sat float64
	}
	rows := make([]row, len(r.FridayGB))
	for j := range rows {
		rows[j] = row{j, r.FridayGB[j], r.SaturdayGB[j]}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].fri > rows[b].fri })
	fmt.Fprintf(w, "library size: %.0f GB\n", r.LibraryGB)
	fmt.Fprintf(w, "%-6s %12s %12s %10s\n", "VHO", "Friday(GB)", "Saturday(GB)", "frac(lib)")
	for _, rw := range rows {
		fmt.Fprintf(w, "%-6d %12.1f %12.1f %9.1f%%\n", rw.vho, rw.fri, rw.sat, 100*rw.fri/r.LibraryGB)
	}
	fmt.Fprintf(w, "max working set = %.1f%% of library\n", 100*r.MaxFraction())
	return nil
}

// Fig3Result is the Fig. 3 data: for each window size, the per-office cosine
// similarity between the peak window's request mix and the previous window's.
type Fig3Result struct {
	WindowSec []int64
	// Similarity[i] are the per-office similarities for WindowSec[i].
	Similarity [][]float64
}

// Fig3Compute runs the similarity analysis for the paper's window ladder.
func Fig3Compute(sc *Scenario) *Fig3Result {
	windows := []int64{3600, 2 * 3600, 6 * 3600, 12 * 3600, workload.SecondsPerDay}
	out := &Fig3Result{WindowSec: windows}
	for _, ws := range windows {
		out.Similarity = append(out.Similarity, sc.Trace.SimilarityAtPeak(ws))
	}
	return out
}

// Fig3Similarity prints mean/min/max similarity per window size.
func Fig3Similarity(_ context.Context, w io.Writer, cfg Config) error {
	sc := NewScenario(cfg)
	r := Fig3Compute(sc)
	fmt.Fprintf(w, "%-10s %8s %8s %8s\n", "window", "mean", "min", "max")
	for i, ws := range r.WindowSec {
		sim := r.Similarity[i]
		fmt.Fprintf(w, "%-10s %8.3f %8.3f %8.3f\n",
			formatWindow(ws), stats.Mean(sim), stats.Min(sim), stats.Max(sim))
	}
	return nil
}

func formatWindow(sec int64) string {
	switch {
	case sec >= workload.SecondsPerDay:
		return fmt.Sprintf("%dd", sec/workload.SecondsPerDay)
	case sec >= 3600:
		return fmt.Sprintf("%dh", sec/3600)
	case sec >= 60:
		return fmt.Sprintf("%dm", sec/60)
	default:
		return fmt.Sprintf("%ds", sec)
	}
}

// Fig4Result is the Fig. 4 data: per-episode daily request counts for one
// TV series.
type Fig4Result struct {
	Series int
	// Daily[episode] has one count per trace day.
	Daily map[int][]int
}

// ReleaseDayCounts returns each episode's request count on its release day,
// in episode order — the quantity whose stability justifies the §VI-A
// estimator.
func (r *Fig4Result) ReleaseDayCounts() []int {
	var eps []int
	for ep := range r.Daily {
		eps = append(eps, ep)
	}
	sort.Ints(eps)
	var out []int
	for _, ep := range eps {
		best := 0
		for _, c := range r.Daily[ep] {
			if c > best {
				best = c
			}
		}
		out = append(out, best)
	}
	return out
}

// Fig4Compute tallies the series with the most requests.
func Fig4Compute(sc *Scenario) *Fig4Result {
	bestSeries, bestCount := 0, -1
	for s := 0; s < sc.Lib.NumSeries; s++ {
		counts := sc.Trace.SeriesDailyCounts(s)
		total := 0
		for _, daily := range counts {
			for _, c := range daily {
				total += c
			}
		}
		if total > bestCount {
			bestCount, bestSeries = total, s
		}
	}
	return &Fig4Result{Series: bestSeries, Daily: sc.Trace.SeriesDailyCounts(bestSeries)}
}

// Fig4Series prints the per-episode daily counts.
func Fig4Series(_ context.Context, w io.Writer, cfg Config) error {
	sc := NewScenario(cfg)
	r := Fig4Compute(sc)
	var eps []int
	for ep := range r.Daily {
		eps = append(eps, ep)
	}
	sort.Ints(eps)
	fmt.Fprintf(w, "series %d, %d episodes\n", r.Series, len(eps))
	fmt.Fprintf(w, "%-8s", "day")
	for _, ep := range eps {
		fmt.Fprintf(w, " ep%-5d", ep)
	}
	fmt.Fprintln(w)
	for day := 0; day < sc.Cfg.Days; day++ {
		fmt.Fprintf(w, "%-8d", day)
		for _, ep := range eps {
			fmt.Fprintf(w, " %-7d", r.Daily[ep][day])
		}
		fmt.Fprintln(w)
	}
	peaks := r.ReleaseDayCounts()
	fmt.Fprintf(w, "peak-day counts per episode: %v\n", peaks)
	return nil
}
