package epf

import (
	"fmt"
	"strings"
	"time"
)

// Stats reports the runtime behavior of one solve: how much work the hot
// path did, where the wall time went, and whether the per-worker scratch
// economy held (one allocation per worker, reuse everywhere else). Counters
// touched inside fan-outs are accumulated lock-free in per-worker scratch
// and merged when the result is built; everything else is counted on the
// sequential driver goroutine.
//
// Stats is observability only: nothing in the solver reads it back, so it
// never influences numeric output.
type Stats struct {
	// Workers is the pool size the solve ran with.
	Workers int
	// Shards is the number of catalog shards the block schedule was grouped
	// by (1 on unsharded solves).
	Shards int
	// Passes is the number of gradient-descent passes performed.
	Passes int
	// BlocksOptimized counts block subproblem solves in the descent loop
	// (chunk optimization), across all workers.
	BlocksOptimized int64
	// LBBlockSolves counts block solves performed for Lagrangian bound
	// evaluations (dual ascent, plus minimizers during polish).
	LBBlockSolves int64
	// DualRefreshes counts full dual-vector recomputations (chunk freezes,
	// bound evaluations, rounding chunks).
	DualRefreshes int64
	// LineSearches counts exact 1-D potential line searches.
	LineSearches int64
	// LBEvals counts LR(λ) evaluations (each is a full pass over blocks).
	LBEvals int64
	// Polishes counts subgradient dual-polish rounds.
	Polishes int
	// LBRaised counts the evaluations — a pass's scale search, or one polish
	// iteration — that raised the bound over the one the descent started
	// from. LBRaised against LBEvals is the bound side's useful-outcome ratio.
	LBRaised int64
	// WarmStartTries / WarmStartHits report the facility-location warm-start
	// economy: block solves seeded from the video's previous open set, and
	// the subset where that seed's local optimum beat the cold start.
	WarmStartTries int64
	WarmStartHits  int64
	// WarmVideos counts videos whose initial point was seeded from a
	// cross-period WarmState (Options.Warm); the remainder fell back to the
	// cold init. WarmVideos / NumVideos is the warm reuse fraction the
	// pipeline telemetry reports. Zero on cold solves.
	WarmVideos int
	// ResumedVideos counts the subset of WarmVideos whose block was loaded
	// from the carried LP point (WarmState.LP) rather than re-seeded from
	// its open set: the videos whose demand offices did not change.
	// ResumedVideos / NumVideos near 1 is a re-solve that resumed the
	// previous descent; near 0, one that restarted it.
	ResumedVideos int
	// ScratchAllocs / ScratchReuses report the per-worker scratch economy:
	// allocs should stay ≤ Workers, everything else lands in reuses.
	ScratchAllocs int64
	ScratchReuses int64
	// InitTime is wall time in newSolver (buffers, cost table, initial
	// point); LPTime is wall time in the fractional descent phase (including
	// bound evaluations); RoundTime is wall time in the §V-D integer phase.
	InitTime  time.Duration
	LPTime    time.Duration
	RoundTime time.Duration
	// LBTime is wall time inside LR(λ) evaluations, a subset of LPTime, and
	// PolishTime the part of LBTime spent in dual-polish rounds.
	LBTime     time.Duration
	PolishTime time.Duration
	// RoundResolves counts the rounding phase's block solves: every visit of
	// a polish pass re-prices disk and solves the video's block at the live
	// duals.
	RoundResolves int64
	// RoundCarried counts the videos whose block the rounding phase loaded
	// from the integer placement carried by the warm state (WarmState.Assign)
	// before polishing it; the rest of the catalog was re-seeded from its open
	// set. Zero when the state carried no placement and rounding started from
	// scratch without trying.
	RoundCarried int
	// RoundResumed is 1 when the polished carried placement met the carried
	// reference and the from-scratch attempt was skipped, 0 when rounding
	// ran in full — RoundCarried > 0 then says a resume was tried and refused.
	RoundResumed int
	// RoundRef is the reference the resume was measured against
	// (WarmState.RoundRef; 0 when none was tried) and RoundRatio the
	// incumbent's score over the solve's lower bound when the rounding was
	// decided: at the end of the resume's polish when one was tried —
	// accepted when RoundRatio ≤ RoundRef, refused by the margin between them
	// — and at the end of a full rounding, where it is the reference the
	// next solve inherits.
	RoundRef   float64
	RoundRatio float64
	// ReduceTime is wall time spent in driver-side reductions of per-block
	// results: activity/objective rebuilds, Lagrangian term sums, and
	// subgradient accumulation. A subset of LPTime (and of RoundTime for the
	// rebuilds rounding triggers); it is the serial-residue figure the
	// multi-core audit tracks.
	ReduceTime time.Duration
}

// RoundMode names which rounding ran: "resumed" (the carried placement met
// its reference), "rejected" (it was tried and refused; the from-scratch
// attempt ran too) or "full" (nothing was carried to try).
func (st Stats) RoundMode() string {
	switch {
	case st.RoundResumed == 1:
		return "resumed"
	case st.RoundCarried > 0:
		return "rejected"
	}
	return "full"
}

// String renders a compact multi-line report, the -v output of the CLIs.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workers %d, passes %d\n", st.Workers, st.Passes)
	if st.Shards > 1 {
		fmt.Fprintf(&b, "shards %d\n", st.Shards)
	}
	fmt.Fprintf(&b, "blocks optimized %d, lb block solves %d\n", st.BlocksOptimized, st.LBBlockSolves)
	fmt.Fprintf(&b, "lb evals %d (%d raised it), polish rounds %d, bound %.0f ms of lp %.0f ms\n",
		st.LBEvals, st.LBRaised, st.Polishes, 1e3*st.LBTime.Seconds(), 1e3*st.LPTime.Seconds())
	fmt.Fprintf(&b, "dual refreshes %d, line searches %d\n", st.DualRefreshes, st.LineSearches)
	if st.WarmStartTries > 0 {
		fmt.Fprintf(&b, "warm starts: %d tried, %d won\n", st.WarmStartTries, st.WarmStartHits)
	}
	if st.WarmVideos > 0 {
		fmt.Fprintf(&b, "warm-seeded videos: %d\n", st.WarmVideos)
	}
	if st.ResumedVideos > 0 {
		fmt.Fprintf(&b, "resumed videos: %d\n", st.ResumedVideos)
	}
	if st.RoundResolves > 0 {
		fmt.Fprintf(&b, "rounding block solves: %d\n", st.RoundResolves)
	}
	if st.RoundCarried > 0 {
		fmt.Fprintf(&b, "rounding %s: %d videos carried, ratio %.4f, reference %.4f\n",
			st.RoundMode(), st.RoundCarried, st.RoundRatio, st.RoundRef)
	}
	fmt.Fprintf(&b, "scratch: %d allocs, %d reuses\n", st.ScratchAllocs, st.ScratchReuses)
	fmt.Fprintf(&b, "time: init %.2fs, lp %.2fs, rounding %.2fs (reduce %.2fs)",
		st.InitTime.Seconds(), st.LPTime.Seconds(), st.RoundTime.Seconds(),
		st.ReduceTime.Seconds())
	return b.String()
}
