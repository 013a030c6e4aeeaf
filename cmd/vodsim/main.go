// Command vodsim plays a synthetic request trace against the MIP placement
// scheme and the paper's caching baselines, printing the §VII-B comparison:
// peak link bandwidth, total hop-weighted transfer volume, and the fraction
// of requests served locally.
//
// Usage:
//
//	vodsim [-videos 2000] [-days 28] [-vhos 55] [-disk 2.0] [-seed 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"vodplace/internal/cache"
	"vodplace/internal/core"
	"vodplace/internal/epf"
	"vodplace/internal/experiments"
	"vodplace/internal/obs"
	"vodplace/internal/prof"
	"vodplace/internal/sim"
)

func main() {
	var (
		videos = flag.Int("videos", 2000, "library size")
		days   = flag.Int("days", 28, "trace days")
		vhos   = flag.Int("vhos", 55, "number of offices")
		rpd    = flag.Float64("rpd", 4, "requests per video per day")
		disk   = flag.Float64("disk", 2.0, "aggregate disk as multiple of library size")
		link   = flag.Float64("link", 1000, "uniform link capacity in Mb/s")
		seed   = flag.Int64("seed", 1, "random seed")
		passes = flag.Int("passes", 80, "solver pass cap")
		topK   = flag.Int("topk", 100, "K for the Top-K+LRU baseline")
		origin = flag.Bool("origin", false, "also run LRU with 4 regional origin servers")
	)
	profFlags := prof.Register(flag.CommandLine)
	obsFlags := obs.Register(flag.CommandLine)
	flag.Parse()

	profStop, err := prof.Start(profFlags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodsim: %v\n", err)
		os.Exit(1)
	}
	rec, obsStop, err := obs.Start(obsFlags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodsim: %v\n", err)
		profStop() //nolint:errcheck // already failing
		os.Exit(1)
	}
	// Every exit path runs obsStop so an interrupted comparison still keeps
	// the buffered trace of the schemes that finished.
	exit := func(code int) {
		if err := obsStop(); err != nil {
			fmt.Fprintf(os.Stderr, "vodsim: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		if err := profStop(); err != nil {
			fmt.Fprintf(os.Stderr, "vodsim: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	// Ctrl-C / SIGTERM cancels the MIP solves cooperatively.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sc := experiments.NewScenario(experiments.Config{
		Videos: *videos, Days: *days, VHOs: *vhos,
		RequestsPerVideoPerDay: *rpd, DiskFactor: *disk, LinkCapMbps: *link,
		Seed: *seed, MaxPasses: *passes,
	})
	fmt.Printf("scenario: %d offices (%s), %d videos (%.0f GB), %d days, %d requests\n",
		sc.G.NumNodes(), sc.G.Name(), sc.Lib.Len(), sc.Lib.TotalSizeGB(), sc.Trace.Days, len(sc.Trace.Requests))

	report := func(name string, r *sim.Result) {
		fmt.Printf("%-14s peak %8.0f Mb/s   total %12.0f GBxhop   local %6.2f%%   migrated %d\n",
			name, r.MaxLinkMbps, r.TotalGBHop, 100*r.LocalFrac, r.MigratedVideos)
	}

	mipRun, err := sc.Sys.RunMIPContext(ctx, sc.Trace, core.MIPOptions{
		Solver:   epf.Options{Seed: *seed, MaxPasses: *passes, Recorder: rec},
		Recorder: rec,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodsim: mip: %v\n", err)
		exit(1)
	}
	report("mip", mipRun.Sim)

	for _, b := range []struct {
		name string
		opts core.BaselineOptions
	}{
		{"random+lru", core.BaselineOptions{Policy: cache.LRU, Seed: *seed}},
		{"random+lfu", core.BaselineOptions{Policy: cache.LFU, Seed: *seed}},
		{fmt.Sprintf("top%d+lru", *topK), core.BaselineOptions{Policy: cache.LRU, TopK: *topK, Seed: *seed}},
	} {
		b.opts.Recorder = rec
		b.opts.Scheme = b.name
		r, err := sc.Sys.RunBaseline(sc.Trace, b.opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vodsim: %s: %v\n", b.name, err)
			exit(1)
		}
		report(b.name, r)
	}
	if *origin {
		r, err := sc.Sys.RunOriginLRU(sc.Trace, 4, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vodsim: origin: %v\n", err)
			exit(1)
		}
		report("origin+lru", r)
	}
	exit(0)
}
