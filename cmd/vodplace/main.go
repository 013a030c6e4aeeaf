// Command vodplace solves one content-placement instance end to end:
// it synthesizes (or scales) a workload, estimates demand from the first
// week of history, runs the EPF solver plus rounding, and reports the
// placement — objective, optimality gap, constraint violations, copy
// distribution, and per-office disk use.
//
// Usage:
//
//	vodplace [-videos 2000] [-vhos 55] [-disk 2.0] [-link 1000] [-seed 1] [-v]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"vodplace/internal/catalog"
	"vodplace/internal/core"
	"vodplace/internal/demand"
	"vodplace/internal/epf"
	"vodplace/internal/obs"
	"vodplace/internal/prof"
	"vodplace/internal/topology"
	"vodplace/internal/verify"
	"vodplace/internal/workload"
)

func main() {
	var (
		videos  = flag.Int("videos", 2000, "library size")
		vhos    = flag.Int("vhos", 55, "number of offices (55 = backbone)")
		rpd     = flag.Float64("rpd", 4, "requests per video per day")
		disk    = flag.Float64("disk", 2.0, "aggregate disk as multiple of library size")
		link    = flag.Float64("link", 1000, "uniform link capacity in Mb/s")
		slices  = flag.Int("slices", 2, "number of peak-window link constraints |T|")
		window  = flag.Int64("window", 3600, "peak window length in seconds")
		shards  = flag.Int("shards", 1, "catalog shards for instance building and block scheduling (1 = unsharded; any value yields bit-identical results)")
		seed    = flag.Int64("seed", 1, "random seed")
		passes  = flag.Int("passes", 120, "solver pass cap")
		verbose = flag.Bool("v", false, "per-pass solver progress")
		doAudit = flag.Bool("verify", false, "re-check the solution with the independent certificate auditor")
		doWarm  = flag.Bool("warm", false, "after the cold solve, re-solve seeded from its final state and report the convergence saving")
	)
	profFlags := prof.Register(flag.CommandLine)
	obsFlags := obs.Register(flag.CommandLine)
	flag.Parse()

	profStop, err := prof.Start(profFlags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodplace: %v\n", err)
		os.Exit(1)
	}
	rec, obsStop, err := obs.Start(obsFlags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodplace: %v\n", err)
		profStop() //nolint:errcheck // already failing
		os.Exit(1)
	}
	// Every exit path runs obsStop so the trace sink is flushed even when the
	// run was interrupted or the audit failed.
	exit := func(code int) {
		if err := obsStop(); err != nil {
			fmt.Fprintf(os.Stderr, "vodplace: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		if err := profStop(); err != nil {
			fmt.Fprintf(os.Stderr, "vodplace: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	var g *topology.Graph
	if *vhos == 55 {
		g = topology.Backbone55()
	} else {
		g = topology.Random(*vhos, 1.4, *seed)
	}
	lib := catalog.Generate(catalog.Config{NumVideos: *videos, Weeks: 2}, *seed+10)
	tr := workload.GenerateTrace(lib, workload.TraceConfig{
		Days: 8, NumVHOs: *vhos, RequestsPerVideoPerDay: *rpd,
	}, *seed+20)

	builder := &demand.Builder{
		G: g, Lib: lib,
		DiskGB:      core.UniformDisk(lib, *vhos, *disk),
		LinkCapMbps: core.UniformLinks(g, *link),
		Cfg:         demand.Config{Slices: *slices, WindowSec: *window, HorizonDays: 7, Shards: *shards},
	}
	inst, err := builder.Instance(tr, 7)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodplace: %v\n", err)
		exit(1)
	}
	fmt.Printf("instance: %d offices, %d links, %d videos, %d time slices\n",
		inst.NumVHOs(), g.NumLinks(), inst.NumVideos(), inst.Slices)

	opts := epf.Options{Seed: *seed, MaxPasses: *passes, Recorder: rec}
	if *verbose {
		opts.OnPass = func(pi epf.PassInfo) {
			fmt.Println(obs.PassRow(pi.Pass, pi.Objective, pi.LowerBound, pi.MaxViol))
		}
	}
	// Ctrl-C / SIGTERM cancels the solve cooperatively: the solver stops at
	// the next chunk boundary and the partial placement is still reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, err := epf.SolveIntegerContext(ctx, inst, opts)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fmt.Fprintf(os.Stderr, "vodplace: %v\n", err)
		exit(1)
	}
	elapsed := time.Since(start)

	if interrupted {
		fmt.Printf("\ninterrupted after %.1fs (%d passes); reporting the partial placement\n",
			elapsed.Seconds(), res.Passes)
	} else {
		fmt.Printf("\nsolved in %.1fs (%d passes)\n", elapsed.Seconds(), res.Passes)
	}
	if *verbose {
		fmt.Printf("\nsolver stats:\n%s\n\n", res.Stats)
	}
	fmt.Printf("objective:     %.1f GB (transfer cost, hop-weighted)\n", res.Objective)
	fmt.Printf("lower bound:   %.1f GB (Lagrangian)\n", res.LowerBound)
	fmt.Printf("gap:           %.2f%%\n", 100*res.Gap)
	fmt.Printf("violations:    disk %.2f%%, link %.2f%%\n", 100*res.Violation.Disk, 100*res.Violation.Link)

	copies := res.Sol.Copies()
	hist := map[int]int{}
	total := 0
	for _, c := range copies {
		hist[c]++
		total += c
	}
	var keys []int
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	fmt.Printf("\ncopies  videos\n")
	for _, k := range keys {
		fmt.Printf("%6d  %6d\n", k, hist[k])
	}
	fmt.Printf("total copies: %d (%.2fx library)\n", total, float64(total)/float64(len(copies)))

	use := res.Sol.DiskUsage()
	var minU, maxU float64 = use[0], use[0]
	for _, u := range use {
		if u < minU {
			minU = u
		}
		if u > maxU {
			maxU = u
		}
	}
	fmt.Printf("per-office disk use: min %.0f GB, max %.0f GB (capacity %.0f GB)\n",
		minU, maxU, inst.DiskGB[0])

	if *doAudit {
		rep := verify.Audit(inst, res)
		fmt.Printf("\nverify: %s\n", rep)
		if err := rep.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "vodplace: %v\n", err)
			exit(1)
		}
	}

	// -warm demos the cross-period warm start on a single instance: re-solve
	// seeded from the cold result's exported state. In the multi-period
	// pipeline (vodexp -warm) the seed comes from the previous day instead;
	// here, with zero drift, the re-solve shows the mechanism's ceiling.
	if *doWarm && !interrupted {
		wopts := opts
		wopts.Warm = res.Warm
		wopts.TraceStream = "warm"
		wstart := time.Now()
		wres, err := epf.SolveIntegerContext(ctx, inst, wopts)
		if err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "vodplace: warm re-solve: %v\n", err)
			exit(1)
		}
		fmt.Printf("\nwarm re-solve: %.1fs, %d passes (cold: %.1fs, %d passes), %d/%d videos seeded\n",
			time.Since(wstart).Seconds(), wres.Passes, elapsed.Seconds(), res.Passes,
			wres.Stats.WarmVideos, inst.NumVideos())
		fmt.Printf("warm objective: %.1f GB  lb %.1f GB  gap %.2f%%\n",
			wres.Objective, wres.LowerBound, 100*wres.Gap)
		if *verbose {
			fmt.Printf("\nwarm solver stats:\n%s\n", wres.Stats)
		}
		if *doAudit {
			rep := verify.Audit(inst, wres)
			fmt.Printf("verify (warm): %s\n", rep)
			if err := rep.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "vodplace: %v\n", err)
				exit(1)
			}
		}
	}
	exit(0)
}
