// Command vodexp regenerates the paper's tables and figures.
//
// Usage:
//
//	vodexp -list
//	vodexp -exp fig5 [-videos 2000] [-days 28] [-vhos 55] [-seed 1]
//	vodexp -exp all -quick
//
// Each experiment prints the same rows or series the corresponding paper
// artifact reports; EXPERIMENTS.md maps outputs to paper numbers.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"vodplace/internal/experiments"
	"vodplace/internal/obs"
	"vodplace/internal/prof"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list experiments and exit")
		exp    = flag.String("exp", "", "experiment id (fig2..fig13, table2..table6, rounding) or 'all'")
		videos = flag.Int("videos", 0, "library size (default 2000; quick 300)")
		days   = flag.Int("days", 0, "trace days (default 28; quick 16)")
		vhos   = flag.Int("vhos", 0, "number of offices (default 55 = backbone)")
		rpd    = flag.Float64("rpd", 0, "requests per video per day (default 4; quick 2)")
		disk   = flag.Float64("disk", 0, "aggregate disk as multiple of library size (default 2)")
		link   = flag.Float64("link", 0, "uniform link capacity in Mb/s (default 1000)")
		seed   = flag.Int64("seed", 0, "random seed (default 1)")
		passes = flag.Int("passes", 0, "solver pass cap (default 80)")
		eps    = flag.Float64("eps", 0, "solver convergence tolerance (default: solver's)")
		shards = flag.Int("shards", 0, "catalog shards for block scheduling (0/1 = unsharded; any value yields bit-identical results)")
		quick  = flag.Bool("quick", false, "reduced scale for smoke runs")
		doAud  = flag.Bool("verify", false, "re-check every solver result with the independent certificate auditor")
		cold   = flag.Bool("cold", false, "solve every placement period cold instead of seeding it from the previous period's final state")
	)
	profFlags := prof.Register(flag.CommandLine)
	obsFlags := obs.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-10s %s\n", r.ID, r.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "vodexp: -exp required (or -list); see -h")
		os.Exit(2)
	}
	profStop, err := prof.Start(profFlags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodexp: %v\n", err)
		os.Exit(1)
	}
	rec, obsStop, err := obs.Start(obsFlags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodexp: %v\n", err)
		profStop() //nolint:errcheck // already failing
		os.Exit(1)
	}
	// Every exit path runs obsStop so an interrupted experiment still keeps
	// its buffered trace.
	exit := func(code int) {
		if err := obsStop(); err != nil {
			fmt.Fprintf(os.Stderr, "vodexp: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		if err := profStop(); err != nil {
			fmt.Fprintf(os.Stderr, "vodexp: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}
	cfg := experiments.Config{
		Videos:                 *videos,
		Days:                   *days,
		VHOs:                   *vhos,
		RequestsPerVideoPerDay: *rpd,
		DiskFactor:             *disk,
		LinkCapMbps:            *link,
		Seed:                   *seed,
		MaxPasses:              *passes,
		Epsilon:                *eps,
		Shards:                 *shards,
		Quick:                  *quick,
		Verify:                 *doAud,
		Warm:                   !*cold,
		Recorder:               rec,
	}
	// Ctrl-C / SIGTERM cancels the running experiment cooperatively.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *exp == "all" {
		if err := experiments.RunAll(ctx, os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "vodexp: %v\n", err)
			exit(1)
		}
		exit(0)
	}
	r, ok := experiments.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "vodexp: unknown experiment %q; use -list\n", *exp)
		exit(2)
	}
	fmt.Printf("==== %s: %s ====\n", r.ID, r.Title)
	if err := r.Run(ctx, os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "vodexp: %v\n", err)
		exit(1)
	}
	exit(0)
}
