// Command vodserved runs the placement service: it synthesizes (or scales)
// a workload the same way vodplace does, solves and audits the initial
// placement, then serves routing lookups from an immutable snapshot while a
// background resolver folds streamed demand updates into warm-started,
// audit-gated re-placements.
//
// Endpoints: GET /route?video=&vho=, GET /placement, GET /healthz,
// GET /status, POST /demand. See DESIGN.md §12.
//
// Usage:
//
//	vodserved [-addr :8080] [-videos 2000] [-vhos 55] [-seed 1] ...
//
// SIGINT/SIGTERM drains in-flight requests, discards any in-flight
// re-solve, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vodplace/internal/catalog"
	"vodplace/internal/core"
	"vodplace/internal/demand"
	"vodplace/internal/epf"
	"vodplace/internal/obs"
	"vodplace/internal/prof"
	"vodplace/internal/serve"
	"vodplace/internal/topology"
	"vodplace/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		videos   = flag.Int("videos", 2000, "library size")
		vhos     = flag.Int("vhos", 55, "number of offices (55 = backbone)")
		rpd      = flag.Float64("rpd", 4, "requests per video per day")
		disk     = flag.Float64("disk", 2.0, "aggregate disk as multiple of library size")
		link     = flag.Float64("link", 1000, "uniform link capacity in Mb/s")
		slices   = flag.Int("slices", 2, "number of peak-window link constraints |T|")
		window   = flag.Int64("window", 3600, "peak window length in seconds")
		seed     = flag.Int64("seed", 1, "random seed")
		passes   = flag.Int("passes", 120, "solver pass cap (initial solve and re-solves)")
		eps      = flag.Float64("eps", 0, "solver epsilon (0 = solver default)")
		updateW  = flag.Float64("update-weight", 0, "migration-cost weight charged against moving copies between snapshots (0 = off)")
	)
	profFlags := prof.Register(flag.CommandLine)
	obsFlags := obs.Register(flag.CommandLine)
	flag.Parse()

	profStop, err := prof.Start(profFlags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodserved: %v\n", err)
		return 1
	}
	rec, obsStop, err := obs.Start(obsFlags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodserved: %v\n", err)
		profStop() //nolint:errcheck // already failing
		return 1
	}
	code := serveMain(*addr, *addrFile, genConfig{
		videos: *videos, vhos: *vhos, rpd: *rpd, disk: *disk, link: *link,
		slices: *slices, window: *window, seed: *seed,
	}, serve.Config{
		Solver:       epf.Options{Seed: *seed, MaxPasses: *passes, Epsilon: *eps},
		UpdateWeight: *updateW,
		Recorder:     rec,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err := obsStop(); err != nil {
		fmt.Fprintf(os.Stderr, "vodserved: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	if err := profStop(); err != nil {
		fmt.Fprintf(os.Stderr, "vodserved: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// genConfig mirrors vodplace's instance-generation knobs.
type genConfig struct {
	videos, vhos, slices int
	rpd, disk, link      float64
	window, seed         int64
}

// buildInstance synthesizes the daemon's placement instance exactly the way
// vodplace does, so a served placement is reproducible offline.
func buildInstance(c genConfig) (*topology.Graph, *demand.Builder, *workload.Trace, error) {
	var g *topology.Graph
	if c.vhos == 55 {
		g = topology.Backbone55()
	} else {
		g = topology.Random(c.vhos, 1.4, c.seed)
	}
	lib := catalog.Generate(catalog.Config{NumVideos: c.videos, Weeks: 2}, c.seed+10)
	tr := workload.GenerateTrace(lib, workload.TraceConfig{
		Days: 8, NumVHOs: c.vhos, RequestsPerVideoPerDay: c.rpd,
	}, c.seed+20)
	b := &demand.Builder{
		G: g, Lib: lib,
		DiskGB:      core.UniformDisk(lib, c.vhos, c.disk),
		LinkCapMbps: core.UniformLinks(g, c.link),
		Cfg:         demand.Config{Slices: c.slices, WindowSec: c.window, HorizonDays: 7},
	}
	return g, b, tr, nil
}

func serveMain(addr, addrFile string, gen genConfig, cfg serve.Config) int {
	g, builder, tr, err := buildInstance(gen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodserved: %v\n", err)
		return 1
	}
	inst, err := builder.Instance(tr, 7)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodserved: %v\n", err)
		return 1
	}
	fmt.Printf("instance: %d offices, %d links, %d videos, %d time slices\n",
		inst.NumVHOs(), g.NumLinks(), inst.NumVideos(), inst.Slices)

	start := time.Now()
	s, err := serve.New(inst, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodserved: %v\n", err)
		return 1
	}
	defer s.Close()
	fmt.Printf("initial placement certified in %.1fs, serving v%d\n",
		time.Since(start).Seconds(), s.Snapshot().Version)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodserved: %v\n", err)
		return 1
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "vodserved: %v\n", err)
			ln.Close() //nolint:errcheck
			return 1
		}
	}
	fmt.Printf("listening on %s\n", bound)

	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// SIGINT/SIGTERM: drain in-flight requests, then stop the resolver
	// (discarding any in-flight re-solve) and exit 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Println("shutting down")
		drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(drain); err != nil {
			fmt.Fprintf(os.Stderr, "vodserved: shutdown: %v\n", err)
			return 1
		}
		<-serveErr // Serve has returned ErrServerClosed
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "vodserved: %v\n", err)
			return 1
		}
	}
	s.Close()
	fmt.Println("clean shutdown")
	return 0
}
