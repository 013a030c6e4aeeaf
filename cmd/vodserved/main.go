// Command vodserved runs the placement service: it builds the deployment's
// instance with vodplace's recipe and flags (core.Deployment), solves and
// audits the initial placement, then serves routing lookups from an
// immutable snapshot while a background resolver folds streamed demand
// updates into warm-started, audit-gated re-placements.
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

	"vodplace/internal/core"
	"vodplace/internal/epf"
	"vodplace/internal/obs"
	"vodplace/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	dep := core.Register(flag.CommandLine)
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		passes   = flag.Int("passes", 120, "solver pass cap (initial solve and re-solves)")
		eps      = flag.Float64("eps", 0, "solver epsilon (0 = solver default)")
		updateW  = flag.Float64("update-weight", 0, "migration-cost weight charged against moving copies between snapshots (0 = off)")
	)
	obsFlags := obs.Register(flag.CommandLine)
	flag.Parse()

	rec, obsStop, err := obs.Start(obsFlags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodserved: %v\n", err)
		return 1
	}
	code := serveMain(*addr, *addrFile, *dep, serve.Config{
		Solver:       epf.Options{Seed: dep.Seed, MaxPasses: *passes, Epsilon: *eps},
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
	return code
}

func serveMain(addr, addrFile string, dep core.Deployment, cfg serve.Config) int {
	inst, err := dep.Instance()
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodserved: %v\n", err)
		return 1
	}
	fmt.Printf("instance: %d offices, %d links, %d videos, %d time slices\n",
		inst.NumVHOs(), inst.G.NumLinks(), inst.NumVideos(), inst.Slices)

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
