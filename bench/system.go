package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"vodplace/internal/catalog"
	"vodplace/internal/core"
	"vodplace/internal/demand"
	"vodplace/internal/epf"
	"vodplace/internal/serve"
	"vodplace/internal/topology"
	"vodplace/internal/verify"
	"vodplace/internal/workload"
)

// Generator constants cmd/vodserved hard-codes or defaults to.
const (
	traceDays     = 8 // seven days of history and one held-out day
	placementDay  = 7
	requestsPerVD = 4.0
	diskFactor    = 2.0
)

// system is the pipeline under test, built in-process the way cmd/vodserved
// builds it and listening on a real loopback socket.
type system struct {
	shape shape
	trace *workload.Trace
	build *demand.Builder
	// opts are the daemon's solver options at this shape's tolerances.
	opts epf.Options
	srv  *serve.Server
	addr string

	httpSrv  *http.Server
	serveErr chan error

	// cold is the set-up solve's result. The server owns cold.Sol and the
	// instance from NewWithResult on; the harness only reads them.
	cold      *epf.Result
	instStart time.Time

	traceGenMS, instanceMS, coldSolveMS, auditMS, snapshotMS float64
}

func solverOptions(sh shape) epf.Options {
	return epf.Options{
		Seed: instanceSeed, Epsilon: sh.epsilon, MaxPasses: sh.maxPasses,
		IncrementalPricing: true, ParallelRound: true,
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// newBuilder generates the installed state for a shape: topology, library,
// trace and the demand builder over them. It returns the wall time of
// workload.GenerateTrace alone.
func newBuilder(sh shape, tr *tracer, parent int) (*demand.Builder, *workload.Trace, float64) {
	var g *topology.Graph
	if sh.vhos == 55 {
		g = topology.Backbone55()
	} else {
		g = topology.Random(sh.vhos, 1.4, instanceSeed)
	}
	lib := catalog.Generate(catalog.Config{NumVideos: sh.videos, Weeks: 2}, instanceSeed+10)
	sp := tr.start("workload.GenerateTrace", parent, 0)
	t := time.Now()
	trace := workload.GenerateTrace(lib, workload.TraceConfig{
		Days: traceDays, NumVHOs: sh.vhos, RequestsPerVideoPerDay: requestsPerVD,
	}, instanceSeed+20)
	genMS := ms(time.Since(t))
	tr.end(sp)
	shards := 0
	if sh.shardSize > 0 {
		shards = (sh.videos + sh.shardSize - 1) / sh.shardSize
	}
	return &demand.Builder{
		G: g, Lib: lib,
		DiskGB:      core.UniformDisk(lib, sh.vhos, diskFactor),
		LinkCapMbps: core.UniformLinks(g, sh.link),
		Cfg:         demand.Config{Slices: 2, WindowSec: 3600, HorizonDays: 7, Shards: shards},
	}, trace, genMS
}

// startSystem runs the cold pipeline — trace, instance, solve, audit,
// snapshot, listener — timing each call into a layer, and leaves the server
// answering on sys.addr.
func startSystem(sh shape, tr *tracer, parent int) (*system, error) {
	sys := &system{shape: sh, opts: solverOptions(sh)}

	sys.build, sys.trace, sys.traceGenMS = newBuilder(sh, tr, parent)

	sp := tr.start("demand.Builder.Instance", parent, 0)
	sys.instStart = time.Now()
	inst, err := sys.build.Instance(sys.trace, placementDay)
	sys.instanceMS = ms(time.Since(sys.instStart))
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.start("epf.SolveIntegerContext", parent, 0)
	t := time.Now()
	sys.cold, err = epf.SolveIntegerContext(context.Background(), inst, sys.opts)
	sys.coldSolveMS = ms(time.Since(t))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("cold solve: %w", err)
	}
	if !sys.cold.Converged {
		return nil, fmt.Errorf("cold solve did not converge in %d passes", sys.cold.Passes)
	}

	sp = tr.start("verify.Audit", parent, 0)
	t = time.Now()
	rep := verify.Audit(inst, sys.cold)
	sys.auditMS = ms(time.Since(t))
	tr.end(sp)
	if !rep.Ok() {
		return nil, fmt.Errorf("cold placement failed audit: %w", rep.Err())
	}

	sp = tr.start("serve.NewWithResult", parent, 0)
	t = time.Now()
	sys.srv, err = serve.NewWithResult(inst, sys.cold, serve.Config{Solver: sys.opts})
	sys.snapshotMS = ms(time.Since(t))
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.srv.Close()
		return nil, err
	}
	sys.addr = ln.Addr().String()
	sys.httpSrv = &http.Server{Handler: sys.srv.Handler()}
	sys.serveErr = make(chan error, 1)
	go func() { sys.serveErr <- sys.httpSrv.Serve(ln) }()
	return sys, nil
}

// stop drains the listener, stops the resolver and waits for both. Clients
// must have closed their connections.
func (sys *system) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := sys.httpSrv.Shutdown(ctx)
	if serr := <-sys.serveErr; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	sys.srv.Close()
	return err
}
