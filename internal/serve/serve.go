// Package serve turns the batch placement solver into a control plane
// behind a long-running data plane. The data plane answers routing lookups
// ("which office serves video m for office j?") from an immutable,
// atomically-swapped Snapshot whose route tables are fully precomputed, so
// the hot path is array reads plus a JSON encode into a reused buffer —
// zero steady-state allocations. The control plane accepts streamed demand
// updates, re-solves the placement LP in the background with cross-period
// warm starts (epf.WarmState), and swaps a new snapshot in only after the
// independent certificate auditor (verify.Audit) passes; a rejected solve
// keeps the old snapshot serving and increments a counter. The data plane
// never blocks on the control plane: lookups hit whatever snapshot is
// current, re-solves happen entirely off the request path.
//
// See DESIGN.md §12 for the service architecture.
package serve

import (
	"context"
	"expvar"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/obs"
	"vodplace/internal/verify"
)

// Config configures the placement server.
type Config struct {
	// Solver configures every solve (the initial one and background
	// re-solves). MaxPasses, Shards etc. apply to both.
	Solver epf.Options
	// UpdateWeight, when positive, charges re-solves for migrating copies
	// away from the currently-served placement (objective (11) with origins
	// taken from the live snapshot), damping churn between snapshots.
	UpdateWeight float64
	// Metrics receives the server's counters; a fresh private registry is
	// created when nil. The same instruments back the /status endpoint.
	Metrics *obs.Metrics
	// Recorder, when non-nil, receives solver telemetry for the initial
	// solve and every re-solve (streams "serve.vNN") plus the serving-plane
	// lifecycle events (serve_resolve / serve_swap / serve_demand).
	Recorder *obs.Recorder
	// Logf, when non-nil, receives one-line lifecycle messages (swap,
	// rejection, shutdown discard). The daemon points it at stdout; tests
	// capture it. May be called from the resolver goroutine.
	Logf func(format string, args ...any)
}

// Server is the placement service: an atomically-swapped snapshot store,
// the HTTP handlers over it, and the background resolver that folds demand
// updates into audited re-placements.
type Server struct {
	cfg Config

	store atomic.Pointer[Snapshot]

	mu    sync.Mutex
	state *demandState
	warm  *epf.WarmState
	dirty bool
	// live is the instance re-solves run on: the one the server was built
	// on, its dirty demand rows patched in place (mip.ApplyDemandDelta)
	// instead of re-streaming the catalog. Only the resolver goroutine
	// mutates it, and only demand-side fields — the identity fields snapshot
	// readers touch are immutable under a patch.
	live *mip.Instance
	// auditor certifies every re-solve, keeping the certificate's block
	// bounds between attempts so an attempt re-derives only those its
	// inputs moved. Only the resolver goroutine uses it.
	auditor verify.Auditor
	// lastSwapped is the done event of the most recent swapped-in solve (the
	// initial one included) and lastGap its duality gap; lastReject explains
	// the most recent rejected one ("" until a re-solve is rejected). Both
	// survive across swaps so /status always explains the last anomaly.
	lastSwapped obs.ServeResolve
	lastGap     float64
	lastReject  string

	resolveCh chan struct{}
	cancel    context.CancelFunc
	done      chan struct{}
	closeOnce sync.Once

	bufPool sync.Pool
	// demandPool recycles POST /demand decode scratch (see demandScratch).
	demandPool sync.Pool

	metrics *obs.Metrics
	// Counters, prefetched so the hot path is one atomic add.
	routeRequests   *expvar.Int
	routeErrors     *expvar.Int
	demandUpdates   *expvar.Int
	resolvesStarted *expvar.Int
	resolvesSwapped *expvar.Int
	auditRejected   *expvar.Int
	unconverged     *expvar.Int
	resolvesCancel  *expvar.Int
	resolvesFailed  *expvar.Int
	// deltaGauge is serve.delta_fraction: the dirty-video fraction of the
	// most recent resolve attempt, the signal EXPERIMENTS.md correlates with
	// resolve latency.
	deltaGauge *expvar.Float

	// Per-endpoint request instruments, exposed via /metrics. reqStats fixes
	// the exposition order.
	reqRoute     *obs.ReqStat
	reqPlacement *obs.ReqStat
	reqHealthz   *obs.ReqStat
	reqStatus    *obs.ReqStat
	reqDemand    *obs.ReqStat
	reqStats     []*obs.ReqStat
}

// New solves the initial placement on inst, audits it, and starts the
// background resolver. The returned server is serving (via Handler) as soon
// as New returns; Close stops the resolver and discards any in-flight
// re-solve.
//
// The server takes ownership of inst: the delta resolve path patches its
// demand rows in place (mip.ApplyDemandDelta) as updates arrive, so callers
// must not mutate inst afterwards or rely on its demand rows staying as
// passed. Build a separate instance for any use beyond the server.
func New(inst *mip.Instance, cfg Config) (*Server, error) {
	if inst == nil {
		return nil, fmt.Errorf("serve: nil instance")
	}
	opts := cfg.Solver
	opts.Recorder = cfg.Recorder
	opts.TraceStream = "serve.v1"
	res, err := epf.SolveIntegerContext(context.Background(), inst, opts)
	if err != nil {
		return nil, fmt.Errorf("serve: initial solve: %w", err)
	}
	if rep := verify.Audit(inst, res); !rep.Ok() {
		return nil, fmt.Errorf("serve: initial placement failed audit: %w", rep.Err())
	}
	return NewWithResult(inst, res, cfg)
}

// NewWithResult starts the server from an already-solved (and
// audit-checked) initial placement. Callers that did not run verify.Audit
// themselves should use New.
//
// Like New, the server takes ownership of inst (and of res.Sol, which the
// initial snapshot aliases): delta re-solves patch inst's demand rows in
// place, so callers must not retain either for reuse or comparison.
func NewWithResult(inst *mip.Instance, res *epf.Result, cfg Config) (*Server, error) {
	snap, err := buildSnapshot(inst, res.Sol, 1, true)
	if err != nil {
		return nil, err
	}
	m := cfg.Metrics
	if m == nil {
		m = obs.NewMetrics()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		state:     stateFromInstance(inst),
		warm:      res.Warm,
		live:      inst,
		lastGap:   res.Gap,
		resolveCh: make(chan struct{}, 1),
		cancel:    cancel,
		done:      make(chan struct{}),
		metrics:   m,

		routeRequests:   m.Counter("serve.route_requests"),
		routeErrors:     m.Counter("serve.route_errors"),
		demandUpdates:   m.Counter("serve.demand_updates"),
		resolvesStarted: m.Counter("serve.resolves_started"),
		resolvesSwapped: m.Counter("serve.resolves_swapped"),
		auditRejected:   m.Counter("serve.audit_rejected"),
		unconverged:     m.Counter("serve.unconverged_rejected"),
		resolvesCancel:  m.Counter("serve.resolves_cancelled"),
		resolvesFailed:  m.Counter("serve.resolves_failed"),
		deltaGauge:      m.Gauge("serve.delta_fraction"),

		reqRoute:     obs.NewReqStat("route"),
		reqPlacement: obs.NewReqStat("placement"),
		reqHealthz:   obs.NewReqStat("healthz"),
		reqStatus:    obs.NewReqStat("status"),
		reqDemand:    obs.NewReqStat("demand"),
	}
	s.reqStats = []*obs.ReqStat{s.reqRoute, s.reqPlacement, s.reqHealthz, s.reqStatus, s.reqDemand}
	solveOutcome(&s.lastSwapped, res, len(inst.Demands))
	s.bufPool.New = func() any {
		b := make([]byte, 0, 256)
		return &b
	}
	s.demandPool.New = func() any {
		return &demandScratch{body: make([]byte, 0, 4096)}
	}
	s.store.Store(snap)
	go s.resolveLoop(ctx)
	// The two time-derived gauges are computed when read: how stale the
	// served snapshot is, and how much demand (L1, aggregate request units)
	// has been accepted since the last solved state.
	m.GaugeFunc("serve.snapshot_age_seconds", func() float64 {
		return time.Since(s.store.Load().BuiltAt).Seconds()
	})
	m.GaugeFunc("serve.demand_drift", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.state.drift
	})
	return s, nil
}

// Snapshot returns the currently-served snapshot.
func (s *Server) Snapshot() *Snapshot { return s.store.Load() }

// Metrics returns the server's counter registry.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Close stops the background resolver, cancelling (and discarding) any
// in-flight re-solve, and waits for it to exit. The handlers keep answering
// from the last snapshot — shutting the listener down is the caller's job.
// Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.cancel()
		<-s.done
	})
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Stats is a point-in-time copy of the server counters (the same numbers
// /status serves).
type Stats struct {
	Version         uint64
	RouteRequests   int64
	RouteErrors     int64
	DemandUpdates   int64
	ResolvesStarted int64
	ResolvesSwapped int64
	AuditRejected   int64
	Unconverged     int64
	Cancelled       int64
	Failed          int64
	// LastReject explains the most recent rejected re-solve ("" when every
	// re-solve so far swapped in).
	LastReject string
}

// Stats returns the current counter values.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	lastReject := s.lastReject
	s.mu.Unlock()
	return Stats{
		LastReject:      lastReject,
		Version:         s.store.Load().Version,
		RouteRequests:   s.routeRequests.Value(),
		RouteErrors:     s.routeErrors.Value(),
		DemandUpdates:   s.demandUpdates.Value(),
		ResolvesStarted: s.resolvesStarted.Value(),
		ResolvesSwapped: s.resolvesSwapped.Value(),
		AuditRejected:   s.auditRejected.Value(),
		Unconverged:     s.unconverged.Value(),
		Cancelled:       s.resolvesCancel.Value(),
		Failed:          s.resolvesFailed.Value(),
	}
}
