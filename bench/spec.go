package main

import "math"

// instanceSeed seeds what is installed before traffic arrives (the library,
// its eight-day request history and the solver's block shuffle; it is
// vodserved's default) and, unless --update-seed says otherwise, the demand
// updates. --seed orders the /route stream and nothing else: the passes a
// warm re-solve needs are chaotic in the instance and in the updates (at
// 2000x55 catalog seed 1 settles at 3.0-3.4 s per round and seed 2 at
// 1.2-1.3 s; the same catalog under ten update seeds gives round times of
// 2.0-4.3 s, and a mean over six rounds that still differs by 10%), which is
// seed noise no regression bound could tell from a regression, so the solver
// does the same work in every bounded run. A change that claims a gain on
// demand-to-swap should also be run under other --update-seed values.
const instanceSeed = 1

// shape is the installed system: catalog size, topology and link capacity,
// and the solver tolerances the daemon runs with at that size.
type shape struct {
	videos    int
	vhos      int     // 55 = topology.Backbone55, anything else a seeded random graph
	link      float64 // uniform link capacity, Mb/s
	shardSize int     // videos per catalog shard; 0 = one shard
	epsilon   float64
	maxPasses int
}

// serveShape is vodserved's default generator (2000 videos on the 55-office
// backbone, link 1000, rpd 4) with the tolerances at which its re-solves
// converge: at the daemon's own defaults (eps 0.01, 120 passes) every
// re-solve at this size ends unconverged after 13 s and nothing ever swaps.
var serveShape = shape{videos: 2000, vhos: 55, link: 1000, epsilon: 0.05, maxPasses: 300}

// scaleShape is four times the serving size, sharded. Rounding is ~80% of
// its cold solve against ~35% at serveShape. ISSUE 11 asked for 20 000
// videos; one cold solve there takes 22 s and one re-solve 8-10 s, which
// does not fit the run budget once every workload has to report
// demand-to-swap as well.
var scaleShape = shape{videos: 8000, vhos: 55, link: 2500, shardSize: 256, epsilon: 0.05, maxPasses: 300}

// smokeShape is the serve-smoke shape; the tests and -selfcheck run on it.
var smokeShape = shape{videos: 60, vhos: 8, link: 1000, epsilon: 0.02, maxPasses: 200}

// workloadSpec is one traffic mix. Every run is: set-up (the cold pipeline,
// up to the first correct /route answer), then read slices and closed-loop
// demand rounds in turn: slice, round, slice, ..., round, slice. They take
// turns so that each end-to-end metric comes from stretches in which nothing
// else competes for the two cores: the benchmark contract has every workload
// report every end-to-end metric, so each run needs both, and the workloads
// differ in what the slices and rounds carry, not in which exist.
type workloadSpec struct {
	name string
	why  string
	shape
	// readShare of --seconds is spent in read slices: one reader on one
	// keep-alive connection.
	readShare float64
	// rounds = max(2, round(seconds * roundsPerSec)); a count, not a
	// deadline, so that the solver does the same work on any host.
	roundsPerSec float64
	batch        int
	// hot draws the batch's videos Zipf(1.2) over aggregate-demand rank
	// (duplicates allowed); otherwise batch distinct videos, uniformly.
	hot bool
	add float64
	// mixed keeps the reader asking beside every round. Its answers are
	// checked like any other; its latencies are per-layer metrics only
	// (serve.route_mixed_*): beside a solver that takes both cores they
	// fall into one of two modes from run to run, which no bound can gate.
	mixed bool
}

func (w *workloadSpec) rounds(seconds float64) int {
	return max(2, int(math.Round(seconds*w.roundsPerSec)))
}

var workloads = []workloadSpec{
	{
		name:  "steady-hot",
		why:   "a held-out trace day replayed on /route between 8-update Zipf batches (0.4% of catalog dirty): net/http alone, then the warm re-solve alone",
		shape: serveShape, readShare: 0.3, roundsPerSec: 0.2, batch: 8, hot: true, add: 25,
	},
	{
		name:  "mixed-wide",
		why:   "500-video uniform batches (25% dirty) with the reader alongside: patch, duals and snapshot rows all move, swaps land under reads",
		shape: serveShape, readShare: 0.3, roundsPerSec: 0.12, batch: 500, add: 5, mixed: true,
	},
	{
		name:  "cold-scale",
		why:   "4x catalog, sharded: rounding is ~80% of the cold solve (35% at serving size), demand/mip build and RSS are non-trivial",
		shape: scaleShape, readShare: 0.3, roundsPerSec: 0.08, batch: 8, hot: true, add: 25,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec names one metric the harness reports. exact marks counts that
// repeat bit-for-bit for a (workload, seed, seconds) triple; -selfcheck
// compares those.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	exact  bool
}

// endToEnd is what a user of the system sees. bound is the share of the
// parent's median by which the metric may worsen before it is a regression.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},       // process start to first correct /route answer
	{name: "route_rps", unit: "1/s", better: "higher", bound: 0.25},  // completed, oracle-correct /route answers per second, one connection on one P
	{name: "route_p50_us", unit: "us", better: "lower", bound: 0.25}, // client-side socket-to-answer median
	{name: "route_p99_us", unit: "us", better: "lower", bound: 0.25}, // client-side socket-to-answer p99
	{name: "d2s_mean_ms", unit: "ms", better: "lower", bound: 0.25},  // first byte of POST /demand to new certified version visible, mean over rounds
	{name: "objective_gb", unit: "GB", better: "lower", bound: 0.15}, // transfer-cost objective of the last served placement
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},  // VmHWM at exit
}

// perLayer is what a traced run reports: one layer each, measured from
// outside by timing calls into the layer's public functions and reading what
// they return. They have no bound.
var perLayer = []metricSpec{
	{name: "workload.trace_gen_ms", unit: "ms", better: "lower"},                   // workload.GenerateTrace wall
	{name: "workload.requests", unit: "count", better: "lower", exact: true},       // requests in the generated trace
	{name: "demand.instance_ms", unit: "ms", better: "lower"},                      // demand.Builder.Instance wall
	{name: "demand.self_ms", unit: "ms", better: "lower"},                          // demand.instance_ms minus mip.build_ms
	{name: "mip.build_ms", unit: "ms", better: "lower"},                            // the same demands re-streamed through NewInstanceBuilder/Add/Seal
	{name: "mip.videos", unit: "count", better: "lower", exact: true},              // videos in the instance
	{name: "mip.nnz", unit: "count", better: "lower", exact: true},                 // concurrency nonzeros in the instance
	{name: "mip.patch_us_per_video", unit: "us", better: "lower"},                  // ApplyDemandDelta per dirty video on a harness-owned twin instance
	{name: "mip.patch_calls", unit: "count", better: "lower", exact: true},         // ApplyDemandDelta calls replayed
	{name: "epf.cold_solve_ms", unit: "ms", better: "lower"},                       // set-up solve wall
	{name: "epf.cold_lp_ms", unit: "ms", better: "lower"},                          // set-up solve Stats.LPTime
	{name: "epf.cold_round_ms", unit: "ms", better: "lower"},                       // set-up solve Stats.RoundTime
	{name: "epf.cold_passes", unit: "count", better: "lower", exact: true},         // set-up solve passes
	{name: "epf.solve_ms", unit: "ms", better: "lower"},                            // replayed re-solve wall, median over rounds
	{name: "epf.init_ms", unit: "ms", better: "lower"},                             // replayed re-solve Stats.InitTime, median
	{name: "epf.lp_ms", unit: "ms", better: "lower"},                               // replayed re-solve Stats.LPTime, median
	{name: "epf.round_ms", unit: "ms", better: "lower"},                            // replayed re-solve Stats.RoundTime, median
	{name: "epf.reduce_ms", unit: "ms", better: "lower"},                           // replayed re-solve Stats.ReduceTime, median
	{name: "epf.ms_per_pass", unit: "ms", better: "lower"},                         // sum of replayed LPTime over sum of passes
	{name: "epf.passes", unit: "count", better: "lower", exact: true},              // passes, summed over replayed re-solves
	{name: "epf.blocks_optimized", unit: "count", better: "lower", exact: true},    // descent block solves, summed
	{name: "epf.lb_block_solves", unit: "count", better: "lower", exact: true},     // bound-evaluation block solves, summed
	{name: "epf.line_searches", unit: "count", better: "lower", exact: true},       // line searches, summed
	{name: "epf.round_resolves", unit: "count", better: "lower", exact: true},      // speculative rounding solves redone at live duals, summed
	{name: "epf.warm_hit_ratio", unit: "ratio", better: "higher", exact: true},     // WarmStartHits / WarmStartTries over replayed re-solves
	{name: "epf.warm_video_frac", unit: "ratio", better: "higher", exact: true},    // videos seeded from the warm state, mean over replayed re-solves
	{name: "epf.gap_pct", unit: "%", better: "lower", exact: true},                 // certified gap of the last replayed re-solve
	{name: "epf.converged_ratio", unit: "ratio", better: "higher", exact: true},    // replayed re-solves that converged
	{name: "epf.replay_mismatch", unit: "count", better: "lower", exact: true},     // replays whose passes or objective differ from the server's solve
	{name: "facloc.solve_us", unit: "us", better: "lower"},                         // Solver.SolveInto on RandomUFL(55,55)
	{name: "facloc.solve_warm_us", unit: "us", better: "lower"},                    // Solver.SolveWarmInto from the cold optimum
	{name: "facloc.dual_ascent_us", unit: "us", better: "lower"},                   // Solver.DualAscent
	{name: "verify.audit_ms", unit: "ms", better: "lower"},                         // verify.Audit, median over set-up and replays
	{name: "verify.certify_lb_ms", unit: "ms", better: "lower"},                    // verify.CertifyLowerBound on the set-up result
	{name: "serve.snapshot_build_ms", unit: "ms", better: "lower"},                 // serve.NewWithResult (full snapshot build)
	{name: "serve.demand_post_us", unit: "us", better: "lower"},                    // POST /demand to 202, median
	{name: "serve.resolve_residual_ms", unit: "ms", better: "lower"},               // d2s minus replayed patch, solve and audit, median
	{name: "serve.route_lookup_ns", unit: "ns", better: "lower"},                   // Snapshot.Route
	{name: "serve.route_append_ns", unit: "ns", better: "lower"},                   // Snapshot.AppendRoute into a reused buffer
	{name: "serve.route_handler_ns", unit: "ns", better: "lower"},                  // Handler().ServeHTTP, reused in-memory ResponseWriter, no socket
	{name: "serve.route_net_share", unit: "ratio", better: "lower"},                // 1 - route_handler_ns / traced route p50
	{name: "serve.route_p999_us", unit: "us", better: "lower"},                     // client-side p99.9 of the traced run
	{name: "serve.route_mixed_rps", unit: "1/s", better: "higher"},                 // answers per second from the reader beside the rounds (0 without one)
	{name: "serve.route_mixed_p50_us", unit: "us", better: "lower"},                // their median, client side
	{name: "serve.route_mixed_p99_us", unit: "us", better: "lower"},                // their p99
	{name: "serve.resolves_started", unit: "count", better: "lower", exact: true},  // Stats().ResolvesStarted
	{name: "serve.resolves_swapped", unit: "count", better: "higher", exact: true}, // Stats().ResolvesSwapped
	{name: "serve.swap_ratio", unit: "ratio", better: "higher", exact: true},       // swapped / started
	{name: "serve.audit_rejected", unit: "count", better: "lower", exact: true},    // Stats().AuditRejected
	{name: "serve.unconverged", unit: "count", better: "lower", exact: true},       // Stats().Unconverged
	{name: "serve.resolve_passes", unit: "count", better: "lower", exact: true},    // /status last_passes, summed over rounds
	{name: "serve.dirty_fraction", unit: "ratio", better: "lower", exact: true},    // distinct videos per batch over catalog, mean
	{name: "serve.route_requests", unit: "count", better: "higher"},                // Stats().RouteRequests
	{name: "serve.route_errors", unit: "count", better: "lower", exact: true},      // Stats().RouteErrors
	{name: "obs.record_ns", unit: "ns", better: "lower"},                           // ReqStat.Record
	{name: "obs.metrics_scrape_ms", unit: "ms", better: "lower"},                   // GET /metrics, median of 5
	{name: "serve.swaps_per_min", unit: "1/min", better: "higher"},                 // rounds swapped per minute of round-loop wall time
	{name: "harness.time_to_certified_s", unit: "s", better: "lower"},              // demand.Builder.Instance start to first correct /route answer: setup_s without library and trace generation
	{name: "harness.setup_self_ms", unit: "ms", better: "lower"},                   // set-up span self time: set-up not inside any layer call
	{name: "traced.route_rps", unit: "1/s", better: "higher"},                      // route_rps of this traced run, for trace overhead
	{name: "traced.route_p50_us", unit: "us", better: "lower"},                     // route_p50_us of this traced run
	{name: "traced.d2s_mean_ms", unit: "ms", better: "lower"},                      // d2s_mean_ms of this traced run
}
