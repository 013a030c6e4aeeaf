package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"vodplace/internal/verify"
)

// processStart is read when the package initialises, before main: setup_s
// counts from it.
var processStart = time.Now()

// result is one run: every end-to-end metric and, from a traced run, every
// per-layer metric, by name; the operations attempted and failed; and the
// first few failures in words.
type result struct {
	endToEnd  map[string]float64
	perLayer  map[string]float64
	attempted int
	failed    int
	failures  []string
	// route is what the read slices timed; d2sMS is every swapped round's
	// demand-to-swap time, in order.
	route routeStats
	d2sMS []float64
	spans []span
}

func (res *result) fail(err error) {
	res.failed++
	res.note(err)
}

func (res *result) note(err error) {
	if err != nil && len(res.failures) < 8 {
		res.failures = append(res.failures, err.Error())
	}
}

// runWorkload is one benchmark run: set-up, then read slices and demand
// rounds in turn, and — when tr is non-nil — the replays and direct-call
// loops that attribute the time to layers. seed orders the /route stream,
// updateSeed draws the demand updates. A non-nil error means the harness
// itself could not run; failed operations are counted in the result.
func runWorkload(w *workloadSpec, seed, updateSeed int64, seconds float64, tr *tracer) (*result, error) {
	res := &result{endToEnd: map[string]float64{}, perLayer: map[string]float64{}}
	root := tr.start("run", 0, 0)

	// Set-up: the cold pipeline, up to the first correct answer over a
	// socket.
	setup := tr.start("setup", root, 0)
	sys, err := startSystem(w.shape, tr, setup)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			sys.stop() //nolint:errcheck // already failing
		}
	}()
	inst := sys.srv.Snapshot().Inst
	keys := heldOutKeys(sys, rand.New(rand.NewSource(seed)))
	if len(keys) == 0 {
		return nil, fmt.Errorf("held-out trace day is empty")
	}
	rd, err := newReader(sys, keys, tr)
	if err != nil {
		return nil, err
	}
	defer rd.close()
	first := tr.start("GET /route", setup, 0)
	ok := rd.one()
	tr.end(first)
	if !ok || rd.failed > 0 {
		return nil, fmt.Errorf("first /route answer: %w", rd.firstFail)
	}
	now := time.Now()
	res.endToEnd["setup_s"] = now.Sub(processStart).Seconds()
	res.perLayer["harness.time_to_certified_s"] = now.Sub(sys.instStart).Seconds()
	tr.end(setup)

	rounds := w.rounds(seconds)
	batches, err := makeBatches(w, inst, rounds, rand.New(rand.NewSource(updateSeed)))
	if err != nil {
		return nil, err
	}
	wr := newWriter(sys, tr)
	defer wr.close()
	var rp *replayer
	if tr != nil {
		if rp, err = newReplayer(sys, tr); err != nil {
			return nil, err
		}
	}

	// The traffic: read slices and demand rounds take turns, so that each
	// end-to-end metric comes from stretches in which nothing else competes
	// for the cores, and each samples the host over the whole run, not over
	// one block of it.
	//
	// A read slice is net/http and the data plane alone, one reader on one
	// connection, and it runs on one P: the reader and the connection's
	// goroutine take turns, so a second P only adds wake-ups across CPUs
	// (two connections on two Ps answer 59 000 requests a second against
	// 64 000 for one on one), and on this host two busy vCPUs may be the two
	// threads of one core. On one P the answer's time is the CPU cost of the
	// round trip, which is what a change to the code moves. The slice's
	// first 100 ms let the connection and the caches settle after the solver
	// had the cores, and are not counted.
	//
	// A round is the warm re-solve alone, on every P, beside the reader where
	// the workload says so: swaps then land under in-flight reads and every
	// answer is still checked. In a traced run each round is replayed before
	// the next slice.
	traffic := tr.start("traffic", root, 0)
	rd.parent = traffic
	sliceFor := max(routeWindow, (time.Duration(seconds*w.readShare*float64(time.Second)) / time.Duration(rounds+1)).Truncate(routeWindow))
	var route, mixedRoute routeWindows
	var roundWall time.Duration
	for i := 0; ; i++ {
		procs := runtime.GOMAXPROCS(1)
		t := time.Now()
		stop := rd.start()
		time.Sleep(sliceWarmup + sliceFor)
		stop()
		runtime.GOMAXPROCS(procs)
		route.take(rd, t.Add(sliceWarmup), sliceFor)
		if i == len(batches) {
			break
		}
		id := i + 1
		stop = func() time.Duration { return 0 }
		if w.mixed {
			stop = rd.start()
		}
		t = time.Now()
		rsp := tr.start("round", traffic, id)
		wr.round(id, &batches[i], rsp)
		tr.end(rsp)
		roundWall += time.Since(t)
		mixedRoute.take(rd, t, stop())
		if rp != nil && wr.rounds[i].swapped {
			psp := tr.start("replay", traffic, id)
			if err := rp.replay(id, &batches[i], sys.srv.Snapshot(), wr.rounds[i].passes, psp); err != nil {
				res.fail(err)
			}
			tr.end(psp)
		}
	}
	tr.end(traffic)
	res.route = route.stats(true)
	if res.route.samples == 0 {
		return nil, fmt.Errorf("no /route answer was timed")
	}
	res.endToEnd["route_rps"] = res.route.rps
	res.endToEnd["route_p50_us"] = res.route.p50US
	res.endToEnd["route_p99_us"] = res.route.p99US

	res.attempted = rd.attempted + wr.attempted
	res.failed += rd.failed + wr.failed
	res.note(rd.firstFail)
	res.note(wr.firstFail)
	for _, r := range wr.rounds {
		if r.swapped {
			res.d2sMS = append(res.d2sMS, r.d2sMS)
		}
	}
	// The mean, not the median: the rounds of a run differ in the passes
	// they need, the same way in every run, so the median is the time of one
	// particular round while the mean averages the host over all of them.
	res.endToEnd["d2s_mean_ms"] = ratio(sum(res.d2sMS), float64(len(res.d2sMS)))
	res.perLayer["serve.swaps_per_min"] = ratio(float64(len(res.d2sMS)), roundWall.Minutes())
	res.endToEnd["objective_gb"] = sys.srv.Snapshot().Sol.Objective()

	if tr != nil {
		if err := layerMetrics(res, w, sys, wr, rp, batches, keys, mixedRoute.stats(false), seed, seconds); err != nil {
			return nil, err
		}
	}

	// Shutdown closes the reader's idle keep-alive connection itself.
	stopped = true
	if err := sys.stop(); err != nil {
		return nil, fmt.Errorf("stopping the server: %w", err)
	}
	tr.end(root)
	if res.spans = tr.finish(); tr != nil {
		res.perLayer["harness.setup_self_ms"] = selfByName(res.spans)["setup"]
	}
	if res.endToEnd["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	return res, nil
}

// layerMetrics fills every per-layer metric of a traced run.
func layerMetrics(res *result, w *workloadSpec, sys *system, wr *writer, rp *replayer, batches []batch, keys []routeKey, mixedRoute routeStats, seed int64, seconds float64) error {
	loopFor := time.Duration(seconds * loopShare * float64(time.Second))
	m := res.perLayer
	inst := sys.srv.Snapshot().Inst
	st := sys.srv.Stats()

	m["workload.trace_gen_ms"] = sys.traceGenMS
	m["workload.requests"] = float64(len(sys.trace.Requests))
	m["demand.instance_ms"] = sys.instanceMS
	build, err := mipBuildMS(inst, w.shardSize)
	if err != nil {
		return err
	}
	m["mip.build_ms"] = build
	m["demand.self_ms"] = sys.instanceMS - build
	m["mip.videos"] = float64(len(inst.Demands))
	var nnz int64
	for _, sh := range inst.Shards {
		nnz += sh.NNZ
	}
	m["mip.nnz"] = float64(nnz)

	cold := &sys.cold.Stats
	m["epf.cold_solve_ms"] = sys.coldSolveMS
	m["epf.cold_lp_ms"] = ms(cold.LPTime)
	m["epf.cold_round_ms"] = ms(cold.RoundTime)
	m["epf.cold_passes"] = float64(sys.cold.Passes)

	var passes, patchCalls, blocks, lbSolves, lineSearches, roundResolves, warmHits, warmTries, warmVideos, converged float64
	for i := range rp.done {
		d := &rp.done[i]
		passes += float64(d.passes)
		patchCalls += float64(d.patchCalls)
		blocks += float64(d.stats.BlocksOptimized)
		lbSolves += float64(d.stats.LBBlockSolves)
		lineSearches += float64(d.stats.LineSearches)
		roundResolves += float64(d.stats.RoundResolves)
		warmHits += float64(d.stats.WarmStartHits)
		warmTries += float64(d.stats.WarmStartTries)
		warmVideos += float64(d.stats.WarmVideos) / float64(d.videos)
		if d.converged {
			converged++
		}
	}
	replays := float64(len(rp.done))
	lpMS := rp.col(func(d *replayStat) float64 { return ms(d.stats.LPTime) })
	m["mip.patch_calls"] = patchCalls
	m["mip.patch_us_per_video"] = ratio(1e3*sum(rp.col(func(d *replayStat) float64 { return d.patchMS })), patchCalls)
	m["epf.solve_ms"] = median(rp.col(func(d *replayStat) float64 { return d.solveMS }))
	m["epf.init_ms"] = median(rp.col(func(d *replayStat) float64 { return ms(d.stats.InitTime) }))
	m["epf.lp_ms"] = median(lpMS)
	m["epf.round_ms"] = median(rp.col(func(d *replayStat) float64 { return ms(d.stats.RoundTime) }))
	m["epf.reduce_ms"] = median(rp.col(func(d *replayStat) float64 { return ms(d.stats.ReduceTime) }))
	m["epf.ms_per_pass"] = ratio(sum(lpMS), passes)
	m["epf.passes"] = passes
	m["epf.blocks_optimized"] = blocks
	m["epf.lb_block_solves"] = lbSolves
	m["epf.line_searches"] = lineSearches
	m["epf.round_resolves"] = roundResolves
	m["epf.warm_hit_ratio"] = ratio(warmHits, warmTries)
	m["epf.warm_video_frac"] = ratio(warmVideos, replays)
	if len(rp.done) > 0 {
		m["epf.gap_pct"] = 100 * rp.done[len(rp.done)-1].gap
	}
	m["epf.converged_ratio"] = ratio(converged, replays)
	m["epf.replay_mismatch"] = float64(rp.mismatch)

	m["facloc.solve_us"], m["facloc.solve_warm_us"], m["facloc.dual_ascent_us"] = faclocLayers(seed, loopFor)

	t := time.Now()
	if _, err := verify.CertifyLowerBound(inst, sys.cold.RowDuals); err != nil {
		return fmt.Errorf("certifying the cold bound: %w", err)
	}
	m["verify.certify_lb_ms"] = ms(time.Since(t))
	m["verify.audit_ms"] = median(append(rp.col(func(d *replayStat) float64 { return d.auditMS }), sys.auditMS))

	var postUS []float64
	var served, dirty float64
	for i, r := range wr.rounds {
		postUS = append(postUS, r.postUS)
		served += float64(r.passes)
		dirty += float64(len(batches[i].dirty)) / float64(len(inst.Demands))
	}
	m["serve.snapshot_build_ms"] = sys.snapshotMS
	m["serve.demand_post_us"] = median(postUS)
	m["serve.resolve_residual_ms"] = median(rp.col(func(d *replayStat) float64 {
		return wr.rounds[d.round-1].d2sMS - d.patchMS - d.solveMS - d.auditMS
	}))
	m["serve.resolve_passes"] = served
	m["serve.dirty_fraction"] = ratio(dirty, float64(len(wr.rounds)))
	m["serve.resolves_started"] = float64(st.ResolvesStarted)
	m["serve.resolves_swapped"] = float64(st.ResolvesSwapped)
	m["serve.swap_ratio"] = ratio(float64(st.ResolvesSwapped), float64(st.ResolvesStarted))
	m["serve.audit_rejected"] = float64(st.AuditRejected)
	m["serve.unconverged"] = float64(st.Unconverged)
	m["serve.route_requests"] = float64(st.RouteRequests)
	m["serve.route_errors"] = float64(st.RouteErrors)

	lookup, appendNS, handler, record, err := routeLayers(sys, keys, loopFor)
	if err != nil {
		return err
	}
	p50 := res.endToEnd["route_p50_us"]
	m["serve.route_lookup_ns"] = lookup
	m["serve.route_append_ns"] = appendNS
	m["serve.route_handler_ns"] = handler
	m["serve.route_net_share"] = 1 - handler/(p50*1e3)
	m["serve.route_p999_us"] = res.route.p999US
	m["serve.route_mixed_rps"] = mixedRoute.rps
	m["serve.route_mixed_p50_us"] = mixedRoute.p50US
	m["serve.route_mixed_p99_us"] = mixedRoute.p99US
	m["obs.record_ns"] = record
	if m["obs.metrics_scrape_ms"], err = scrapeMS(wr.client, sys.addr); err != nil {
		return err
	}

	m["traced.route_rps"] = res.endToEnd["route_rps"]
	m["traced.route_p50_us"] = p50
	m["traced.d2s_mean_ms"] = res.endToEnd["d2s_mean_ms"]
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
