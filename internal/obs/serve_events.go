package obs

import "time"

// Serving-plane lifecycle events. The serving daemon (internal/serve,
// cmd/vodserved) emits three event kinds through the same JSONL sink the
// solvers use, so one trace file carries a complete picture of a serving
// process: every background re-solve attempt with its outcome, every
// snapshot swap, every accepted demand batch. Unlike solver events these
// are wall-clock phenomena, so each carries TMS — milliseconds since the
// recorder started — which is what tools/servestat turns into staleness
// percentiles. Solver-side consumers (tracesum) ignore unknown kinds, so
// mixed traces stay valid.

// ServeResolve is one background re-solve attempt. Phase "start" opens the
// attempt (Version is the snapshot version the resolve would publish,
// Trigger names what woke the resolver); phase "done" closes it with the
// verdict and its timing breakdown.
type ServeResolve struct {
	Phase    string  `json:"phase"`    // "start" | "done"
	Version  int64   `json:"version"`  // version this attempt would publish
	Trigger  string  `json:"trigger"`  // "demand", "initial", ...
	Verdict  string  `json:"verdict"`  // done: "swapped", "audit_rejected", "unconverged", "cancelled", "failed"
	Reason   string  `json:"reason"`   // done, non-swapped: human-readable reject detail
	WarmFrac float64 `json:"warmfrac"` // done: fraction of videos warm-started from the previous solve
	// ResumedFrac is the part of WarmFrac that was loaded from the previous
	// solve's LP point rather than re-seeded from its open sets: near 1 the
	// solve resumed the previous descent, near 0 it restarted it.
	ResumedFrac float64 `json:"resumedfrac"`
	Passes      int     `json:"passes"`  // done: descent passes the solve took
	SolveMS     float64 `json:"solvems"` // done: integer-solve wall time
	// LPMS and RoundMS split SolveMS into the solver's two phases (the LP
	// descent and the integer rounding + polish); the remainder is set-up.
	// LBMS is the part of LPMS spent evaluating Lagrangian bounds, and
	// PolishMS the part of LBMS spent in dual polish rounds.
	LPMS     float64 `json:"lpms"`
	LBMS     float64 `json:"lbms"`
	PolishMS float64 `json:"polishms"`
	RoundMS  float64 `json:"roundms"`
	// Round says which rounding ran: "resumed" (the served placement,
	// polished, met its reference and nothing was rounded from scratch),
	// "rejected" (it was tried and refused, so the from-scratch candidates
	// ran too) or "full" (there was nothing to resume). RoundRatio is the
	// incumbent's score over the solve's lower bound when that was decided
	// and RoundRef the reference a resume had to meet (0 when none was
	// tried): a resume is refused because RoundRatio came out above RoundRef.
	Round      string  `json:"round"`
	RoundRatio float64 `json:"roundratio"`
	RoundRef   float64 `json:"roundref"`
	// BoundCarried is set when the solve exported the carried dual vector
	// unchanged (its bound stood), and CertReused counts the certificate's
	// block bounds the server's auditor took from its cache: together they
	// say how much of the two bound sweeps a swap owes was reused.
	BoundCarried bool    `json:"boundcarried"`
	CertReused   int     `json:"certreused"`
	AuditMS      float64 `json:"auditms"` // done: certification wall time
	BuildMS      float64 `json:"buildms"` // done, swapped: snapshot build+publish wall time
	Dirty        int     `json:"dirty"`   // done: demand-dirty videos this attempt resolved
	Rebuilt      int64   `json:"rebuilt"` // done, swapped: route rows recomputed (vs copied) by the snapshot build
	TMS          float64 `json:"tms"`     // ms since recorder start (stamped by the recorder)
}

// ServeSwap is one published snapshot: the moment the serving plane's
// routing answer changed.
type ServeSwap struct {
	Version int64   `json:"version"` // the new snapshot's version
	RDelta  int64   `json:"rdelta"`  // route-table entries that changed vs. the previous snapshot
	BuildMS float64 `json:"buildms"` // snapshot build+publish wall time
	// Rebuilt/Rows report the snapshot build's delta economy: of the Rows
	// route rows (one per video), Rebuilt were recomputed (their video's
	// open set changed) and the rest copied from the previous snapshot;
	// both zero in traces from pre-delta releases.
	Rebuilt int64   `json:"rebuilt"`
	Rows    int64   `json:"rows"`
	TMS     float64 `json:"tms"`
}

// ServeDemand is one accepted demand-update batch.
type ServeDemand struct {
	Batch int     `json:"batch"` // entries in the batch
	Drift float64 `json:"drift"` // post-apply demand drift vs. last solved state (L1, Mbps)
	TMS   float64 `json:"tms"`
}

// sinceMS stamps an event with the recorder-relative wall clock.
func (r *Recorder) sinceMS() float64 {
	return float64(time.Since(r.start).Nanoseconds()) / 1e6
}

// RecordServeResolve records one resolve phase event. The recorder stamps
// TMS itself; callers leave it zero. Start events carry only the identity
// fields, done events the full outcome, so traces stay compact.
func (r *Recorder) RecordServeResolve(e ServeResolve) {
	if r == nil {
		return
	}
	e.TMS = r.sinceMS()
	r.mu.Lock()
	if r.w != nil {
		b := append(r.buf[:0], `{"k":"serve_resolve","phase":`...)
		b = appendJSONString(b, e.Phase)
		b = appendInt(b, ",\"version\":", e.Version)
		b = append(b, ",\"trigger\":"...)
		b = appendJSONString(b, e.Trigger)
		if e.Phase == "done" {
			b = append(b, ",\"verdict\":"...)
			b = appendJSONString(b, e.Verdict)
			if e.Reason != "" {
				b = append(b, ",\"reason\":"...)
				b = appendJSONString(b, e.Reason)
			}
			b = appendFloat(b, ",\"warmfrac\":", e.WarmFrac)
			b = appendFloat(b, ",\"resumedfrac\":", e.ResumedFrac)
			b = appendInt(b, ",\"passes\":", int64(e.Passes))
			b = appendFloat(b, ",\"solvems\":", e.SolveMS)
			b = appendFloat(b, ",\"lpms\":", e.LPMS)
			b = appendFloat(b, ",\"lbms\":", e.LBMS)
			b = appendFloat(b, ",\"polishms\":", e.PolishMS)
			b = appendFloat(b, ",\"roundms\":", e.RoundMS)
			if e.Round != "" {
				b = append(b, ",\"round\":"...)
				b = appendJSONString(b, e.Round)
				b = appendFloat(b, ",\"roundratio\":", e.RoundRatio)
				b = appendFloat(b, ",\"roundref\":", e.RoundRef)
			}
			b = appendBool(b, ",\"boundcarried\":", e.BoundCarried)
			b = appendInt(b, ",\"certreused\":", int64(e.CertReused))
			b = appendFloat(b, ",\"auditms\":", e.AuditMS)
			b = appendFloat(b, ",\"buildms\":", e.BuildMS)
			b = appendInt(b, ",\"dirty\":", int64(e.Dirty))
			b = appendInt(b, ",\"rebuilt\":", e.Rebuilt)
		}
		b = appendFloat(b, ",\"tms\":", e.TMS)
		r.buf = r.writeLine(b)
	}
	r.mu.Unlock()
	if e.Phase == "done" {
		m := r.metrics
		m.Counter("serve_resolves_total").Add(1)
		if e.Verdict != "swapped" {
			m.Counter("serve_resolves_rejected_total").Add(1)
		}
		m.Gauge("serve_warm_frac").Set(e.WarmFrac)
		m.Histogram("serve_resolve_solve_ms", nsPerMS).Observe(e.SolveMS)
		m.Histogram("serve_resolve_audit_ms", nsPerMS).Observe(e.AuditMS)
		r.PublishKV("serve_resolve", e)
	}
}

// RecordServeSwap records one snapshot publication.
func (r *Recorder) RecordServeSwap(e ServeSwap) {
	if r == nil {
		return
	}
	e.TMS = r.sinceMS()
	r.mu.Lock()
	if r.w != nil {
		b := append(r.buf[:0], `{"k":"serve_swap"`...)
		b = appendInt(b, ",\"version\":", e.Version)
		b = appendInt(b, ",\"rdelta\":", e.RDelta)
		b = appendFloat(b, ",\"buildms\":", e.BuildMS)
		b = appendInt(b, ",\"rebuilt\":", e.Rebuilt)
		b = appendInt(b, ",\"rows\":", e.Rows)
		b = appendFloat(b, ",\"tms\":", e.TMS)
		r.buf = r.writeLine(b)
	}
	r.mu.Unlock()
	m := r.metrics
	m.Counter("serve_swaps_total").Add(1)
	m.Gauge("serve_snapshot_version").Set(float64(e.Version))
	m.Gauge("serve_route_delta").Set(float64(e.RDelta))
	m.Gauge("serve_rows_rebuilt").Set(float64(e.Rebuilt))
	m.Histogram("serve_swap_build_ms", nsPerMS).Observe(e.BuildMS)
	r.PublishKV("serve_swap", e)
}

// RecordServeDemand records one accepted demand batch.
func (r *Recorder) RecordServeDemand(e ServeDemand) {
	if r == nil {
		return
	}
	e.TMS = r.sinceMS()
	r.mu.Lock()
	if r.w != nil {
		b := append(r.buf[:0], `{"k":"serve_demand"`...)
		b = appendInt(b, ",\"batch\":", int64(e.Batch))
		b = appendFloat(b, ",\"drift\":", e.Drift)
		b = appendFloat(b, ",\"tms\":", e.TMS)
		r.buf = r.writeLine(b)
	}
	r.mu.Unlock()
	m := r.metrics
	m.Counter("serve_demand_batches_total").Add(1)
	m.Counter("serve_demand_entries_total").Add(int64(e.Batch))
	// No drift gauge here: the serving daemon registers its own
	// serve.demand_drift gauge in the shared registry, and that name
	// sanitizes to the same Prometheus family.
}
