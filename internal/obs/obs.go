// Package obs is the solver, simulator and serving telemetry layer: a typed
// event tracer writing JSONL through a buffered sink, a metrics registry
// (counters, gauges, histograms) rendered as Prometheus text, phase span
// timing, and the opt-in debug HTTP endpoint serving /metrics and
// /debug/pprof (ServeDebug, wired to the CLIs through the -trace-out and
// -debug-addr flags in Register/Start). Every latency or size distribution
// in the repository is one value type, Hist, behind two recorders: ReqStat
// (one atomic add per request) and the registry's mutex-guarded Histogram.
//
// The layer is zero-dependency (stdlib only), allocation-conscious and
// nil-safe: every method on a nil *Recorder is a no-op, so instrumented
// code threads a possibly-nil recorder everywhere and pays one pointer test
// when telemetry is off — the solver's zero-allocation descent-pass
// contract (internal/epf alloc_test.go) is unaffected. When enabled, the
// steady-state emit path is also allocation-free: events are encoded into a
// reusable buffer under a single short mutex hold and flushed through a
// bufio.Writer, so a trace never serializes the hot path on the kernel.
//
// Events carry only deterministic solver state in their numeric fields
// (wall-clock milliseconds are the one exception, and every consumer that
// diffs traces ignores them), so a fixed-seed trace is bit-identical across
// worker counts — the same invariance the solver itself guarantees.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// EPFPass is one gradient-descent pass of the EPF solver: the convergence
// trajectory the paper judges the method by (potential Φ, bounds, duality
// gap, link utilization). Blocks and WarmHits are cumulative counters so a
// mid-run snapshot is meaningful on its own. All fields except ElapsedMS
// are bit-identical across worker counts for a fixed seed.
type EPFPass struct {
	Stream       string  `json:"stream"`
	Pass         int     `json:"pass"`
	Phi          float64 `json:"phi"`   // potential Σ_r exp(α(r_r−r_0)) + exp(α·r_0) at live α
	Objective    float64 `json:"obj"`   // current objective c·z
	LowerBound   float64 `json:"lb"`    // best Lagrangian bound so far
	UpperBound   float64 `json:"ub"`    // best ε-feasible objective (0 until one exists)
	Gap          float64 `json:"gap"`   // (obj − lb)/lb
	UBGap        float64 `json:"ubgap"` // duality gap (ub − lb)/lb; −1 until an incumbent exists
	MaxViol      float64 `json:"viol"`  // δ_c(z): max relative coupling-row violation
	MaxLinkUtil  float64 `json:"lmax"`  // max link-row activity/capacity
	MeanLinkUtil float64 `json:"lmean"` // mean link-row activity/capacity
	Delta        float64 `json:"delta"` // scale δ driving the penalty exponent
	Blocks       int64   `json:"blocks"`
	WarmHits     int64   `json:"warm"`
	ElapsedMS    float64 `json:"ms"` // wall time since descent start (non-deterministic)
}

// EPFDone summarizes a finished (or cancelled) solve.
type EPFDone struct {
	Stream     string  `json:"stream"`
	Passes     int     `json:"passes"`
	Objective  float64 `json:"obj"`
	LowerBound float64 `json:"lb"`
	Gap        float64 `json:"gap"`
	Converged  bool    `json:"converged"`
	Rounded    bool    `json:"rounded"`
}

// SimSlice is one completed metric bin of a simulator run. Counter fields
// are per-bin deltas; PeakMbps/AggMbps/GBHop are the bin's own series
// values, and MaxUtil is the bin's peak per-link offered/capacity ratio
// (0 when the run has no capacity vector).
type SimSlice struct {
	Stream       string  `json:"stream"` // scheme label
	Bin          int     `json:"bin"`
	StartSec     int64   `json:"t"`
	PeakMbps     float64 `json:"peak"`
	MaxUtil      float64 `json:"util"`
	AggMbps      float64 `json:"agg"`
	GBHop        float64 `json:"gbhop"`
	Requests     int     `json:"req"`
	PinnedHits   int     `json:"pin"`
	CacheHits    int     `json:"cache"`
	RemoteServed int     `json:"remote"`
	Evictions    int     `json:"evict"`
	HitRate      float64 `json:"hit"` // per-bin local service fraction
}

// Event is the decoded union of every trace line; K discriminates
// ("epf_pass", "epf_done", "sim_slice", "span", and the
// serving-plane kinds "serve_resolve", "serve_swap", "serve_demand").
// Field tags match the typed event structs, so a round trip through
// ParseTrace preserves every value.
type Event struct {
	K            string  `json:"k"`
	Stream       string  `json:"stream"`
	Pass         int     `json:"pass"`
	Phi          float64 `json:"phi"`
	Objective    float64 `json:"obj"`
	LowerBound   float64 `json:"lb"`
	UpperBound   float64 `json:"ub"`
	Gap          float64 `json:"gap"`
	UBGap        float64 `json:"ubgap"`
	MaxViol      float64 `json:"viol"`
	MaxLinkUtil  float64 `json:"lmax"`
	MeanLinkUtil float64 `json:"lmean"`
	Delta        float64 `json:"delta"`
	Blocks       int64   `json:"blocks"`
	WarmHits     int64   `json:"warm"`
	MS           float64 `json:"ms"`
	Passes       int     `json:"passes"`
	Converged    bool    `json:"converged"`
	Rounded      bool    `json:"rounded"`
	Phase        string  `json:"phase"`
	Bin          int     `json:"bin"`
	T            int64   `json:"t"`
	PeakMbps     float64 `json:"peak"`
	MaxUtil      float64 `json:"util"`
	AggMbps      float64 `json:"agg"`
	GBHop        float64 `json:"gbhop"`
	Requests     int     `json:"req"`
	PinnedHits   int     `json:"pin"`
	CacheHits    int     `json:"cache"`
	RemoteServed int     `json:"remote"`
	Evictions    int     `json:"evict"`
	HitRate      float64 `json:"hit"`
	Version      int64   `json:"version"`
	Trigger      string  `json:"trigger"`
	Verdict      string  `json:"verdict"`
	Reason       string  `json:"reason"`
	WarmFrac     float64 `json:"warmfrac"`
	ResumedFrac  float64 `json:"resumedfrac"`
	SolveMS      float64 `json:"solvems"`
	LPMS         float64 `json:"lpms"`
	LBMS         float64 `json:"lbms"`
	PolishMS     float64 `json:"polishms"`
	RoundMS      float64 `json:"roundms"`
	Round        string  `json:"round"`
	RoundRatio   float64 `json:"roundratio"`
	RoundRef     float64 `json:"roundref"`
	BoundCarried bool    `json:"boundcarried"`
	CertReused   int     `json:"certreused"`
	AuditMS      float64 `json:"auditms"`
	BuildMS      float64 `json:"buildms"`
	RDelta       int64   `json:"rdelta"`
	Batch        int     `json:"batch"`
	Drift        float64 `json:"drift"`
	Dirty        int     `json:"dirty"`
	Rebuilt      int64   `json:"rebuilt"`
	Rows         int64   `json:"rows"`
	TMS          float64 `json:"tms"`
}

// Recorder is the telemetry hub one process shares: a JSONL event sink
// (optional) and a metrics registry. It keeps no per-stream state. All
// methods are safe for concurrent use; events from different goroutines
// interleave in the file, but the emit order within one stream (one
// emitting goroutine per stream, by convention) is preserved because every
// write happens under the sink mutex in program order.
//
// A nil *Recorder is the disabled state: every method no-ops.
type Recorder struct {
	start   time.Time
	metrics *Metrics

	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	buf []byte
	err error
}

// New returns an enabled recorder. trace is the JSONL sink and may be nil
// for a metrics-only recorder; if it also implements io.Closer,
// Close closes it.
func New(trace io.Writer) *Recorder {
	r := &Recorder{
		start:   time.Now(),
		metrics: NewMetrics(),
	}
	if trace != nil {
		r.w = bufio.NewWriterSize(trace, 1<<16)
		if c, ok := trace.(io.Closer); ok {
			r.c = c
		}
	}
	return r
}

// Enabled reports whether the recorder records anything at all. Callers use
// it to skip computing event fields (potential, utilizations) when off.
func (r *Recorder) Enabled() bool { return r != nil }

// Metrics returns the recorder's registry (nil on a nil recorder).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.metrics
}

// Flush forces buffered trace bytes to the sink and returns the first sink
// error seen so far. Solve entry points flush at every solve end — including
// cancelled ones — so a partial run's trace is always debuggable.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.w != nil {
		if err := r.w.Flush(); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r.err
}

// Close flushes and closes the sink (when it is closable). Safe to call more
// than once and on a nil recorder.
func (r *Recorder) Close() error {
	err := r.Flush()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c != nil {
		if cerr := r.c.Close(); cerr != nil && r.err == nil {
			r.err = cerr
		}
		r.c = nil
		r.w = nil
	}
	if r.err != nil {
		return r.err
	}
	return err
}

// RecordEPFPass records one solver pass: trace line and the epf
// gauge/counter set. The pass durations are the trace's ms series.
func (r *Recorder) RecordEPFPass(e EPFPass) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.w != nil {
		b := append(r.buf[:0], `{"k":"epf_pass","stream":`...)
		b = appendJSONString(b, e.Stream)
		b = appendInt(b, ",\"pass\":", int64(e.Pass))
		b = appendFloat(b, ",\"phi\":", e.Phi)
		b = appendFloat(b, ",\"obj\":", e.Objective)
		b = appendFloat(b, ",\"lb\":", e.LowerBound)
		b = appendFloat(b, ",\"ub\":", e.UpperBound)
		b = appendFloat(b, ",\"gap\":", e.Gap)
		b = appendFloat(b, ",\"ubgap\":", e.UBGap)
		b = appendFloat(b, ",\"viol\":", e.MaxViol)
		b = appendFloat(b, ",\"lmax\":", e.MaxLinkUtil)
		b = appendFloat(b, ",\"lmean\":", e.MeanLinkUtil)
		b = appendFloat(b, ",\"delta\":", e.Delta)
		b = appendInt(b, ",\"blocks\":", e.Blocks)
		b = appendInt(b, ",\"warm\":", e.WarmHits)
		b = appendFloat(b, ",\"ms\":", e.ElapsedMS)
		r.buf = r.writeLine(b)
	}
	r.mu.Unlock()

	m := r.metrics
	m.Gauge("epf_pass").Set(float64(e.Pass))
	m.Gauge("epf_objective").Set(e.Objective)
	m.Gauge("epf_lower_bound").Set(e.LowerBound)
	m.Gauge("epf_gap").Set(e.Gap)
	m.Gauge("epf_max_viol").Set(e.MaxViol)
	m.Gauge("epf_max_link_util").Set(e.MaxLinkUtil)
	m.Counter("epf_passes_total").Add(1)
}

// RecordEPFDone records a solve's final summary.
func (r *Recorder) RecordEPFDone(e EPFDone) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.w != nil {
		b := append(r.buf[:0], `{"k":"epf_done","stream":`...)
		b = appendJSONString(b, e.Stream)
		b = appendInt(b, ",\"passes\":", int64(e.Passes))
		b = appendFloat(b, ",\"obj\":", e.Objective)
		b = appendFloat(b, ",\"lb\":", e.LowerBound)
		b = appendFloat(b, ",\"gap\":", e.Gap)
		b = appendBool(b, ",\"converged\":", e.Converged)
		b = appendBool(b, ",\"rounded\":", e.Rounded)
		r.buf = r.writeLine(b)
	}
	r.mu.Unlock()
	r.metrics.Counter("epf_solves_total").Add(1)
}

// RecordSimSlice records one completed simulator bin.
func (r *Recorder) RecordSimSlice(e SimSlice) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.w != nil {
		b := append(r.buf[:0], `{"k":"sim_slice","stream":`...)
		b = appendJSONString(b, e.Stream)
		b = appendInt(b, ",\"bin\":", int64(e.Bin))
		b = appendInt(b, ",\"t\":", e.StartSec)
		b = appendFloat(b, ",\"peak\":", e.PeakMbps)
		b = appendFloat(b, ",\"util\":", e.MaxUtil)
		b = appendFloat(b, ",\"agg\":", e.AggMbps)
		b = appendFloat(b, ",\"gbhop\":", e.GBHop)
		b = appendInt(b, ",\"req\":", int64(e.Requests))
		b = appendInt(b, ",\"pin\":", int64(e.PinnedHits))
		b = appendInt(b, ",\"cache\":", int64(e.CacheHits))
		b = appendInt(b, ",\"remote\":", int64(e.RemoteServed))
		b = appendInt(b, ",\"evict\":", int64(e.Evictions))
		b = appendFloat(b, ",\"hit\":", e.HitRate)
		r.buf = r.writeLine(b)
	}
	r.mu.Unlock()

	m := r.metrics
	m.Counter("sim_requests_total").Add(int64(e.Requests))
	m.Counter("sim_evictions_total").Add(int64(e.Evictions))
	m.Gauge("sim_peak_mbps").Set(e.PeakMbps)
	m.Gauge("sim_hit_rate").Set(e.HitRate)
	m.Histogram("sim_bin_peak_mbps", 1).Observe(e.PeakMbps)
}

// RecordSpan records a completed phase timing.
func (r *Recorder) RecordSpan(stream, phase string, d time.Duration) {
	if r == nil {
		return
	}
	ms := float64(d.Nanoseconds()) / 1e6
	r.mu.Lock()
	if r.w != nil {
		b := append(r.buf[:0], `{"k":"span","stream":`...)
		b = appendJSONString(b, stream)
		b = append(b, ",\"phase\":"...)
		b = appendJSONString(b, phase)
		b = appendFloat(b, ",\"ms\":", ms)
		r.buf = r.writeLine(b)
	}
	r.mu.Unlock()
	r.metrics.Histogram("span_ms", NsPerMS).Observe(ms)
	r.metrics.Gauge("span_" + phase + "_ms").Set(ms)
}

// SpanTimer measures one phase; End records it. The zero value (from a nil
// recorder) is a no-op and never reads the clock.
type SpanTimer struct {
	r      *Recorder
	stream string
	phase  string
	t0     time.Time
}

// StartSpan begins timing a phase on stream.
func (r *Recorder) StartSpan(stream, phase string) SpanTimer {
	if r == nil {
		return SpanTimer{}
	}
	return SpanTimer{r: r, stream: stream, phase: phase, t0: time.Now()}
}

// End records the span (no-op on the zero timer).
func (sp SpanTimer) End() {
	if sp.r == nil {
		return
	}
	sp.r.RecordSpan(sp.stream, sp.phase, time.Since(sp.t0))
}

// writeLine terminates b with "}\n", writes it to the sink (mu held by the
// caller) and returns the buffer for reuse.
func (r *Recorder) writeLine(b []byte) []byte {
	b = append(b, '}', '\n')
	if _, err := r.w.Write(b); err != nil && r.err == nil {
		r.err = err
	}
	return b[:0]
}

// ParseTrace decodes a JSONL trace (tolerating a trailing partial line from
// a crashed writer, which it reports as an error after the decoded prefix).
func ParseTrace(rd io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return out, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: reading trace: %w", err)
	}
	return out, nil
}

// PassRow formats one solver pass for console output; the CLIs' -v progress
// mode and tracesum's table mode share it so the two never drift.
func PassRow(pass int, obj, lb, viol float64) string {
	gap := 0.0
	if lb > 1e-12 {
		gap = (obj - lb) / lb
	}
	return fmt.Sprintf("pass %3d  obj %12.1f  lb %12.1f  gap %6.2f%%  viol %6.3f%%",
		pass, obj, lb, 100*gap, 100*viol)
}

// Row renders the pass in the shared console format.
func (e EPFPass) Row() string { return PassRow(e.Pass, e.Objective, e.LowerBound, e.MaxViol) }

// appendInt appends `<prefix><v>` to b.
func appendInt(b []byte, prefix string, v int64) []byte {
	b = append(b, prefix...)
	return strconv.AppendInt(b, v, 10)
}

// appendFloat appends `<prefix><v>` with the shortest round-trip encoding.
// JSON cannot carry non-finite values, so NaN/±Inf encode as 0 — emit sites
// use in-band conventions (UBGap = −1) for "undefined" instead.
func appendFloat(b []byte, prefix string, v float64) []byte {
	b = append(b, prefix...)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, '0')
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendBool appends `<prefix><v>`.
func appendBool(b []byte, prefix string, v bool) []byte {
	b = append(b, prefix...)
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// appendJSONString appends v as a quoted, escaped JSON string. Stream and
// phase names are short and almost always plain ASCII; the escape path
// handles the rest correctly rather than quickly.
func appendJSONString(b []byte, v string) []byte {
	b = append(b, '"')
	for i := 0; i < len(v); {
		c := v[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			b = append(b, c)
			i++
			continue
		}
		if c < utf8.RuneSelf {
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, fmt.Sprintf(`\u%04x`, c)...)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(v[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, `�`...)
		} else {
			b = append(b, v[i:i+size]...)
		}
		i += size
	}
	return append(b, '"')
}
