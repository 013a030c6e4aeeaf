package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestServeEventsRoundTrip records every serving-plane event kind and reads
// the trace back through ParseTrace, pinning the wire keys servestat
// depends on.
func TestServeEventsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	r.RecordServeResolve(ServeResolve{Phase: "start", Version: 2, Trigger: "demand"})
	r.RecordServeResolve(ServeResolve{
		Phase: "done", Version: 2, Trigger: "demand", Verdict: "swapped",
		WarmFrac: 0.75, ResumedFrac: 0.5, Passes: 12, SolveMS: 34.5, AuditMS: 1.25, BuildMS: 0.5,
		LPMS: 4.5, LBMS: 2.25, PolishMS: 1.5, RoundMS: 29, Round: "rejected", RoundRatio: 1.24, RoundRef: 1.117,
		BoundCarried: true, CertReused: 1992,
	})
	r.RecordServeResolve(ServeResolve{
		Phase: "done", Version: 3, Trigger: "demand", Verdict: "audit_rejected",
		Reason: "audit: coupling row violated", Passes: 9, SolveMS: 20,
	})
	r.RecordServeSwap(ServeSwap{Version: 2, RDelta: 17, BuildMS: 0.5})
	r.RecordServeDemand(ServeDemand{Batch: 40, Drift: 123.5})
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	start := events[0]
	if start.K != "serve_resolve" || start.Phase != "start" || start.Version != 2 || start.Trigger != "demand" {
		t.Errorf("start event %+v", start)
	}
	if start.Verdict != "" {
		t.Errorf("start event carries a verdict: %+v", start)
	}
	done := events[1]
	if done.Phase != "done" || done.Verdict != "swapped" || done.WarmFrac != 0.75 || done.ResumedFrac != 0.5 ||
		done.Passes != 12 || done.SolveMS != 34.5 || done.AuditMS != 1.25 || done.BuildMS != 0.5 ||
		done.LPMS != 4.5 || done.RoundMS != 29 ||
		done.Round != "rejected" || done.RoundRatio != 1.24 || done.RoundRef != 1.117 {
		t.Errorf("done event %+v", done)
	}
	if done.LBMS != 2.25 || done.PolishMS != 1.5 {
		t.Errorf("done event lbms %v polishms %v, want 2.25 1.5", done.LBMS, done.PolishMS)
	}
	if !done.BoundCarried || done.CertReused != 1992 {
		t.Errorf("done event boundcarried %v certreused %d, want true 1992", done.BoundCarried, done.CertReused)
	}
	rej := events[2]
	if rej.Verdict != "audit_rejected" || rej.Reason != "audit: coupling row violated" || rej.Round != "" || rej.BoundCarried {
		t.Errorf("reject event %+v", rej)
	}
	swap := events[3]
	if swap.K != "serve_swap" || swap.Version != 2 || swap.RDelta != 17 || swap.BuildMS != 0.5 {
		t.Errorf("swap event %+v", swap)
	}
	dem := events[4]
	if dem.K != "serve_demand" || dem.Batch != 40 || dem.Drift != 123.5 {
		t.Errorf("demand event %+v", dem)
	}
	for i, e := range events {
		if e.TMS < 0 {
			t.Errorf("event %d negative tms %v", i, e.TMS)
		}
		if i > 0 && e.TMS < events[i-1].TMS {
			t.Errorf("event %d tms %v precedes event %d tms %v", i, e.TMS, i-1, events[i-1].TMS)
		}
	}

	// Metrics side effects.
	m := r.Metrics()
	if got := m.Counter("serve_resolves_total").Value(); got != 2 {
		t.Errorf("serve_resolves_total %d, want 2", got)
	}
	if got := m.Counter("serve_resolves_rejected_total").Value(); got != 1 {
		t.Errorf("serve_resolves_rejected_total %d, want 1", got)
	}
	if got := m.Counter("serve_swaps_total").Value(); got != 1 {
		t.Errorf("serve_swaps_total %d, want 1", got)
	}
	if got := m.Counter("serve_demand_entries_total").Value(); got != 40 {
		t.Errorf("serve_demand_entries_total %d, want 40", got)
	}
	if got := m.Gauge("serve_snapshot_version").Value(); got != 2 {
		t.Errorf("serve_snapshot_version %v, want 2", got)
	}
}

// TestServeEventsNilRecorder pins the disabled state: every serve-event
// method no-ops on a nil recorder.
func TestServeEventsNilRecorder(t *testing.T) {
	var r *Recorder
	r.RecordServeResolve(ServeResolve{Phase: "start"})
	r.RecordServeSwap(ServeSwap{Version: 1})
	r.RecordServeDemand(ServeDemand{Batch: 1})
}

// TestServeEventsMixedTrace checks a trace interleaving solver and serving
// events parses whole — the shared-sink property.
func TestServeEventsMixedTrace(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	r.RecordEPFDone(EPFDone{Stream: "serve", Passes: 3, Converged: true})
	r.RecordServeSwap(ServeSwap{Version: 1, RDelta: 4})
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ParseTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].K != "epf_done" || events[1].K != "serve_swap" {
		t.Fatalf("events %+v", events)
	}
}
