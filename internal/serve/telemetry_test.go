package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vodplace/internal/epf"
	"vodplace/internal/obs"
)

// TestServeLifecycleTrace runs a demand → re-solve → swap cycle with a
// recorder attached and checks the trace tells the whole story: the demand
// batch, the resolve bracket, and the swap with its route churn.
func TestServeLifecycleTrace(t *testing.T) {
	inst := testInstance(t, 30, 6, 17)
	var buf bytes.Buffer
	rec := obs.New(&buf)
	s, err := New(inst, Config{
		Solver:   epf.Options{Seed: 17, MaxPasses: 600, Epsilon: 0.02},
		Recorder: rec,
		Metrics:  rec.Metrics(),
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	snap := s.Snapshot()

	var entries []string
	for vi := 0; vi < len(snap.Inst.Demands) && vi < 8; vi++ {
		entries = append(entries, fmt.Sprintf(`{"video":%d,"vho":%d,"add":40}`,
			snap.Inst.Demands[vi].Video, vi%snap.NumVHOs()))
	}
	resp, err := ts.Client().Post(ts.URL+"/demand", "application/json",
		strings.NewReader("["+strings.Join(entries, ",")+"]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("demand status %d, want 202", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for s.Snapshot().Version < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no swap within deadline; stats %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// 22 of the 30 videos were not touched, so the re-solve resumed them
	// from the carried LP point, and /status says so.
	var st statusJSON
	if code := getJSON(t, ts, "/status", &st); code != 200 {
		t.Fatalf("status %d, want 200", code)
	}
	if st.LastLPMS <= 0 || st.LastRoundMS <= 0 {
		t.Errorf("/status last_lp_ms %v last_round_ms %v after a re-solve, want both > 0", st.LastLPMS, st.LastRoundMS)
	}
	if st.LastLBMS <= 0 || st.LastLBMS > st.LastLPMS {
		t.Errorf("/status last_lb_ms %v of last_lp_ms %v after a re-solve, want in (0, lp]", st.LastLBMS, st.LastLPMS)
	}
	if st.LastPolishMS < 0 || st.LastPolishMS > st.LastLBMS {
		t.Errorf("/status last_polish_ms %v of last_lb_ms %v after a re-solve, want in [0, bound]", st.LastPolishMS, st.LastLBMS)
	}
	if st.ResumedFrac <= 0 || st.ResumedFrac > 1 {
		t.Errorf("/status resumed_frac %v after a warm re-solve, want in (0, 1]", st.ResumedFrac)
	}
	// The re-solve tried to resume the served placement, and /status says
	// how that went: the mode, the ratio it reached, the reference it faced.
	if (st.LastRound != "resumed" && st.LastRound != "rejected") || st.LastRoundRatio < 1 || st.LastRoundRef < 1 ||
		(st.LastRound == "resumed") != (st.LastRoundRatio <= st.LastRoundRef) {
		t.Errorf("/status last_round %q ratio %v ref %v after a warm re-solve", st.LastRound, st.LastRoundRatio, st.LastRoundRef)
	}
	s.Close() // quiesce the resolver before reading the trace
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var demand, start, swapped int
	var swap, lastDone *obs.Event
	for i := range events {
		e := &events[i]
		switch e.K {
		case "serve_demand":
			demand++
			if e.Batch != len(entries) || e.Drift <= 0 {
				t.Errorf("serve_demand %+v", e)
			}
		case "serve_resolve":
			if e.Phase == "start" {
				start++
				if e.Version < 2 || e.Trigger != "demand" {
					t.Errorf("serve_resolve start %+v", e)
				}
			} else if e.Verdict == "swapped" {
				swapped++
				lastDone = e
				if e.PolishMS < 0 || e.PolishMS > e.LBMS || e.LBMS <= 0 || e.LBMS > e.LPMS {
					t.Errorf("swapped done: polishms %v of lbms %v of lpms %v", e.PolishMS, e.LBMS, e.LPMS)
				}
				if e.SolveMS <= 0 || e.Passes <= 0 || e.Reason != "" ||
					e.LPMS <= 0 || e.RoundMS <= 0 || e.LPMS+e.RoundMS > e.SolveMS ||
					e.ResumedFrac <= 0 || e.ResumedFrac > e.WarmFrac ||
					(e.Round != "resumed" && e.Round != "rejected") || e.RoundRatio < 1 || e.RoundRef < 1 {
					t.Errorf("swapped done %+v", e)
				}
			}
		case "serve_swap":
			swap = e
		}
	}
	if demand != 1 || start < 1 || swapped < 1 {
		t.Fatalf("demand=%d start=%d swapped=%d, want 1/>=1/>=1", demand, start, swapped)
	}
	if swap == nil || swap.Version != 2 || swap.RDelta < 0 {
		t.Fatalf("serve_swap %+v", swap)
	}
	// /status is rendered from the last swapped done event: field for field
	// the same numbers the trace carries (one burst, so v2 is the last swap).
	if uint64(lastDone.Version) != st.Version || lastDone.Passes != st.LastPasses ||
		lastDone.LPMS != st.LastLPMS || lastDone.RoundMS != st.LastRoundMS ||
		lastDone.ResumedFrac != st.ResumedFrac || lastDone.Round != st.LastRound ||
		lastDone.RoundRatio != st.LastRoundRatio || lastDone.RoundRef != st.LastRoundRef ||
		lastDone.BoundCarried != st.LastBoundCarried || lastDone.CertReused != st.LastCertReused {
		t.Errorf("/status %+v does not match the swapped done event %+v", st, lastDone)
	}

	if lastDone.LBMS != st.LastLBMS || lastDone.PolishMS != st.LastPolishMS {
		t.Errorf("/status last_lb_ms %v last_polish_ms %v, the swapped done event's lbms %v polishms %v",
			st.LastLBMS, st.LastPolishMS, lastDone.LBMS, lastDone.PolishMS)
	}

	// The shared registry carries both the server's counters and the
	// recorder's event-derived families.
	m := rec.Metrics()
	if got := m.Counter("serve_swaps_total").Value(); got < 1 {
		t.Errorf("serve_swaps_total %d, want >= 1", got)
	}
	if got := m.Counter("serve.resolves_swapped").Value(); got < 1 {
		t.Errorf("serve.resolves_swapped %d, want >= 1", got)
	}
}

// The server's auditor keeps its certificate between re-solves. The first
// one starts empty; a re-solve that exported the carried duals unchanged is
// certified at the same duals as the last, so only the videos patched since
// are re-derived; one that moved its duals re-derives everything. The done
// event and /status say which happened and how many block bounds were reused.
func TestResolveReusesCertificate(t *testing.T) {
	const videos = 30
	s := testServer(t, videos, 6, 21)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	carried := 0
	for round := 1; round <= 4; round++ {
		vi := (3 * round) % videos
		s.mu.Lock()
		s.state.apply([]DemandUpdate{{Video: s.live.Demands[vi].Video, VHO: round % 6, Add: 5}})
		s.dirty = true
		s.mu.Unlock()
		if snap, err := s.resolveOnce(context.Background()); err != nil || snap == nil {
			t.Fatalf("round %d: no swap (error %v, stats %+v)", round, err, s.Stats())
		}
		s.mu.Lock()
		done := s.lastSwapped
		s.mu.Unlock()
		want := 0
		if round > 1 && done.BoundCarried {
			want = videos - 1
			carried++
		}
		if done.CertReused != want {
			t.Errorf("round %d: bound carried %v, %d block bounds reused; want %d", round, done.BoundCarried, done.CertReused, want)
		}
		var st statusJSON
		if code := getJSON(t, ts, "/status", &st); code != 200 {
			t.Fatalf("status %d", code)
		}
		if st.LastBoundCarried != done.BoundCarried || st.LastCertReused != done.CertReused {
			t.Errorf("round %d: /status last_bound_carried %v last_cert_reused %d, the done event %v %d",
				round, st.LastBoundCarried, st.LastCertReused, done.BoundCarried, done.CertReused)
		}
	}
	if carried == 0 {
		t.Error("no re-solve carried its bound; the certificate was never reused")
	}
}

// TestMetricsEndpoint scrapes /metrics and checks the exposition parses and
// carries the request instruments and the read-time gauges.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t, 30, 6, 18)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	snap := s.Snapshot()

	// Generate traffic so the route instrument has samples: hits and a 404.
	for j := 0; j < snap.NumVHOs(); j++ {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/route?video=%d&vho=%d",
			ts.URL, snap.Inst.Demands[0].Video, j))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := ts.Client().Get(ts.URL + "/route?video=999999&vho=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, sm := range samples {
		if sm.Labels == nil {
			byName[sm.Name] = sm.Value
		}
	}
	if byName["serve_route_requests"] != float64(snap.NumVHOs())+1 {
		t.Errorf("serve_route_requests %v, want %d", byName["serve_route_requests"], snap.NumVHOs()+1)
	}
	if _, ok := byName["serve_snapshot_age_seconds"]; !ok {
		t.Error("serve_snapshot_age_seconds missing from exposition")
	}
	var ok2xx, ok4xx bool
	for _, sm := range samples {
		if sm.Name == obs.PromReqTotalName && sm.Labels["endpoint"] == "route" {
			switch sm.Labels["code"] {
			case "2xx":
				ok2xx = sm.Value == float64(snap.NumVHOs())
			case "4xx":
				ok4xx = sm.Value == 1
			}
		}
	}
	if !ok2xx || !ok4xx {
		t.Errorf("route status classes wrong (2xx ok=%v, 4xx ok=%v)", ok2xx, ok4xx)
	}
	h, err := obs.HistFromProm(samples, obs.PromReqDurName, map[string]string{"endpoint": "route"}, 1e9)
	if err != nil || h.Count != int64(snap.NumVHOs())+1 {
		t.Fatalf("route latency histogram %+v, error %v", h, err)
	}
	if q := h.Quantile(0.99); q <= 0 || q > 10e9 {
		t.Errorf("p99 %v ns implausible", q)
	}
}

// TestStatusTelemetryFields checks the /status additions: build timestamp,
// age, and the empty last-reject on a healthy server.
func TestStatusTelemetryFields(t *testing.T) {
	s := testServer(t, 30, 6, 19)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var st statusJSON
	if code := getJSON(t, ts, "/status", &st); code != 200 {
		t.Fatalf("status code %d", code)
	}
	if st.BuiltUnix <= 0 {
		t.Errorf("built_unix %d, want > 0", st.BuiltUnix)
	}
	if st.AgeSeconds < 0 || st.AgeSeconds > 3600 {
		t.Errorf("age_seconds %v implausible", st.AgeSeconds)
	}
	if st.LastReject != "" {
		t.Errorf("last_reject %q, want empty", st.LastReject)
	}
	if got := s.Stats().LastReject; got != "" {
		t.Errorf("Stats().LastReject %q, want empty", got)
	}
}

// TestRouteDelta pins the swap-churn computation.
func TestRouteDelta(t *testing.T) {
	s := testServer(t, 30, 6, 20)
	snap := s.Snapshot()
	same, err := buildSnapshot(snap.Inst, snap.Sol, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if d := routeDelta(snap, same); d != 0 {
		t.Errorf("identical snapshots delta %d, want 0", d)
	}
	if d := routeDelta(nil, snap); d != int64(len(snap.route)) {
		t.Errorf("nil-old delta %d, want full table %d", d, len(snap.route))
	}
	// Flipping one route entry is a delta of exactly 1.
	mod, err := buildSnapshot(snap.Inst, snap.Sol, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	old := mod.route[0]
	mod.route[0] = old + 1
	if d := routeDelta(snap, mod); d != 1 {
		t.Errorf("one-entry delta %d, want 1", d)
	}
	mod.route[0] = old
}

// TestDemandDrift pins the drift accounting: accumulation on apply
// (including the zero clamp) and the post-swap settlement.
func TestDemandDrift(t *testing.T) {
	inst := testInstance(t, 20, 5, 21)
	st := stateFromInstance(inst)
	id := inst.Demands[0].Video
	st.apply([]DemandUpdate{{Video: id, VHO: 0, Add: 10}})
	if st.drift != 10 {
		t.Fatalf("drift %v, want 10", st.drift)
	}
	// A negative add that clamps at zero only counts the mass removed.
	before := st.rows[st.byID[id]].agg[1]
	st.apply([]DemandUpdate{{Video: id, VHO: 1, Add: -1e9}})
	if want := 10 + before; st.drift != want {
		t.Errorf("drift %v, want %v (clamped removal counts %v)", st.drift, want, before)
	}
}
