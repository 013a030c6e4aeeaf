package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func samplePass(stream string, pass int) EPFPass {
	return EPFPass{
		Stream: stream, Pass: pass,
		Phi: 224.25, Objective: 5.5, LowerBound: 4.25, UpperBound: 6,
		Gap: 0.294, UBGap: 0.41, MaxViol: 2.125, MaxLinkUtil: 0.75,
		MeanLinkUtil: 0.0625, Delta: 1.5, Blocks: int64(60 * pass),
		WarmHits: 3, ElapsedMS: 12.5,
	}
}

// TestNilRecorderNoOps pins the disabled path's contract: every method on a
// nil recorder is callable, returns zero values, and allocates nothing.
func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	if r.Metrics() != nil {
		t.Fatal("nil recorder returned a registry")
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	pass := samplePass("epf", 1)
	slice := SimSlice{Stream: "lru", Bin: 2, Requests: 10}
	done := EPFDone{Stream: "epf", Passes: 10}
	allocs := testing.AllocsPerRun(100, func() {
		r.RecordEPFPass(pass)
		r.RecordEPFDone(done)
		r.RecordSimSlice(slice)
		r.RecordSpan("epf", "descent", time.Millisecond)
		r.StartSpan("epf", "verify").End()
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocated %.1f per run, want 0", allocs)
	}
}

// TestEnabledSteadyStateAllocations pins the enabled emit path: after the
// first warm-up event per stream, recording allocates nothing (reused
// encode buffer, no per-event garbage), so tracing cannot erode the
// solver's allocation discipline.
func TestEnabledSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	r := New(struct{ io.Writer }{io.Discard})
	pass := samplePass("epf", 1)
	slice := SimSlice{Stream: "lru", Bin: 1, Requests: 5, HitRate: 0.5}
	// Warm up: first events create stream map entries and metric instruments.
	for i := 0; i < 4; i++ {
		r.RecordEPFPass(pass)
		r.RecordSimSlice(slice)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.RecordEPFPass(pass)
		r.RecordSimSlice(slice)
	})
	if allocs != 0 {
		t.Fatalf("steady-state record allocated %.1f per run, want 0", allocs)
	}
}

// TestTraceRoundTrip pins the hand-rolled encoder against the stdlib
// decoder: every field of every event kind survives the trip exactly.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	wantPass := samplePass("epf.day07", 3)
	// Values that stress the encoder: shortest-round-trip floats, negatives,
	// the non-finite fallback and string escaping.
	wantPass.Phi = 1.0 / 3.0
	wantPass.Objective = 5.684341886080802e-14
	wantPass.UBGap = -1
	r.RecordEPFPass(wantPass)
	wantDone := EPFDone{Stream: "epf.day07", Passes: 56, Objective: 322.3,
		LowerBound: 299.3934960043012, Gap: 0.0765, Converged: true, Rounded: true}
	r.RecordEPFDone(wantDone)
	wantSlice := SimSlice{Stream: `lru "quoted"`, Bin: 9, StartSec: 2700,
		PeakMbps: 812.5, MaxUtil: 0.8125, AggMbps: 1625, GBHop: 60.9375,
		Requests: 41, PinnedHits: 12, CacheHits: 7, RemoteServed: 22,
		Evictions: 3, HitRate: 19.0 / 41.0}
	r.RecordSimSlice(wantSlice)
	r.RecordSpan("epf.day07", "rounding", 1500*time.Microsecond)
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	events, err := ParseTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("decoded %d events, want 4", len(events))
	}
	gotPass := events[0]
	if gotPass.K != "epf_pass" {
		t.Fatalf("event 0 kind %q", gotPass.K)
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"phi", gotPass.Phi, wantPass.Phi},
		{"obj", gotPass.Objective, wantPass.Objective},
		{"lb", gotPass.LowerBound, wantPass.LowerBound},
		{"ub", gotPass.UpperBound, wantPass.UpperBound},
		{"gap", gotPass.Gap, wantPass.Gap},
		{"ubgap", gotPass.UBGap, wantPass.UBGap},
		{"viol", gotPass.MaxViol, wantPass.MaxViol},
		{"lmax", gotPass.MaxLinkUtil, wantPass.MaxLinkUtil},
		{"lmean", gotPass.MeanLinkUtil, wantPass.MeanLinkUtil},
		{"delta", gotPass.Delta, wantPass.Delta},
		{"ms", gotPass.MS, wantPass.ElapsedMS},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("pass.%s = %v, want %v (must be bit-exact)", c.name, c.got, c.want)
		}
	}
	if gotPass.Stream != wantPass.Stream || gotPass.Pass != wantPass.Pass ||
		gotPass.Blocks != wantPass.Blocks || gotPass.WarmHits != wantPass.WarmHits {
		t.Errorf("pass identity fields: %+v", gotPass)
	}

	gotDone := events[1]
	if gotDone.K != "epf_done" || gotDone.Passes != wantDone.Passes ||
		gotDone.Objective != wantDone.Objective || gotDone.LowerBound != wantDone.LowerBound ||
		gotDone.Gap != wantDone.Gap || !gotDone.Converged || !gotDone.Rounded {
		t.Errorf("done = %+v", gotDone)
	}

	gotSlice := events[2]
	if gotSlice.K != "sim_slice" || gotSlice.Stream != wantSlice.Stream ||
		gotSlice.Bin != wantSlice.Bin || gotSlice.T != wantSlice.StartSec ||
		gotSlice.PeakMbps != wantSlice.PeakMbps || gotSlice.MaxUtil != wantSlice.MaxUtil ||
		gotSlice.GBHop != wantSlice.GBHop || gotSlice.Requests != wantSlice.Requests ||
		gotSlice.Evictions != wantSlice.Evictions || gotSlice.HitRate != wantSlice.HitRate {
		t.Errorf("slice = %+v", gotSlice)
	}

	gotSpan := events[3]
	if gotSpan.K != "span" || gotSpan.Phase != "rounding" || gotSpan.MS != 1.5 {
		t.Errorf("span = %+v", gotSpan)
	}
}

// TestNonFiniteEncoding pins the JSON-compatibility convention: non-finite
// floats encode as 0 rather than producing unparseable output.
func TestNonFiniteEncoding(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	e := samplePass("epf", 1)
	e.UpperBound = math.Inf(1)
	e.Phi = math.NaN()
	r.RecordEPFPass(e)
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	events, err := ParseTrace(&buf)
	if err != nil {
		t.Fatalf("ParseTrace on non-finite input: %v", err)
	}
	if events[0].UpperBound != 0 || events[0].Phi != 0 {
		t.Errorf("non-finite fields decoded as ub=%v phi=%v, want 0", events[0].UpperBound, events[0].Phi)
	}
}

// TestConcurrentStreamsPreserveOrder emits two streams from two goroutines
// through one sink (the CompareSchemes shape) and checks that each stream's
// pass sequence comes out in emit order — the per-stream ordering guarantee
// the sink documents. Run under -race this also exercises the locking.
func TestConcurrentStreamsPreserveOrder(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	const passes = 200
	var wg sync.WaitGroup
	for _, stream := range []string{"a", "b"} {
		stream := stream
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 1; p <= passes; p++ {
				e := samplePass(stream, p)
				e.Objective = float64(p)
				r.RecordEPFPass(e)
			}
		}()
	}
	wg.Wait()
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	events, err := ParseTrace(&buf)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	got := map[string][]int{}
	for _, e := range events {
		got[e.Stream] = append(got[e.Stream], e.Pass)
	}
	for _, stream := range []string{"a", "b"} {
		seq := got[stream]
		if len(seq) != passes {
			t.Fatalf("stream %s: %d events, want %d", stream, len(seq), passes)
		}
		for i, p := range seq {
			if p != i+1 {
				t.Fatalf("stream %s: pass %d at position %d — per-stream order not preserved", stream, p, i)
			}
		}
	}
}

// TestRecorderTable drives the registry side over a table of recorders
// (trace-backed, metrics-only, nil) to pin the shared behavior.
func TestRecorderTable(t *testing.T) {
	cases := []struct {
		name    string
		rec     *Recorder
		tracing bool
	}{
		{"with sink", New(&bytes.Buffer{}), true},
		{"metrics only", New(nil), true},
		{"nil", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.rec.Enabled() != tc.tracing {
				t.Fatalf("Enabled = %v, want %v", tc.rec.Enabled(), tc.tracing)
			}
			tc.rec.RecordEPFPass(samplePass("epf", 1))
			if tc.tracing {
				m := tc.rec.Metrics()
				if got := m.Counter("epf_passes_total").Value(); got != 1 {
					t.Errorf("epf_passes_total = %d, want 1", got)
				}
				if got := m.Gauge("epf_objective").Value(); got != 5.5 {
					t.Errorf("epf_objective gauge = %v, want 5.5", got)
				}
			}
			if err := tc.rec.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestRecorderStateIsBounded: a daemon names one stream per re-solve, so
// nothing the recorder keeps may grow with the number of streams. After
// 1 000 serve.vNN streams of passes, dones and spans the registry holds the
// families one stream leaves behind, and no more.
func TestRecorderStateIsBounded(t *testing.T) {
	feed := func(r *Recorder, stream string) {
		r.RecordEPFPass(samplePass(stream, 1))
		r.RecordEPFDone(EPFDone{Stream: stream, Passes: 1})
		r.RecordSpan(stream, "descent", time.Millisecond)
		r.StartSpan(stream, "rounding").End()
	}
	families := func(r *Recorder) int {
		var b strings.Builder
		r.Metrics().WritePrometheus(&b)
		return strings.Count(b.String(), "# TYPE ")
	}
	one := New(io.Discard)
	feed(one, "serve.v1")
	many := New(io.Discard)
	for v := 1; v <= 1000; v++ {
		feed(many, fmt.Sprintf("serve.v%d", v))
	}
	if got, want := families(many), families(one); got != want || want == 0 {
		t.Errorf("registry holds %d families after 1000 streams, %d after one", got, want)
	}
}

// errWriter fails after n bytes, for sink-error propagation.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, fmt.Errorf("sink full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestSinkErrorSurfacesOnClose(t *testing.T) {
	r := New(&errWriter{n: 10})
	for i := 1; i <= 1000; i++ {
		r.RecordEPFPass(samplePass("epf", i)) // overflow the 64 KB buffer
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close swallowed the sink write error")
	}
}
