package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vodplace/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden summaries")

func loadTrace(t *testing.T, name string) []obs.Event {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ParseTrace(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return events
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("golden mismatch for %s:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestSummaryGolden pins the full table for the healthy fixture trace —
// resolves with verdict breakdown, swap timeline with lifetimes, demand
// totals — byte for byte.
func TestSummaryGolden(t *testing.T) {
	events := loadTrace(t, "serve_ok.trace.jsonl")
	var b bytes.Buffer
	summarize(events).writeTable(&b)
	checkGolden(t, "serve_ok.golden", b.Bytes())
}

// TestLatencyGolden pins the -metrics report from a committed /metrics
// snapshot: per-endpoint class counts and the conservative quantiles.
func TestLatencyGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := obs.ParseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := writeLatency(&b, samples); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.golden", b.Bytes())
}

// TestPassZeroResolve feeds the tool a hand-built trace whose one re-solve
// ended at pass 0 (its carried point already certified): no epf_pass event,
// passes 0 on the done event. -check accepts it and the ledger reports it.
func TestPassZeroResolve(t *testing.T) {
	events := loadTrace(t, "pass0.trace.jsonl")
	if bad := violations(events); len(bad) != 0 {
		t.Errorf("pass-0 trace flagged: %v", bad)
	}
	var b bytes.Buffer
	summarize(events).writeTable(&b)
	for _, want := range []string{"v2  demand  swapped  passes 0  warm 100%", "verdicts: swapped 1  audit_rejected 0", "swaps 1"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, b.String())
		}
	}
}

// TestCheckClean proves the healthy fixture passes every invariant.
func TestCheckClean(t *testing.T) {
	if bad := violations(loadTrace(t, "serve_ok.trace.jsonl")); len(bad) != 0 {
		t.Errorf("clean trace flagged: %v", bad)
	}
}

// TestCheckViolations proves each committed violating fixture trips exactly
// the invariant it was built to violate.
func TestCheckViolations(t *testing.T) {
	for _, tc := range []struct {
		trace string
		want  []string
	}{
		{"bad_version.trace.jsonl", []string{
			"swap version not strictly increasing: v2 after v3",
		}},
		{"bad_noaudit.trace.jsonl", []string{
			"swap v2 without a swapped resolve verdict (audit gate bypassed?)",
		}},
		{"bad_gap.trace.jsonl", []string{
			"resolve start v3 while v2 still open",
			"resolve done v4 (failed) closes start v3",
			"resolve done v4 (cancelled) without a matching start",
			"resolve start v5 never completed",
		}},
	} {
		got := violations(loadTrace(t, tc.trace))
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d violations %v, want %d", tc.trace, len(got), got, len(tc.want))
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: violation %d = %q, want %q", tc.trace, i, got[i], tc.want[i])
			}
		}
	}
}

// TestCheckDeltaEconomy covers invariant 4 and the -expect-delta predicate:
// the healthy fixture contains an incremental swap, a rebuilt count larger
// than the table is flagged, and a trace whose every swap is a full rebuild
// fails the expectation.
func TestCheckDeltaEconomy(t *testing.T) {
	events := loadTrace(t, "serve_ok.trace.jsonl")
	if !hasIncrementalSwap(events) {
		t.Error("healthy fixture has an incremental swap, predicate missed it")
	}
	if bad := violations(events); len(bad) != 0 {
		t.Errorf("healthy fixture flagged: %v", bad)
	}

	over := []obs.Event{{K: "serve_swap", Version: 2, Rows: 40, Rebuilt: 41}}
	found := false
	for _, m := range violations(over) {
		if m == "swap v2 rebuilt 41 of 40 route rows (count outside the table)" {
			found = true
		}
	}
	if !found {
		t.Errorf("rebuilt > rows not flagged: %v", violations(over))
	}

	full := []obs.Event{{K: "serve_swap", Version: 2, Rows: 40, Rebuilt: 40}}
	if hasIncrementalSwap(full) {
		t.Error("full-rebuild-only trace satisfied -expect-delta")
	}
	if hasIncrementalSwap(nil) {
		t.Error("empty trace satisfied -expect-delta")
	}
}

// TestCheckRealTrace runs the checker over a trace the real recorder
// emitted, closing the loop between the emitters in internal/obs and the
// invariants asserted here.
func TestCheckRealTrace(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.New(&buf)
	rec.RecordServeResolve(obs.ServeResolve{Phase: "start", Version: 2, Trigger: "demand"})
	rec.RecordServeSwap(obs.ServeSwap{Version: 2, RDelta: 9, BuildMS: 0.5})
	rec.RecordServeResolve(obs.ServeResolve{
		Phase: "done", Version: 2, Trigger: "demand", Verdict: "swapped",
		WarmFrac: 0.8, Passes: 6, SolveMS: 12, AuditMS: 0.5, BuildMS: 0.5,
	})
	rec.RecordServeDemand(obs.ServeDemand{Batch: 3, Drift: 42})
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if bad := violations(events); len(bad) != 0 {
		t.Errorf("recorder-emitted trace flagged: %v", bad)
	}
	var b bytes.Buffer
	summarize(events).writeTable(&b)
	for _, want := range []string{"== resolves ==", "== swaps ==", "== demand ==", "v2  demand  swapped"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, b.String())
		}
	}
}

// TestQuantileOrderStat pins the sorted-slice quantile helper.
func TestQuantileOrderStat(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0, 10}, {0.5, 30}, {0.9, 50}, {1, 50}} {
		if got := quantile(s, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}
