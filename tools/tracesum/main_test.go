package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vodplace/internal/catalog"
	"vodplace/internal/core"
	"vodplace/internal/epf"
	"vodplace/internal/obs"
	"vodplace/internal/topology"
	"vodplace/internal/verify"
	"vodplace/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden summary")

// solveTraced runs a fixed-seed integer solve with tracing on and returns
// the raw JSONL trace. Workers is pinned to 2 — the trace must not depend on
// it (see TestSummaryWorkerInvariance), but pinning keeps the golden's
// provenance explicit.
func solveTraced(t *testing.T, workers int) []byte {
	t.Helper()
	inst, err := verify.RandomInstance(11, verify.InstanceOpts{Nodes: 8, Videos: 40, Slices: 2})
	if err != nil {
		t.Fatalf("RandomInstance: %v", err)
	}
	var buf bytes.Buffer
	rec := obs.New(&buf)
	if _, err := epf.SolveInteger(inst, epf.Options{
		Seed: 11, MaxPasses: 60, Workers: workers, Recorder: rec,
	}); err != nil {
		t.Fatalf("SolveInteger: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// summaryFor reduces a trace exactly the way the CLI does.
func summaryFor(t *testing.T, trace []byte) *summary {
	t.Helper()
	events, err := obs.ParseTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	return summarize(events)
}

// TestGoldenSummary pins tracesum's table output for a fixed-seed quick
// solve. The table contains only deterministic trace fields, so this golden
// is stable across machines and worker counts; regenerate with -update after
// an intentional solver or format change.
func TestGoldenSummary(t *testing.T) {
	sum := summaryFor(t, solveTraced(t, 2))
	var out bytes.Buffer
	sum.writeTable(&out)

	golden := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("summary drifted from golden (re-run with -update if intentional)\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}

	// The same solve must pass the monotonicity audit the CLI's -check runs.
	if bad := sum.monotoneViolations(); len(bad) > 0 {
		t.Errorf("monotonicity violations in a clean solve: %v", bad)
	}
}

// TestSummaryWorkerInvariance asserts the acceptance criterion directly at
// the tool layer: the CSV reduction of a fixed-seed trace is bit-identical
// at any worker count.
func TestSummaryWorkerInvariance(t *testing.T) {
	var base bytes.Buffer
	summaryFor(t, solveTraced(t, 1)).writeCSV(&base)
	for _, workers := range []int{2, 5} {
		var got bytes.Buffer
		summaryFor(t, solveTraced(t, workers)).writeCSV(&got)
		if !bytes.Equal(base.Bytes(), got.Bytes()) {
			t.Errorf("CSV summary differs between 1 and %d workers", workers)
		}
	}
}

// TestCSVShape sanity-checks the CSV header and row count against the
// table's pass count.
func TestCSVShape(t *testing.T) {
	trace := solveTraced(t, 2)
	sum := summaryFor(t, trace)
	var out bytes.Buffer
	sum.writeCSV(&out)
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if lines[0] != "stream,pass,phi,obj,lb,ub,gap,ubgap,viol,lmax,lmean,delta,blocks,warm" {
		t.Fatalf("header = %q", lines[0])
	}
	passes := 0
	for _, st := range sum.epf {
		passes += len(st.passes)
	}
	if got := len(lines) - 1; got != passes || passes == 0 {
		t.Fatalf("%d CSV rows for %d passes", got, passes)
	}
}

// TestMonotoneAudit feeds the checker hand-built violating series to prove
// -check actually fires.
func TestMonotoneAudit(t *testing.T) {
	mk := func(lbs, ubgaps []float64) []obs.Event {
		var evs []obs.Event
		for i := range lbs {
			evs = append(evs, obs.Event{K: "epf_pass", Stream: "s", Pass: i + 1,
				LowerBound: lbs[i], UBGap: ubgaps[i]})
		}
		return evs
	}
	cases := []struct {
		name   string
		events []obs.Event
		bad    bool
	}{
		{"clean", mk([]float64{1, 2, 2, 3}, []float64{-1, 0.5, 0.5, 0.2}), false},
		{"lb falls", mk([]float64{1, 2, 1.5}, []float64{-1, -1, -1}), true},
		{"gap rises", mk([]float64{1, 1, 1}, []float64{0.2, 0.2, 0.3}), true},
		{"gap vanishes", mk([]float64{1, 1}, []float64{0.2, -1}), true},
		{"float noise tolerated", mk([]float64{1, 1 - 1e-13}, []float64{-1, -1}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := summarize(tc.events).monotoneViolations()
			if (len(bad) > 0) != tc.bad {
				t.Errorf("violations = %v, want bad=%v", bad, tc.bad)
			}
		})
	}
}

// pipelineTraced runs a small fixed-seed multi-period warm pipeline with
// tracing on and returns the raw JSONL trace: three day-grouped EPF streams
// (mip.day07..mip.day09) plus the simulator stream.
func pipelineTraced(t *testing.T) []byte {
	t.Helper()
	g := topology.Random(6, 1.2, 4)
	lib := catalog.Generate(catalog.Config{NumVideos: 80, Weeks: 2}, 6)
	tr := workload.GenerateTrace(lib, workload.TraceConfig{
		Days: 10, NumVHOs: 6, RequestsPerVideoPerDay: 10,
	}, 9)
	sys := &core.System{
		G:           g,
		Lib:         lib,
		DiskGB:      core.UniformDisk(lib, 6, 2.0),
		LinkCapMbps: core.UniformLinks(g, 20000),
	}
	var buf bytes.Buffer
	rec := obs.New(&buf)
	_, err := sys.RunMIP(tr, core.MIPOptions{
		UpdateEveryDays: 1,
		UpdateWeight:    0.5,
		Warm:            true,
		Solver:          epf.Options{Seed: 1, MaxPasses: 200, Epsilon: 0.05},
		Recorder:        rec,
	})
	if err != nil {
		t.Fatalf("RunMIP: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenPipelineSummary pins the summary of a warm multi-period trace,
// including the per-scheme passes-trend block that only day-grouped streams
// produce. Regenerate with -update after an intentional change.
func TestGoldenPipelineSummary(t *testing.T) {
	sum := summaryFor(t, pipelineTraced(t))
	var out bytes.Buffer
	sum.writeTable(&out)

	if !strings.Contains(out.String(), "== passes trend: mip ==") {
		t.Fatalf("pipeline summary missing passes-trend block:\n%s", out.String())
	}

	golden := filepath.Join("testdata", "pipeline.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("pipeline summary drifted from golden (re-run with -update if intentional)\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}
	if bad := sum.monotoneViolations(); len(bad) > 0 {
		t.Errorf("monotonicity violations in a clean pipeline: %v", bad)
	}
}

// TestDayStream pins the stream-name parser the trend block relies on.
func TestDayStream(t *testing.T) {
	cases := []struct {
		name, prefix, day string
		ok                bool
	}{
		{"mip.day07", "mip", "07", true},
		{"fig2.mip.day14", "fig2.mip", "14", true},
		{"epf", "", "", false},
		{"mip.day", "", "", false},
		{"mip.dayXX", "", "", false},
	}
	for _, tc := range cases {
		prefix, day, ok := dayStream(tc.name)
		if prefix != tc.prefix || day != tc.day || ok != tc.ok {
			t.Errorf("dayStream(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.name, prefix, day, ok, tc.prefix, tc.day, tc.ok)
		}
	}
}
