package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
pkg: vodplace/internal/epf
cpu: Test CPU @ 2.00GHz
BenchmarkSolve-2   	      10	 200000000 ns/op	 1000 B/op	  10 allocs/op
BenchmarkSolve-2   	      12	 100000000 ns/op	 1000 B/op	  10 allocs/op
BenchmarkSolve-2   	      11	 150000000 ns/op	 1000 B/op	  10 allocs/op
BenchmarkKernel-2  	    1000	      4000 ns/op
PASS
`

// convert runs the tool over text against an optional baseline record and
// returns the decoded output record and what went to stderr.
func convert(t *testing.T, text string, baseline *Record, cores bool) (Record, string) {
	t.Helper()
	path := ""
	if baseline != nil {
		path = filepath.Join(t.TempDir(), "BENCH.json")
		data, err := json.Marshal(baseline)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errw bytes.Buffer
	if err := run(strings.NewReader(text), &out, &errw, path, cores); err != nil {
		t.Fatalf("run: %v", err)
	}
	var rec Record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("output is not a record: %v\n%s", err, out.Bytes())
	}
	return rec, errw.String()
}

// sameHost is a baseline recorded where benchText was: the cpu line and
// GOMAXPROCS suffix of the text, the core count of this process.
func sameHost() *Record {
	return &Record{
		CPU: "Test CPU @ 2.00GHz", NumCPU: runtime.NumCPU(), Gomaxprocs: 2,
		Current: map[string]Result{"BenchmarkSolve": {NsPerOp: 250000000}, "BenchmarkGone": {NsPerOp: 1}},
	}
}

func TestCountKeepsFastestRun(t *testing.T) {
	rec, _ := convert(t, benchText, nil, false)
	if got := rec.Current["BenchmarkSolve"]; got.NsPerOp != 100000000 || got.Iterations != 12 {
		t.Errorf("three runs of BenchmarkSolve recorded as %+v, want the 100 ms one", got)
	}
	if got := rec.Current["BenchmarkKernel"]; got.NsPerOp != 4000 || got.BytesPerOp != 0 {
		t.Errorf("BenchmarkKernel without -benchmem columns recorded as %+v", got)
	}
	if rec.Gomaxprocs != 2 || rec.CPU != "Test CPU @ 2.00GHz" || rec.Pkg != "vodplace/internal/epf" || rec.NumCPU != runtime.NumCPU() {
		t.Errorf("header %+v", rec)
	}
	if rec.Baseline != nil || rec.Speedup != nil || rec.SpeedupSkipped != "" {
		t.Errorf("record without -baseline carries comparison fields: %+v", rec)
	}
}

func TestSameHostBaselineGivesRatios(t *testing.T) {
	rec, stderr := convert(t, benchText, sameHost(), false)
	if got := rec.Speedup["BenchmarkSolve"]; got != 2.5 {
		t.Errorf("speedup %v, want 250 ms / 100 ms = 2.5", got)
	}
	if len(rec.Speedup) != 1 {
		t.Errorf("speedups for benchmarks on one side only: %v", rec.Speedup)
	}
	if rec.SpeedupSkipped != "" || stderr != "" {
		t.Errorf("same-host comparison skipped (%q) or noted on stderr (%q)", rec.SpeedupSkipped, stderr)
	}
	if rec.Baseline["BenchmarkSolve"].NsPerOp != 250000000 {
		t.Errorf("baseline not carried over: %+v", rec.Baseline)
	}
}

func TestCrossHostBaselineSkipsRatios(t *testing.T) {
	for field, mutate := range map[string]func(*Record){
		"cpu":        func(r *Record) { r.CPU = "Other CPU @ 2.70GHz" },
		"numcpu":     func(r *Record) { r.NumCPU++ },
		"gomaxprocs": func(r *Record) { r.Gomaxprocs = 1 },
	} {
		base := sameHost()
		mutate(base)
		rec, stderr := convert(t, benchText, base, false)
		if rec.Speedup != nil {
			t.Errorf("%s differs: ratios across hosts emitted: %v", field, rec.Speedup)
		}
		if !strings.Contains(rec.SpeedupSkipped, field) || !strings.Contains(stderr, rec.SpeedupSkipped) {
			t.Errorf("%s differs: speedup_skipped %q, stderr %q", field, rec.SpeedupSkipped, stderr)
		}
		if rec.Baseline["BenchmarkSolve"].NsPerOp != 250000000 {
			t.Errorf("%s differs: the old numbers did not roll over: %+v", field, rec.Baseline)
		}
	}
}

func TestCoresKeepsSuffixes(t *testing.T) {
	const sweep = `cpu: Test CPU @ 2.00GHz
BenchmarkSolve     	       5	 400000000 ns/op
BenchmarkSolve-2   	      10	 250000000 ns/op
BenchmarkSolve-4   	      10	 100000000 ns/op
BenchmarkRound-up-2	      10	       100 ns/op
`
	rec, _ := convert(t, sweep, nil, true)
	for _, name := range []string{"BenchmarkSolve", "BenchmarkSolve-2", "BenchmarkSolve-4", "BenchmarkRound-up-2"} {
		if _, ok := rec.Current[name]; !ok {
			t.Errorf("-cores dropped or renamed %s: %v", name, rec.Current)
		}
	}
	if rec.SpeedupCores["BenchmarkSolve-2"] != 1.6 || rec.SpeedupCores["BenchmarkSolve-4"] != 4 || len(rec.SpeedupCores) != 2 {
		t.Errorf("speedup_vs_1cpu %v, want {-2: 1.6, -4: 4}", rec.SpeedupCores)
	}
	if rec.Gomaxprocs != 0 {
		t.Errorf("-cores record claims a uniform gomaxprocs %d", rec.Gomaxprocs)
	}
	// Outside -cores the suffix is a host detail, not part of the key.
	rec, _ = convert(t, sweep, nil, false)
	if _, ok := rec.Current["BenchmarkRound-up"]; !ok || len(rec.Current) != 2 || rec.Gomaxprocs != 4 {
		t.Errorf("suffixes not stripped: %v, gomaxprocs %d", rec.Current, rec.Gomaxprocs)
	}
}
