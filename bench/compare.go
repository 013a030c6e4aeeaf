package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// capturedRun is one run read back from captured output: its fingerprint
// line and the result line after it.
type capturedRun struct {
	fp      fingerprint
	metrics map[string]measured
	failed  int
}

// readRuns parses the captured standard output of any number of runs,
// concatenated. Lines that are not one of the two JSON lines are skipped.
func readRuns(r io.Reader) ([]capturedRun, error) {
	var runs []capturedRun
	var fp *fingerprint
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte(`{"fingerprint":`)):
			var fl fingerprintLine
			if err := json.Unmarshal(line, &fl); err != nil {
				return nil, fmt.Errorf("fingerprint line: %w", err)
			}
			fp = &fl.Fingerprint
		case bytes.HasPrefix(line, []byte(`{"correct":`)):
			var rl resultLine
			if err := json.Unmarshal(line, &rl); err != nil {
				return nil, fmt.Errorf("result line: %w", err)
			}
			if fp == nil {
				return nil, fmt.Errorf("result line without a fingerprint line before it")
			}
			runs = append(runs, capturedRun{*fp, rl.Metrics, rl.Failed})
			fp = nil
		}
	}
	return runs, sc.Err()
}

// Verdicts of one metric on one workload.
const (
	within     = "within"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// comparison is one row of the compare table.
type comparison struct {
	workload, metric, unit string
	a, b                   [3]float64 // first quartile, median, third quartile
	na, nb                 int
	// worse is how far b's median is on the wrong side of a's, as a share
	// of a's median; negative when b is better.
	worse   float64
	bound   float64
	verdict string
}

// judge compares the values of one end-to-end metric from two sets of runs.
// Worse by more than the bound is regressed. Otherwise, when either set's
// interquartile spread exceeds the bound, the pair is unresolved — not
// unchanged — unless every run of b reads better than every run of a.
func judge(spec metricSpec, a, b []float64) comparison {
	c := comparison{metric: spec.name, unit: spec.unit, bound: spec.bound, na: len(a), nb: len(b)}
	c.a, c.b = summary(a), summary(b)
	sign := 1.0 // lower is better: a rise is worse
	if spec.better == "higher" {
		sign = -1
	}
	c.worse = sign * ratio(c.b[1]-c.a[1], c.a[1])
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case c.worse > spec.bound:
		c.verdict = regressed
	case (spread(a) > spec.bound || spread(b) > spec.bound) && !allBetter:
		c.verdict = unresolved
	default:
		c.verdict = within
	}
	return c
}

func summary(xs []float64) [3]float64 {
	if len(xs) < 2 {
		m := median(xs)
		return [3]float64{m, m, m}
	}
	q1, q2, q3 := quartiles(xs)
	return [3]float64{q1, q2, q3}
}

// compareRuns judges every end-to-end metric on every workload both sets
// ran. It refuses when the sets were measured on different hosts: a ratio
// across hosts says nothing about the code.
func compareRuns(a, b []capturedRun) ([]comparison, error) {
	if len(a) == 0 || len(b) == 0 {
		return nil, fmt.Errorf("no runs to compare (%d and %d)", len(a), len(b))
	}
	for _, r := range append(a[1:len(a):len(a)], b...) {
		if !r.fp.sameHost(a[0].fp) {
			return nil, fmt.Errorf("hosts differ: %s vs %s", a[0].fp.host(), r.fp.host())
		}
	}
	values := func(runs []capturedRun, workload, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.metrics[metric]; ok && r.fp.Workload == workload && !r.fp.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var rows []comparison
	for _, w := range workloads {
		for _, spec := range endToEnd {
			va, vb := values(a, w.name, spec.name), values(b, w.name, spec.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := judge(spec, va, vb)
			c.workload = w.name
			rows = append(rows, c)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the two sets share no untraced workload")
	}
	return rows, nil
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2][]capturedRun
	for i, p := range []string{pathA, pathB} {
		f, err := os.Open(p)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		sets[i], err = readRuns(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", p, err)
			return 1
		}
	}
	rows, err := compareRuns(sets[0], sets[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "host: %s\n", sets[0][0].fp.host())
	fmt.Fprintf(stdout, "a: %s (commit %s)\nb: %s (commit %s)\n", pathA, sets[0][0].fp.Commit, pathB, sets[1][0].fp.Commit)
	fmt.Fprintf(stdout, "%-11s %-20s %-6s %3s %36s %3s %36s %8s %6s  %s\n",
		"workload", "metric", "unit", "n", "a: q1 / median / q3", "n", "b: q1 / median / q3", "worse", "bound", "verdict")
	code := 0
	for _, c := range rows {
		fmt.Fprintf(stdout, "%-11s %-20s %-6s %3d %36s %3d %36s %+7.1f%% %5.0f%%  %s\n",
			c.workload, c.metric, c.unit, c.na, triple(c.a), c.nb, triple(c.b), 100*c.worse, 100*c.bound, c.verdict)
		if c.verdict == regressed {
			code = 1
		}
	}
	failed := 0
	for _, r := range append(sets[0], sets[1]...) {
		failed += r.failed
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "%d operations failed across the runs compared\n", failed)
		code = 1
	}
	return code
}

func triple(q [3]float64) string {
	return fmt.Sprintf("%.4g / %.4g / %.4g", q[0], q[1], q[2])
}
