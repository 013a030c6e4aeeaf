// Command benchjson converts `go test -bench` text output into the JSON
// benchmark record committed as BENCH_epf.json.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/epf/ | go run ./tools/benchjson
//	go test ... | go run ./tools/benchjson -baseline BENCH_epf.json
//
// With -baseline, the named file's "current" section is carried over as the
// new record's "baseline", so re-running `make bench-json` after an
// optimization automatically turns the previous numbers into the comparison
// point and reports the speedup per benchmark — but only when the baseline
// was recorded on the same host shape (cpu, numcpu, gomaxprocs). Otherwise a
// ratio would compare machines, not code: the record carries no "speedup"
// map, "speedup_skipped" says which field differed, and so does stderr.
//
// Every record carries the host parallelism it was measured under (numcpu
// and the uniform gomaxprocs of the run), so committed numbers are honest
// about how many cores they had to scale across.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line: go test prints
// "BenchmarkName-8  12  212022615 ns/op  3804413 B/op  144746 allocs/op".
type Result struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Record is the committed file layout: environment header, the run being
// recorded, an optional baseline to compare against, and the derived
// speedups (baseline ns/op divided by current ns/op).
type Record struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	NumCPU int    `json:"numcpu,omitempty"`
	// Gomaxprocs is the uniform GOMAXPROCS of the run, inferred from the
	// benchmark-name suffixes.
	Gomaxprocs int                `json:"gomaxprocs,omitempty"`
	Current    map[string]Result  `json:"current"`
	Baseline   map[string]Result  `json:"baseline,omitempty"`
	Speedup    map[string]float64 `json:"speedup,omitempty"`
	// SpeedupSkipped, when set, is why Speedup is absent although a baseline
	// was carried over: the two records come from different hosts.
	SpeedupSkipped string `json:"speedup_skipped,omitempty"`
}

func main() {
	baselinePath := flag.String("baseline", "", "JSON record whose 'current' section becomes this record's baseline")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, os.Stderr, *baselinePath); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// run converts the `go test -bench` text on in into one JSON record on out;
// notes that are not errors go to errw.
func run(in io.Reader, out, errw io.Writer, baselinePath string) error {
	rec := Record{Current: map[string]Result{}, NumCPU: runtime.NumCPU()}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rec.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rec.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			// One record may cover several packages (BENCH_epf.json: the
			// solver and the facloc kernels under it); name them all.
			rec.Pkg = strings.TrimSpace(rec.Pkg + " " + strings.TrimSpace(strings.TrimPrefix(line, "pkg:")))
		case strings.HasPrefix(line, "cpu:"):
			rec.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			name, procs, res, ok := parseLine(line)
			if !ok {
				continue
			}
			if procs > rec.Gomaxprocs {
				rec.Gomaxprocs = procs
			}
			// -count N repeats a benchmark; keep the fastest run, the
			// standard way to suppress scheduling noise.
			if prev, dup := rec.Current[name]; !dup || res.NsPerOp < prev.NsPerOp {
				rec.Current[name] = res
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rec.Current) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}

	if baselinePath != "" {
		data, err := os.ReadFile(baselinePath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// First run for a new record file: nothing to carry over yet.
			fmt.Fprintf(errw, "benchjson: %s does not exist yet; emitting a record without a baseline\n", baselinePath)
		case err != nil:
			return err
		default:
			var prev Record
			if err := json.Unmarshal(data, &prev); err != nil {
				return fmt.Errorf("%s: %w", baselinePath, err)
			}
			rec.Baseline = prev.Current
			rec.SpeedupSkipped = hostMismatch(&prev, &rec)
		}
	}
	if rec.SpeedupSkipped != "" {
		fmt.Fprintf(errw, "benchjson: no speedups against %s: %s\n", baselinePath, rec.SpeedupSkipped)
	} else if len(rec.Baseline) > 0 {
		rec.Speedup = map[string]float64{}
		for name, cur := range rec.Current {
			if base, ok := rec.Baseline[name]; ok && cur.NsPerOp > 0 {
				rec.Speedup[name] = round2(base.NsPerOp / cur.NsPerOp)
			}
		}
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}

// hostMismatch names the host field on which the baseline record and this
// run differ, or "" when both were taken on the same host shape.
func hostMismatch(prev, cur *Record) string {
	switch {
	case prev.CPU != cur.CPU:
		return fmt.Sprintf("baseline cpu %q, this run %q", prev.CPU, cur.CPU)
	case prev.NumCPU != cur.NumCPU:
		return fmt.Sprintf("baseline numcpu %d, this run %d", prev.NumCPU, cur.NumCPU)
	case prev.Gomaxprocs != cur.Gomaxprocs:
		return fmt.Sprintf("baseline gomaxprocs %d, this run %d", prev.Gomaxprocs, cur.Gomaxprocs)
	}
	return ""
}

// round2 keeps committed ratios at two decimals; full float64 ratios churn
// the file on every noise-level rerun.
func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// parseLine splits one benchmark result row. The -benchmem columns are
// optional. The name's "-8" GOMAXPROCS suffix is stripped (and returned) so
// records taken on different machines stay comparable keys. A suffixless
// line ran at GOMAXPROCS=1.
func parseLine(line string) (string, int, Result, bool) {
	f := strings.Fields(line)
	if len(f) < 3 {
		return "", 0, Result{}, false
	}
	name, procs := f[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.Atoi(f[1])
	if err != nil {
		return "", 0, Result{}, false
	}
	res := Result{Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			res.NsPerOp, err = strconv.ParseFloat(val, 64)
		case "B/op":
			res.BytesPerOp, err = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			res.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
		}
		if err != nil {
			return "", 0, Result{}, false
		}
	}
	return name, procs, res, true
}
