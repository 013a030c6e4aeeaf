// Command bench is the repository's benchmark: it builds the placement
// pipeline in-process exactly as cmd/vodserved does (trace -> demand ->
// mip.Instance -> epf solve -> verify.Audit -> serve snapshot -> net/http on
// a loopback socket), drives it over real sockets, checks every answer
// against an oracle, and prints every metric by name, unit, direction and
// bound. Layers are measured from outside: by timing calls into their
// public functions and reading what those calls return.
//
// Usage, from the repository root (README.md has the tables):
//
//	bash bench/run.sh --workload steady-hot --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload steady-hot --seed 1 --seconds 20 --trace 1 --spans spans.jsonl
//	bash bench/run.sh --compare parent.out change.out
//	bash bench/run.sh --selfcheck
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. A run with failed operations prints its
// metrics and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workload to run: steady-hot, mixed-wide or cold-scale")
		seed      = fs.Int64("seed", 1, "traffic seed: the order of the /route stream")
		updSeed   = fs.Int64("update-seed", instanceSeed, "seed of the demand updates; the default is the one every bounded run uses")
		seconds   = fs.Float64("seconds", 25, "length of the measured traffic window on the reference host")
		trace     = fs.Int("trace", 0, "1 records spans, replays every resolve and reports the per-layer metrics")
		spansOut  = fs.String("spans", "", "with --trace 1, write the spans to this file as JSON lines")
		compare   = fs.Bool("compare", false, "compare two files of captured runs: bench --compare parent.out change.out")
		selfcheck = fs.Bool("selfcheck", false, "run a small churn workload twice and fail unless every exact count repeats")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare takes two files of captured runs")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *selfcheck:
		return selfCheck(stdout, stderr)
	}
	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q; the workloads are:\n", *workload)
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-11s %s\n", w.name, w.why)
		}
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	res, err := runWorkload(w, *seed, *updSeed, *seconds, tr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if *spansOut != "" && tr != nil {
		if err := writeSpans(*spansOut, res.spans); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	fp := hostFingerprint()
	fp.Workload, fp.Seed, fp.Seconds, fp.Trace = w.name, *seed, *seconds, tr != nil
	fp.WallS = time.Since(processStart).Seconds()
	if err := report(stdout, fp, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "bench: failed: %s\n", f)
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// measured is one metric value as the result line carries it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's output. Its keys are fixed by the
// benchmark contract.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// fingerprintLine precedes the result line, so that captured output can be
// compared later without the result line growing a key.
type fingerprintLine struct {
	Fingerprint fingerprint `json:"fingerprint"`
}

// report prints the metrics as a table, then the fingerprint line, then the
// result line. A metric the specification names but the run did not produce
// is an error: the driver expects every one.
func report(out io.Writer, fp fingerprint, res *result) error {
	specs, values := endToEnd, res.endToEnd
	if fp.Trace {
		specs, values = perLayer, res.perLayer
	}
	line := resultLine{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]measured, len(specs)),
	}
	fmt.Fprintf(out, "workload %s, seed %d, %.0f s, trace %v, on %s, commit %s\n",
		fp.Workload, fp.Seed, fp.Seconds, fp.Trace, fp.host(), fp.Commit)
	fmt.Fprintf(out, "%-28s %16s %-6s %-7s %s\n", "metric", "value", "unit", "better", "bound")
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		line.Metrics[s.name] = measured{v, s.unit}
		bound := "-"
		if s.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*s.bound)
		}
		fmt.Fprintf(out, "%-28s %16.4f %-6s %-7s %s\n", s.name, v, s.unit, s.better, bound)
	}
	fmt.Fprintf(out, "route samples %d in %d windows of %s, of which the host left %d alone (p99 supported over those: %v)\n",
		res.route.samples, res.route.windows, routeWindow, res.route.kept,
		highestSupported(res.route.kept*res.route.samples/max(res.route.windows, 1)) >= 0.99)
	fmt.Fprintf(out, "rounds swapped %d, d2s ms %.0f\n", len(res.d2sMS), res.d2sMS)
	if fp.Trace {
		fmt.Fprintln(out, "span self time by name, ms:")
		self := selfByName(res.spans)
		for _, name := range spanOrder(res.spans) {
			fmt.Fprintf(out, "  %-28s %12.3f\n", name, self[name])
		}
	}
	fmt.Fprintf(out, "ops_attempted %d, ops_failed %d, wall %.1f s\n", res.attempted, res.failed, fp.WallS)
	enc := json.NewEncoder(out)
	if err := enc.Encode(fingerprintLine{fp}); err != nil {
		return err
	}
	return enc.Encode(line)
}

// spanOrder lists span names in order of first appearance.
func spanOrder(spans []span) []string {
	var names []string
	seen := make(map[string]bool)
	for i := range spans {
		if !seen[spans[i].Name] {
			seen[spans[i].Name] = true
			names = append(names, spans[i].Name)
		}
	}
	return names
}
