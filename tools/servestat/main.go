// Command servestat reduces a serving-plane telemetry trace (produced by
// vodserved's -trace-out flag) to an operational summary: the re-solve
// ledger with verdicts, timing breakdowns and the delta-resolve economy
// (dirty videos, route rows rebuilt), the snapshot swap timeline with
// route churn, rebuilt/total rows and the delta fraction, and the
// demand-stream totals. With -metrics it additionally reads a scraped
// Prometheus /metrics snapshot and reports the server-side per-endpoint
// latency quantiles. Under -check it audits the trace's lifecycle
// invariants — swap versions strictly monotone, every swap covered by a
// swapped (audit-passing) resolve, start/done events properly bracketed,
// rebuilt row counts within the table — and exits nonzero on any
// violation: the serving plane promises these properties, so a violating
// trace is evidence of a bug. -expect-delta additionally requires that at
// least one swap was built incrementally (rebuilt < rows) — the smoke
// tests' proof that the delta resolve path actually fired.
//
// Usage:
//
//	servestat [-check] [-expect-delta] [-metrics snapshot.prom] [trace.jsonl]
//
// With no file argument the trace is read from stdin, unless -metrics is
// given alone (a metrics-only report). Output is deterministic for a fixed
// input, so fixture traces summarize byte-identically (the golden tests'
// contract). It is tracesum's sibling: tracesum reads the solver side of a
// trace, servestat the serving side; both ignore the other's event kinds,
// so one file serves both.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"vodplace/internal/obs"
)

func main() {
	var (
		check       = flag.Bool("check", false, "exit nonzero when a lifecycle invariant is violated")
		expectDelta = flag.Bool("expect-delta", false, "with -check, require at least one incrementally-built swap (rows rebuilt < catalog rows)")
		metrics     = flag.String("metrics", "", "Prometheus /metrics snapshot to report latency quantiles from")
	)
	flag.Parse()

	var events []obs.Event
	readTrace := flag.NArg() > 0 || *metrics == ""
	if readTrace {
		var in io.Reader = os.Stdin
		if flag.NArg() > 0 {
			f, err := os.Open(flag.Arg(0))
			if err != nil {
				fmt.Fprintf(os.Stderr, "servestat: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			in = f
		}
		var err error
		events, err = obs.ParseTrace(in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servestat: %v\n", err)
			os.Exit(1)
		}
	}
	var samples []obs.PromSample
	if *metrics != "" {
		f, err := os.Open(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servestat: %v\n", err)
			os.Exit(1)
		}
		samples, err = obs.ParseProm(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "servestat: %v\n", err)
			os.Exit(1)
		}
	}

	sum := summarize(events)
	sum.writeTable(os.Stdout)
	if err := writeLatency(os.Stdout, samples); err != nil {
		fmt.Fprintf(os.Stderr, "servestat: %v\n", err)
		os.Exit(1)
	}
	if *check {
		bad := violations(events)
		if *expectDelta && !hasIncrementalSwap(events) {
			bad = append(bad, "no incremental swap in trace (every snapshot build recomputed the full route table)")
		}
		if len(bad) > 0 {
			for _, m := range bad {
				fmt.Fprintf(os.Stderr, "servestat: %s\n", m)
			}
			os.Exit(1)
		}
	}
}

// summary is everything servestat derives from the serving events of a
// trace, in emission order.
type summary struct {
	resolves []obs.Event // serve_resolve done events
	swaps    []obs.Event // serve_swap events
	demands  []obs.Event // serve_demand events
}

func summarize(events []obs.Event) *summary {
	s := &summary{}
	for i := range events {
		e := events[i]
		switch e.K {
		case "serve_resolve":
			if e.Phase == "done" {
				s.resolves = append(s.resolves, e)
			}
		case "serve_swap":
			s.swaps = append(s.swaps, e)
		case "serve_demand":
			s.demands = append(s.demands, e)
		}
	}
	return s
}

func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ms renders a duration in nanoseconds as milliseconds with 6 significant
// digits — enough for any bucket edge.
func ms(ns int64) string { return strconv.FormatFloat(float64(ns)/1e6, 'g', 6, 64) }

// g6 renders a computed float (a TMS difference) with 6 significant
// digits, hiding subtraction artifacts the exact rendering would show.
func g6(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// quantile returns the q-th element of sorted (the conservative upper
// order statistic, matching the histogram convention everywhere else).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// writeTable renders the serving summary. Every line is a pure function of
// the input events, so fixed fixtures render byte-identically.
func (s *summary) writeTable(w io.Writer) {
	if len(s.resolves) > 0 {
		fmt.Fprintln(w, "== resolves ==")
		counts := map[string]int{}
		for _, e := range s.resolves {
			counts[e.Verdict]++
			fmt.Fprintf(w, "v%d  %s  %s  passes %d  warm %.0f%%", e.Version, e.Trigger, e.Verdict, e.Passes, 100*e.WarmFrac)
			// Resumed column only when the solve resumed anything — traces
			// from before the LP point was carried render exactly as before.
			if e.ResumedFrac > 0 {
				fmt.Fprintf(w, "  resumed %.0f%%", 100*e.ResumedFrac)
			}
			fmt.Fprintf(w, "  solve %s ms", g(e.SolveMS))
			// Phase split only when the attempt carried it — traces from
			// before the solve reported its phases render exactly as before.
			if e.LPMS > 0 || e.RoundMS > 0 {
				fmt.Fprintf(w, " (lp %s", g(e.LPMS))
				if e.LBMS > 0 {
					fmt.Fprintf(w, " [bound %s]", g(e.LBMS))
				}
				fmt.Fprintf(w, "  round %s)", g(e.RoundMS))
			}
			// Which rounding ran, at which incumbent/bound ratio and — when a
			// resume was tried — against which reference; only on attempts
			// that say, so older traces render exactly as before.
			if e.Round != "" {
				fmt.Fprintf(w, "  rounding %s %.4f", e.Round, e.RoundRatio)
				if e.RoundRef > 0 {
					fmt.Fprintf(w, "/%.4f", e.RoundRef)
				}
			}
			fmt.Fprintf(w, "  audit %s ms  build %s ms", g(e.AuditMS), g(e.BuildMS))
			// Delta columns only when the attempt carried them — pre-delta
			// traces render exactly as before.
			if e.Dirty > 0 || e.Rebuilt > 0 {
				fmt.Fprintf(w, "  dirty %d  rebuilt %d", e.Dirty, e.Rebuilt)
			}
			if e.Reason != "" {
				fmt.Fprintf(w, "  reason: %s", e.Reason)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "verdicts: swapped %d  audit_rejected %d  unconverged %d  cancelled %d  failed %d\n\n",
			counts["swapped"], counts["audit_rejected"], counts["unconverged"],
			counts["cancelled"], counts["failed"])
	}
	if len(s.swaps) > 0 {
		fmt.Fprintln(w, "== swaps ==")
		var churn int64
		var lifetimes []float64
		prev := 0.0
		for _, e := range s.swaps {
			life := e.TMS - prev
			prev = e.TMS
			lifetimes = append(lifetimes, life)
			churn += e.RDelta
			fmt.Fprintf(w, "v%d  routes changed %d", e.Version, e.RDelta)
			// Rows is zero in pre-delta traces; those timelines render
			// exactly as before.
			if e.Rows > 0 {
				fmt.Fprintf(w, "  rebuilt %d/%d rows  delta %s",
					e.Rebuilt, e.Rows, g6(float64(e.Rebuilt)/float64(e.Rows)))
			}
			fmt.Fprintf(w, "  build %s ms  after %s ms\n", g(e.BuildMS), g6(life))
		}
		sort.Float64s(lifetimes)
		fmt.Fprintf(w, "swaps %d  route churn %d  lifetime ms: p50 %s  p90 %s  max %s\n\n",
			len(s.swaps), churn,
			g6(quantile(lifetimes, 0.50)), g6(quantile(lifetimes, 0.90)),
			g6(lifetimes[len(lifetimes)-1]))
	}
	if len(s.demands) > 0 {
		var entries int
		for _, e := range s.demands {
			entries += e.Batch
		}
		last := s.demands[len(s.demands)-1]
		fmt.Fprintln(w, "== demand ==")
		fmt.Fprintf(w, "batches %d  entries %d  last drift %s\n\n", len(s.demands), entries, g(last.Drift))
	}
}

// writeLatency reports the server-side request instruments from a scraped
// /metrics snapshot: per-endpoint status-class counts and latency
// quantiles, endpoints in sorted order.
func writeLatency(w io.Writer, samples []obs.PromSample) error {
	if len(samples) == 0 {
		return nil
	}
	type endpoint struct {
		classes map[string]float64
	}
	byName := map[string]*endpoint{}
	var names []string
	for _, sm := range samples {
		if sm.Name != obs.PromReqTotalName {
			continue
		}
		name := sm.Labels["endpoint"]
		ep, ok := byName[name]
		if !ok {
			ep = &endpoint{classes: map[string]float64{}}
			byName[name] = ep
			names = append(names, name)
		}
		ep.classes[sm.Labels["code"]] += sm.Value
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	fmt.Fprintln(w, "== latency (server) ==")
	for _, name := range names {
		ep := byName[name]
		var total float64
		for _, v := range ep.classes {
			total += v
		}
		fmt.Fprintf(w, "%-10s requests %.0f  2xx %.0f  4xx %.0f  5xx %.0f",
			name, total, ep.classes["2xx"], ep.classes["4xx"], ep.classes["5xx"])
		h, err := obs.HistFromProm(samples, obs.PromReqDurName, map[string]string{"endpoint": name}, 1e9)
		if err != nil {
			return err
		}
		if h.Count > 0 {
			fmt.Fprintf(w, "  p50 %s ms  p90 %s ms  p99 %s ms",
				ms(h.Quantile(0.50)), ms(h.Quantile(0.90)), ms(h.Quantile(0.99)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}

// violations audits the lifecycle invariants of a serving trace:
//
//  1. serve_swap versions are strictly increasing (the snapshot sequence
//     is monotone by construction — a repeat or regression means the store
//     published out of order).
//  2. every serve_swap is covered by a passing audit: a serve_resolve
//     start with the same version must precede it, and a serve_resolve
//     done with verdict "swapped" and the same version must exist (the
//     daemon emits it right after the swap; its absence means the trace
//     stopped mid-publication or the gate was bypassed).
//  3. resolve events bracket properly: one open attempt at a time, no done
//     without a start, no start left open at end of trace.
//  4. a swap's delta economy is coherent: when it reports a table size
//     (rows > 0, i.e. a post-delta trace), the rebuilt count must lie in
//     [0, rows] — a count outside the table means the incremental builder
//     miscounted its work.
//
// Messages are returned in trace order, deterministically.
func violations(events []obs.Event) []string {
	var out []string
	// Pass 1: collect swapped-verdict versions (invariant 2 looks forward).
	swappedDone := map[int64]bool{}
	for i := range events {
		if events[i].K == "serve_resolve" && events[i].Phase == "done" && events[i].Verdict == "swapped" {
			swappedDone[events[i].Version] = true
		}
	}
	var lastSwap int64
	haveSwap := false
	startSeen := map[int64]bool{}
	var open int64
	haveOpen := false
	for i := range events {
		e := events[i]
		switch e.K {
		case "serve_resolve":
			switch e.Phase {
			case "start":
				if haveOpen {
					out = append(out, fmt.Sprintf("resolve start v%d while v%d still open", e.Version, open))
				}
				open, haveOpen = e.Version, true
				startSeen[e.Version] = true
			case "done":
				if !haveOpen {
					out = append(out, fmt.Sprintf("resolve done v%d (%s) without a matching start", e.Version, e.Verdict))
				} else if open != e.Version {
					out = append(out, fmt.Sprintf("resolve done v%d (%s) closes start v%d", e.Version, e.Verdict, open))
				}
				haveOpen = false
			}
		case "serve_swap":
			if haveSwap && e.Version <= lastSwap {
				out = append(out, fmt.Sprintf("swap version not strictly increasing: v%d after v%d", e.Version, lastSwap))
			}
			lastSwap, haveSwap = e.Version, true
			if !startSeen[e.Version] {
				out = append(out, fmt.Sprintf("swap v%d without a preceding resolve start", e.Version))
			}
			if !swappedDone[e.Version] {
				out = append(out, fmt.Sprintf("swap v%d without a swapped resolve verdict (audit gate bypassed?)", e.Version))
			}
			if e.Rows > 0 && (e.Rebuilt < 0 || e.Rebuilt > e.Rows) {
				out = append(out, fmt.Sprintf("swap v%d rebuilt %d of %d route rows (count outside the table)", e.Version, e.Rebuilt, e.Rows))
			}
		}
	}
	if haveOpen {
		out = append(out, fmt.Sprintf("resolve start v%d never completed", open))
	}
	return out
}

// hasIncrementalSwap reports whether any swap in the trace was built
// incrementally — it reports a table size and recomputed strictly fewer
// rows than it. The -expect-delta check, used by the serve smoke test to
// assert the delta resolve path actually fired.
func hasIncrementalSwap(events []obs.Event) bool {
	for i := range events {
		e := events[i]
		if e.K == "serve_swap" && e.Rows > 0 && e.Rebuilt < e.Rows {
			return true
		}
	}
	return false
}
