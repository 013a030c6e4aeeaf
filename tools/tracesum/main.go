// Command tracesum reduces a JSONL telemetry trace (produced by the
// -trace-out flag of vodplace/vodexp/vodserved) to a convergence summary: the
// per-pass series of every EPF stream rendered as a table or CSV, per-bin
// simulator streams condensed to totals, and — under -check — a
// monotonicity audit of the bound series (the lower bound may only rise,
// the duality gap may only fall; a violation means the solver lied about a
// bound and the trace is evidence).
//
// Usage:
//
//	tracesum [-csv] [-check] [trace.jsonl]
//
// With no file argument the trace is read from stdin. Output contains only
// deterministic event fields (wall-time stamps are dropped), so a
// fixed-seed trace summarizes bit-identically at any worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"vodplace/internal/obs"
)

func main() {
	var (
		csv   = flag.Bool("csv", false, "emit the per-pass EPF series as CSV instead of a table")
		check = flag.Bool("check", false, "exit nonzero when a bound series is non-monotone")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracesum: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	events, err := obs.ParseTrace(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracesum: %v\n", err)
		os.Exit(1)
	}
	sum := summarize(events)
	if *csv {
		sum.writeCSV(os.Stdout)
	} else {
		sum.writeTable(os.Stdout)
	}
	if *check {
		if bad := sum.monotoneViolations(); len(bad) > 0 {
			for _, m := range bad {
				fmt.Fprintf(os.Stderr, "tracesum: %s\n", m)
			}
			os.Exit(1)
		}
	}
}

// epfStream is one solver stream's pass series plus its optional summary.
type epfStream struct {
	name   string
	passes []obs.Event
	done   *obs.Event
	spans  []obs.Event
}

// simStream is one simulator stream's bin series.
type simStream struct {
	name   string
	slices []obs.Event
}

// summary is everything tracesum derives from a trace.
type summary struct {
	epf []*epfStream
	sim []*simStream
}

// summarize groups the events by stream, preserving first-appearance order
// so output order is as deterministic as the trace itself.
func summarize(events []obs.Event) *summary {
	s := &summary{}
	epfIdx := map[string]*epfStream{}
	simIdx := map[string]*simStream{}
	epfFor := func(name string) *epfStream {
		st, ok := epfIdx[name]
		if !ok {
			st = &epfStream{name: name}
			epfIdx[name] = st
			s.epf = append(s.epf, st)
		}
		return st
	}
	for i := range events {
		e := events[i]
		switch e.K {
		case "epf_pass":
			epfFor(e.Stream).passes = append(epfFor(e.Stream).passes, e)
		case "epf_done":
			ec := e
			epfFor(e.Stream).done = &ec
		case "span":
			epfFor(e.Stream).spans = append(epfFor(e.Stream).spans, e)
		case "sim_slice":
			st, ok := simIdx[e.Stream]
			if !ok {
				st = &simStream{name: e.Stream}
				simIdx[e.Stream] = st
				s.sim = append(s.sim, st)
			}
			st.slices = append(st.slices, e)
		}
	}
	return s
}

func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeCSV emits every EPF pass event as one CSV row. Only deterministic
// fields appear (no ms column).
func (s *summary) writeCSV(w io.Writer) {
	fmt.Fprintln(w, "stream,pass,phi,obj,lb,ub,gap,ubgap,viol,lmax,lmean,delta,blocks,warm")
	for _, st := range s.epf {
		for _, e := range st.passes {
			fmt.Fprintf(w, "%s,%d,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%d,%d\n",
				csvEscape(st.name), e.Pass, g(e.Phi), g(e.Objective), g(e.LowerBound), g(e.UpperBound),
				g(e.Gap), g(e.UBGap), g(e.MaxViol), g(e.MaxLinkUtil), g(e.MeanLinkUtil), g(e.Delta),
				e.Blocks, e.WarmHits)
		}
	}
}

func csvEscape(v string) string {
	if !strings.ContainsAny(v, ",\"\n") {
		return v
	}
	return `"` + strings.ReplaceAll(v, `"`, `""`) + `"`
}

// writeTable renders the human summary: per-stream pass rows in the shared
// console format, the convergence endpoint, the monotonicity verdicts and
// the simulator stream totals.
func (s *summary) writeTable(w io.Writer) {
	for _, st := range s.epf {
		if len(st.passes) == 0 && st.done == nil {
			continue
		}
		fmt.Fprintf(w, "== %s ==\n", st.name)
		for _, e := range st.passes {
			fmt.Fprintln(w, obs.PassRow(e.Pass, e.Objective, e.LowerBound, e.MaxViol))
		}
		if n := len(st.passes); n > 0 {
			last := st.passes[n-1]
			fmt.Fprintf(w, "passes %d  final obj %.1f  lb %.1f  gap %.2f%%", n, last.Objective, last.LowerBound, 100*last.Gap)
			if last.UBGap >= 0 {
				fmt.Fprintf(w, "  duality gap %.2f%%", 100*last.UBGap)
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "lower bound monotone nondecreasing: %v\n", monotoneLB(st.passes) == "")
			fmt.Fprintf(w, "duality gap monotone nonincreasing: %v\n", monotoneUBGap(st.passes) == "")
		}
		if d := st.done; d != nil {
			fmt.Fprintf(w, "done: passes %d  obj %.1f  lb %.1f  gap %.2f%%  converged %v  rounded %v\n",
				d.Passes, d.Objective, d.LowerBound, 100*d.Gap, d.Converged, d.Rounded)
		}
		fmt.Fprintln(w)
	}
	s.writePassTrends(w)
	for _, st := range s.sim {
		if len(st.slices) == 0 {
			continue
		}
		var peak, util, gbhop float64
		var req, remote, evict int
		for _, e := range st.slices {
			if e.PeakMbps > peak {
				peak = e.PeakMbps
			}
			if e.MaxUtil > util {
				util = e.MaxUtil
			}
			gbhop += e.GBHop
			req += e.Requests
			remote += e.RemoteServed
			evict += e.Evictions
		}
		local := 0.0
		if req > 0 {
			local = float64(req-remote) / float64(req)
		}
		fmt.Fprintf(w, "== sim %s ==\n", st.name)
		fmt.Fprintf(w, "bins %d  peak %.0f Mb/s  max util %.3f  total %.0f GBxhop  requests %d  local %.2f%%  evictions %d\n\n",
			len(st.slices), peak, util, gbhop, req, 100*local, evict)
	}
}

// dayStream splits a per-period stream name ("mip.day07") into its scheme
// prefix and day label. Streams without the suffix are not part of a
// multi-period pipeline and produce no trend row.
func dayStream(name string) (prefix, day string, ok bool) {
	i := strings.LastIndex(name, ".day")
	if i < 0 {
		return "", "", false
	}
	day = name[i+len(".day"):]
	if day == "" {
		return "", "", false
	}
	for _, c := range day {
		if c < '0' || c > '9' {
			return "", "", false
		}
	}
	return name[:i], day, true
}

// streamPasses is the stream's pass count: the solver's own final count when
// the stream carries a done event, the number of pass events otherwise (a
// truncated trace).
func streamPasses(st *epfStream) int {
	if st.done != nil {
		return st.done.Passes
	}
	return len(st.passes)
}

// writePassTrends renders one trend block per multi-period scheme: the
// per-day pass counts in day order plus the first/last/total line that shows
// at a glance whether convergence effort shrinks across periods — the
// headline signal for cross-period warm starts. Traces without day-grouped
// streams (single solves) produce no output here, keeping their summaries
// byte-identical.
func (s *summary) writePassTrends(w io.Writer) {
	type trend struct {
		prefix  string
		streams []*epfStream
	}
	var trends []*trend
	idx := map[string]*trend{}
	for _, st := range s.epf {
		prefix, _, ok := dayStream(st.name)
		if !ok || (len(st.passes) == 0 && st.done == nil) {
			continue
		}
		tr, seen := idx[prefix]
		if !seen {
			tr = &trend{prefix: prefix}
			idx[prefix] = tr
			trends = append(trends, tr)
		}
		tr.streams = append(tr.streams, st)
	}
	for _, tr := range trends {
		// Streams appear in solve order, which is day order by construction;
		// sort by day label anyway so a merged trace still reads correctly.
		sort.SliceStable(tr.streams, func(a, b int) bool {
			_, da, _ := dayStream(tr.streams[a].name)
			_, db, _ := dayStream(tr.streams[b].name)
			return da < db
		})
		fmt.Fprintf(w, "== passes trend: %s ==\n", tr.prefix)
		total := 0
		for _, st := range tr.streams {
			_, day, _ := dayStream(st.name)
			p := streamPasses(st)
			total += p
			fmt.Fprintf(w, "day %s  passes %3d", day, p)
			if st.done != nil {
				fmt.Fprintf(w, "  converged %v", st.done.Converged)
			}
			fmt.Fprintln(w)
		}
		first := streamPasses(tr.streams[0])
		last := streamPasses(tr.streams[len(tr.streams)-1])
		fmt.Fprintf(w, "first %d  last %d  total %d\n\n", first, last, total)
	}
}

// relTol is the relative slack the monotonicity audit allows: bound updates
// inside the solver use exact comparisons, so anything beyond float noise
// is a genuine regression.
const relTol = 1e-9

// monotoneLB returns "" when the stream's lower bound never decreases, else
// a description of the first violation.
func monotoneLB(passes []obs.Event) string {
	for i := 1; i < len(passes); i++ {
		prev, cur := passes[i-1].LowerBound, passes[i].LowerBound
		if cur < prev-relTol*math.Abs(prev) {
			return fmt.Sprintf("lower bound fell %s -> %s at pass %d", g(prev), g(cur), passes[i].Pass)
		}
	}
	return ""
}

// monotoneUBGap returns "" when the duality-gap series never rises over the
// suffix where it is defined (≥ 0; −1 encodes "no incumbent yet", and an
// incumbent never disappears once found).
func monotoneUBGap(passes []obs.Event) string {
	started := false
	var prev float64
	for i := range passes {
		cur := passes[i].UBGap
		if cur < 0 {
			if started {
				return fmt.Sprintf("duality gap became undefined at pass %d after being defined", passes[i].Pass)
			}
			continue
		}
		if started && cur > prev+relTol*math.Abs(prev) {
			return fmt.Sprintf("duality gap rose %s -> %s at pass %d", g(prev), g(cur), passes[i].Pass)
		}
		started = true
		prev = cur
	}
	return ""
}

// monotoneViolations audits every EPF stream and returns one message per
// violated series, in stream order (stable across runs).
func (s *summary) monotoneViolations() []string {
	var out []string
	for _, st := range s.epf {
		if m := monotoneLB(st.passes); m != "" {
			out = append(out, st.name+": "+m)
		}
		if m := monotoneUBGap(st.passes); m != "" {
			out = append(out, st.name+": "+m)
		}
	}
	sort.Strings(out)
	return out
}
