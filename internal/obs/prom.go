package obs

import (
	"bufio"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// This file is the repo's dependency-free Prometheus integration: a
// text-format (version 0.0.4) writer over the Metrics registry and the
// ReqStat request instruments, and the minimal parser the consumers
// (vodload, servestat) use to read a scraped snapshot back. The format is
// hand-rolled for the same reason the JSONL tracer is: the module is
// stdlib-only by design, the subset we emit is tiny, and a deterministic
// byte-exact rendering (sorted families, fixed label order, shortest
// round-trip floats) is what lets CI pin the exposition with a golden.

// promContentType is the exposition content type scrapers expect.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName sanitizes an instrument name into the Prometheus name charset
// [a-zA-Z0-9_:]: every other byte (the registry's "." separators) becomes
// "_", and a leading digit gains a "_" prefix.
func PromName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if i == 0 && c >= '0' && c <= '9' {
			b.WriteByte('_')
		}
		if ok {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float in the shortest round-trip form ('g', like the
// rest of the telemetry layer) so expositions are byte-deterministic.
func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every instrument of the registry in text format:
// counters (expvar.Int), gauges (expvar.Float and the read-time GaugeFunc)
// and histograms (cumulative _bucket/_sum/_count series with power-of-two le
// edges). Families are emitted in sorted sanitized-name order, so a fixed
// registry renders byte-identically — the property the exposition golden
// test pins.
func (m *Metrics) WritePrometheus(w io.Writer) {
	if m == nil {
		return
	}
	type family struct {
		name string
		v    expvar.Var
	}
	var fams []family
	m.vars.Do(func(kv expvar.KeyValue) {
		fams = append(fams, family{PromName(kv.Key), kv.Value})
	})
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })
	bw := bufio.NewWriter(w)
	defer bw.Flush() //nolint:errcheck // exposition best-effort, like expvar
	for _, fam := range fams {
		switch v := fam.v.(type) {
		case *expvar.Int:
			fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", fam.name, fam.name, v.Value())
		case *expvar.Float:
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", fam.name, fam.name, promFloat(v.Value()))
		case expvar.Func:
			if f, ok := v.Value().(float64); ok {
				fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", fam.name, fam.name, promFloat(f))
			}
		case *Histogram:
			fmt.Fprintf(bw, "# TYPE %s histogram\n", fam.name)
			v.Snapshot().writeProm(bw, fam.name, "", v.per)
		}
	}
}

// writeProm emits one histogram family body in the exposed unit (see Hist
// for per): cumulative _bucket series over the non-empty buckets plus the
// mandatory le="+Inf", then _sum and _count. labels, when non-empty, is the
// rendered shared label set without braces (e.g. `endpoint="route"`).
func (h Hist) writeProm(w io.Writer, name, labels string, per float64) {
	sep, braced := "", ""
	if labels != "" {
		sep, braced = ",", "{"+labels+"}"
	}
	var cum int64
	for b, c := range h.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, promFloat(float64(upperBound(b))/per), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced, promFloat(float64(h.Sum)/per))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced, h.Count)
}

// Request-instrument family names. The duration histogram observes
// nanoseconds internally and exposes seconds, the Prometheus base-unit
// convention.
const (
	PromReqTotalName = "vod_http_requests_total"
	PromReqDurName   = "vod_http_request_duration_seconds"
)

// WriteReqProm renders the request instruments: one counter series per
// endpoint × status class (all five classes, a fixed shape) and one
// latency histogram per endpoint, both derived from one read of the
// endpoint's grid so the class counts and the histogram count of one
// exposition always agree. Endpoints render in the order given, so callers
// pass a fixed slice and the output is deterministic for fixed counts.
func WriteReqProm(w io.Writer, stats []*ReqStat) {
	bw := bufio.NewWriter(w)
	defer bw.Flush() //nolint:errcheck // exposition best-effort
	lats := make([]Hist, len(stats))
	fmt.Fprintf(bw, "# TYPE %s counter\n", PromReqTotalName)
	for i, e := range stats {
		if e == nil {
			continue
		}
		var classes [numStatusClasses]int64
		classes, lats[i] = e.snapshot()
		for c, n := range classes {
			fmt.Fprintf(bw, "%s{endpoint=%q,code=%q} %d\n",
				PromReqTotalName, e.Name, statusClassNames[c], n)
		}
	}
	fmt.Fprintf(bw, "# TYPE %s histogram\n", PromReqDurName)
	for i, e := range stats {
		if e == nil {
			continue
		}
		lats[i].writeProm(bw, PromReqDurName, fmt.Sprintf("endpoint=%q", e.Name), 1e9)
	}
}

// PromHandler wraps an exposition body writer as the GET /metrics handler.
func PromHandler(body func(io.Writer)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", promContentType)
		body(w)
	})
}

// PromSample is one parsed exposition line: a metric name, its label set
// (nil when bare) and the value.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseProm decodes the text exposition subset this package emits (and the
// common subset real exporters emit): comment lines are skipped, every
// other non-empty line is `name[{labels}] value`. Timestamps and exemplars
// are not supported; a malformed line is an error naming its number.
func ParseProm(r io.Reader) ([]PromSample, error) {
	var out []PromSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return out, fmt.Errorf("obs: metrics line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: reading metrics: %w", err)
	}
	return out, nil
}

func parsePromLine(line string) (PromSample, error) {
	var s PromSample
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name in %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parsePromLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	val := strings.TrimSpace(rest)
	// A trailing timestamp (rare, but legal) would appear as a second
	// field; take the first.
	if i := strings.IndexAny(val, " \t"); i >= 0 {
		val = val[:i]
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", val, err)
	}
	s.Value = v
	return s, nil
}

// parsePromLabels decodes `k="v",k2="v2"` with the \\, \" and \n escapes
// the format defines.
func parsePromLabels(body string) (map[string]string, error) {
	labels := map[string]string{}
	rest := body
	for rest != "" {
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", body)
		}
		key := strings.TrimSpace(rest[:eq])
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, fmt.Errorf("unquoted label value in %q", body)
		}
		rest = rest[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				closed = true
				rest = rest[i+1:]
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value in %q", body)
		}
		labels[key] = val.String()
		rest = strings.TrimPrefix(strings.TrimSpace(rest), ",")
		rest = strings.TrimSpace(rest)
	}
	return labels, nil
}

// labelsMatchSansLe reports whether got equals want after dropping got's
// "le" key: the bucket-series selector.
func labelsMatchSansLe(got, want map[string]string) bool {
	n := 0
	for k, v := range got {
		if k == "le" {
			continue
		}
		if want[k] != v {
			return false
		}
		n++
	}
	return n == len(want)
}

// HistFromProm is writeProm's inverse: it assembles the histogram family
// name with the given label selector from parsed samples, in small units
// (per of them to the exposed unit, see Hist). Every le must be one of the
// 64 edges 2^b/per exactly as the writer renders them — anything else is an
// error naming the series rather than a mis-binned sample: reading foreign
// bucket layouts is a capability no caller uses. Because the mapping is
// exact, the interval between two scrapes is plain Sub. Samples counted
// only under le="+Inf" join the highest bucket present, so they answer
// quantiles with the largest finite edge. An absent family is the empty
// Hist.
func HistFromProm(samples []PromSample, name string, labels map[string]string, per float64) (Hist, error) {
	var cum [histBuckets]int64
	var seen [histBuckets]bool
	var total, sum int64
	for _, s := range samples {
		if !labelsMatchSansLe(s.Labels, labels) {
			continue
		}
		switch s.Name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				return Hist{}, fmt.Errorf("obs: %s{%v}: bad le: %w", s.Name, s.Labels, err)
			}
			if math.IsInf(le, 1) {
				total = int64(s.Value)
				continue
			}
			b := int(math.Round(math.Log2(le * per)))
			if b < 0 || b >= histBuckets || float64(upperBound(b))/per != le {
				return Hist{}, fmt.Errorf("obs: %s{%v}: le is not a bucket edge 2^b/%g", s.Name, s.Labels, per)
			}
			cum[b], seen[b] = int64(s.Value), true
		case name + "_sum":
			sum = int64(math.Round(s.Value * per))
		}
	}
	var buckets [histBuckets]int64
	var prev int64
	top := histBuckets - 1
	for b := range cum {
		if !seen[b] {
			continue
		}
		if cum[b] < prev {
			return Hist{}, fmt.Errorf("obs: %s_bucket{%v}: cumulative count decreases at bucket %d", name, labels, b)
		}
		buckets[b], prev, top = cum[b]-prev, cum[b], b
	}
	if total > prev {
		buckets[top] += total - prev
	}
	return histOf(&buckets, sum), nil
}
