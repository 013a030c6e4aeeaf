package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]uint32{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

// The highest percentile reported must leave at least ten samples beyond it.
func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 0.5}, {12, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {400000, 0.999},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The route metrics come from the windows whose median is within
// fastTolerance of the run's best, however few of them there are.
func TestFastWindowsOnly(t *testing.T) {
	var rw routeWindows
	add := func(latNS uint32, answers int) {
		w := window{rps: float64(answers) / routeWindow.Seconds(), p50US: float64(latNS) / 1e3, from: len(rw.all)}
		for i := 0; i < answers; i++ {
			rw.all = append(rw.all, latNS)
		}
		w.to = len(rw.all)
		rw.wins = append(rw.wins, w)
	}
	for i := 0; i < 90; i++ {
		add(21000+uint32(i), 900) // the host's slow mode
	}
	for i := 0; i < 10; i++ {
		add(14000+uint32(10*i), 1400)
	}
	fast := rw.stats(true)
	if fast.kept != 10 || fast.windows != 100 || fast.p50US != 14.045 || fast.p99US != 14.09 || fast.rps != 70000 {
		t.Errorf("fast windows: %+v", fast)
	}
	if fast.p999US < 21 {
		t.Errorf("p99.9 must cover every window: %+v", fast)
	}
	if all := rw.stats(false); all.kept != 100 || all.p50US < 21 || all.rps != 45000 {
		t.Errorf("all windows: %+v", all)
	}
	if empty := (&routeWindows{}).stats(true); empty.samples != 0 || empty.kept != 0 {
		t.Errorf("no windows: %+v", empty)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the driver measures spread with. Expected values are Python's.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, [3]float64{4, 5, 9}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// Self time is duration minus the part of the interval children cover:
// overlapping children count once, and a child is clipped to its parent.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},    // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120},   // runs past the parent
		{ID: 5, Parent: 2, Name: "leaf", StartNS: 10, EndNS: 25}, // grandchild: not root's business
		{ID: 6, Parent: 1, Name: "inside-b", StartNS: 35, EndNS: 50},
	}
	fillSelfTimes(spans)
	want := map[string]int64{"root": 100 - (50 + 10), "a": 30 - 15, "b": 30, "c": 30, "leaf": 15, "inside-b": 15}
	for _, s := range spans {
		if s.SelfNS != want[s.Name] {
			t.Errorf("self(%s) = %d, want %d", s.Name, s.SelfNS, want[s.Name])
		}
	}
	if got := selfByName(spans)["root"]; got != 40e-6 {
		t.Errorf("selfByName root = %v ms", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0, 0)
	tr.end(id)
	if spans := tr.finish(); spans != nil {
		t.Errorf("nil tracer returned spans: %v", spans)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricSpec{name: "d2s_mean_ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "route_rps", better: "higher", bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 0.995, c * 1.005} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c * 0.9, c, c * 1.1, c * 1.3} }
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, tight(100), tight(100), within},
		{"5% slower is inside a 10% bound", lower, tight(100), tight(105), within},
		{"20% slower", lower, tight(100), tight(120), regressed},
		{"20% faster", lower, tight(100), tight(80), within},
		{"throughput down 20%", higher, tight(100), tight(80), regressed},
		{"throughput up 20%", higher, tight(100), tight(120), within},
		{"spread wider than the bound", lower, wide(100), wide(102), unresolved},
		{"wide, but every run of b beats every run of a", lower, wide(100), wide(40), within},
		{"wide and far worse is still regressed", lower, wide(100), wide(150), regressed},
	} {
		if got := judge(c.spec, c.a, c.b); got.verdict != c.want {
			t.Errorf("%s: verdict %s (worse %+.3f), want %s", c.name, got.verdict, got.worse, c.want)
		}
	}
}

func TestCompareRefusesAcrossHosts(t *testing.T) {
	run := func(cpu string, v float64) capturedRun {
		return capturedRun{
			fp:      fingerprint{CPU: cpu, NumCPU: 2, GoMaxProcs: 2, GoVersion: "go1.24.0", Workload: "steady-hot"},
			metrics: map[string]measured{"route_rps": {v, "1/s"}},
		}
	}
	a := []capturedRun{run("2.10GHz", 100), run("2.10GHz", 101)}
	if _, err := compareRuns(a, []capturedRun{run("2.70GHz", 200)}); err == nil || !strings.Contains(err.Error(), "hosts differ") {
		t.Errorf("cross-host comparison was not refused: %v", err)
	}
	rows, err := compareRuns(a, []capturedRun{run("2.10GHz", 70), run("2.10GHz", 71)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].verdict != regressed || rows[0].metric != "route_rps" {
		t.Errorf("rows = %+v, want one regressed route_rps", rows)
	}
}

// BENCHMARK.json is written by hand; it must say what spec.go says.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go has %q: %q", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go has %s %s %s", kind, i, g, s.name, s.unit, s.better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != s.bound || s.bound <= 0 || s.bound > 0.25)) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in spec.go", kind, s.name, g.Bound, s.bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v", file.Paths)
	}
	if got := strings.Join(file.Command, " "); got != "bash bench/run.sh" {
		t.Errorf("command = %q", got)
	}
}

// Every workload, at the serve-smoke shape and half a second of traffic,
// untraced and traced: no operation fails, every metric the specification
// names is reported, and the last two lines read back as one run.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			res, err := runWorkload(smokeWorkload(w.name), 3, instanceSeed, 0.5, tr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.failed, res.attempted, res.failures)
			}
			for _, s := range endToEnd {
				if v := res.endToEnd[s.name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: %s = %v, want a positive number", w.name, traced, s.name, v)
				}
			}
			var out bytes.Buffer
			if err := report(&out, fingerprint{Workload: w.name, Trace: traced}, res); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("last line keys: %s", lines[len(lines)-1])
			}
			runs, err := readRuns(&out)
			if err != nil || len(runs) != 1 {
				t.Fatalf("reading the report back: %d runs, %v", len(runs), err)
			}
			want := endToEnd
			if traced {
				want = perLayer
				if res.perLayer["epf.replay_mismatch"] != 0 || res.perLayer["epf.passes"] != res.perLayer["serve.resolve_passes"] {
					t.Errorf("%s: replay disagrees with the server: %v mismatches, %v vs %v passes", w.name,
						res.perLayer["epf.replay_mismatch"], res.perLayer["epf.passes"], res.perLayer["serve.resolve_passes"])
				}
				if len(res.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.name)
				}
			}
			if len(runs[0].metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, %d specified", w.name, traced, len(runs[0].metrics), len(want))
			}
		}
	}
}

// The oracle must reject an answer that is well-formed but wrong.
func TestOracleRejectsWrongAnswer(t *testing.T) {
	sys, err := startSystem(smokeShape, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := heldOutKeys(sys, rand.New(rand.NewSource(1)))
	r, err := newReader(sys, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r.close()
		if err := sys.stop(); err != nil {
			t.Error(err)
		}
	}()
	if !r.one() || r.failed != 0 {
		t.Fatalf("honest answer rejected: %v", r.firstFail)
	}
	k := keys[0]
	honest := append([]byte(nil), r.body...)
	if err := r.check(k, 200); err != nil {
		t.Fatalf("honest body rejected on re-check: %v", err)
	}
	for name, tamper := range map[string]func() int{
		"wrong office": func() int {
			r.body = bytes.Replace(honest, []byte(`"serve":`), []byte(`"serve":1`), 1)
			return 200
		},
		"unknown version": func() int {
			r.body = bytes.Replace(honest, []byte(`"version":1}`), []byte(`"version":9}`), 1)
			return 200
		},
		"not found": func() int { r.body = honest; return 404 },
	} {
		if err := r.check(k, tamper()); err == nil {
			t.Errorf("%s: the oracle accepted %q", name, r.body)
		}
	}
}

// A bad command line is exit code 2 with nothing on standard output.
func TestRunExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: code %d, stdout %q", code, out.String())
	}
	if !strings.Contains(errOut.String(), "steady-hot") {
		t.Errorf("usage does not list the workloads: %q", errOut.String())
	}
	if code := run([]string{"--compare", "only-one"}, &out, &errOut); code != 2 {
		t.Errorf("--compare with one file: code %d", code)
	}
}
