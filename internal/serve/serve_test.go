package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"vodplace/internal/core"
	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/topology"
)

// testInstance builds a small seeded placement instance with the daemon's
// recipe (core.Deployment): synthetic catalog + trace, demand estimated
// from the first week of history.
func testInstance(tb testing.TB, videos, vhos int, seed int64) *mip.Instance {
	tb.Helper()
	inst, err := core.Deployment{
		Videos: videos, VHOs: vhos, RPD: 4, Disk: 2, Link: 1000,
		Slices: 2, Window: 3600, Seed: seed,
	}.Instance()
	if err != nil {
		tb.Fatalf("building test instance: %v", err)
	}
	return inst
}

// testServer solves the instance and starts a server with converging solver
// settings (re-solves must pass the Converged gate to swap).
func testServer(tb testing.TB, videos, vhos int, seed int64) *Server {
	tb.Helper()
	inst := testInstance(tb, videos, vhos, seed)
	s, err := New(inst, Config{Solver: epf.Options{Seed: seed, MaxPasses: 200, Epsilon: 0.02}})
	if err != nil {
		tb.Fatalf("serve.New: %v", err)
	}
	tb.Cleanup(s.Close)
	return s
}

// cheapestCopy is the from-scratch recomputation the routes are checked
// against: scan the video's open copies (y ≥ 0.5) and return the office
// with minimal transfer cost to j, lowest index on ties; -1 when none.
func cheapestCopy(inst *mip.Instance, sol *mip.Solution, vi, j int) int {
	best, bestCost := -1, 0.0
	for _, f := range sol.Videos[vi].Open {
		if f.V < mip.OpenY {
			continue
		}
		c := inst.Cost(int(f.I), j)
		if best == -1 || c < bestCost || (c == bestCost && int(f.I) < best) {
			best, bestCost = int(f.I), c
		}
	}
	return best
}

type routeResp struct {
	Video   int     `json:"video"`
	VHO     int     `json:"vho"`
	Serve   int     `json:"serve"`
	Hops    int     `json:"hops"`
	Cost    float64 `json:"cost"`
	Version uint64  `json:"version"`
	Error   string  `json:"error"`
}

func getJSON(tb testing.TB, ts *httptest.Server, path string, out any) int {
	tb.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		tb.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			tb.Fatalf("GET %s: decoding body: %v", path, err)
		}
	}
	return resp.StatusCode
}

// TestRouteCorrectness cross-checks every (video, vho) pair the server can
// be asked about against the from-scratch cheapest-copy recomputation.
func TestRouteCorrectness(t *testing.T) {
	s := testServer(t, 40, 8, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	snap := s.Snapshot()
	inst, sol := snap.Inst, snap.Sol
	checked := 0
	for vi := range inst.Demands {
		id := inst.Demands[vi].Video
		for j := 0; j < inst.NumVHOs(); j++ {
			var rr routeResp
			code := getJSON(t, ts, fmt.Sprintf("/route?video=%d&vho=%d", id, j), &rr)
			want := cheapestCopy(inst, sol, vi, j)
			if want < 0 {
				if code != http.StatusNotFound || rr.Error != "unreachable" {
					t.Fatalf("video %d vho %d: want unreachable 404, got %d %+v", id, j, code, rr)
				}
				continue
			}
			if code != http.StatusOK {
				t.Fatalf("video %d vho %d: status %d, want 200", id, j, code)
			}
			if rr.Serve != want {
				t.Errorf("video %d vho %d: routed to %d, from-scratch cheapest copy is %d", id, j, rr.Serve, want)
			}
			if rr.Cost != inst.Cost(want, j) {
				t.Errorf("video %d vho %d: cost %g, want %g", id, j, rr.Cost, inst.Cost(want, j))
			}
			if rr.Hops != inst.Hops(want, j) {
				t.Errorf("video %d vho %d: hops %d, want %d", id, j, rr.Hops, inst.Hops(want, j))
			}
			if rr.Version != 1 {
				t.Errorf("video %d vho %d: version %d, want 1", id, j, rr.Version)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no routable pairs checked")
	}
	if got := s.Stats().RouteRequests; got < int64(checked) {
		t.Errorf("route_requests counter %d, want >= %d", got, checked)
	}
}

// TestRouteContracts pins the 400/404/405 behavior of the hot endpoint.
func TestRouteContracts(t *testing.T) {
	s := testServer(t, 20, 6, 2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := s.Snapshot().Inst.Demands[0].Video
	for _, tc := range []struct {
		path    string
		code    int
		errWant string
	}{
		{"/route", 400, "bad request"},
		{fmt.Sprintf("/route?video=%d", id), 400, "bad request"},
		{"/route?vho=0", 400, "bad request"},
		{fmt.Sprintf("/route?video=%d&vho=abc", id), 400, "bad request"},
		{fmt.Sprintf("/route?video=-1&vho=0"), 400, "bad request"},
		{fmt.Sprintf("/route?video=%d&vho=0&video=%d", id, id), 400, "bad request"},
		{fmt.Sprintf("/route?video=%d&vho=0%%31", id), 400, "bad request"},
		{"/route?video=999999&vho=0", 404, "unknown video"},
		{fmt.Sprintf("/route?video=%d&vho=999", id), 404, "unknown vho"},
		{fmt.Sprintf("/route?video=%d&vho=0&extra=1", id), 200, ""},
	} {
		var rr routeResp
		code := getJSON(t, ts, tc.path, &rr)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.path, code, tc.code)
		}
		if tc.errWant != "" && !strings.Contains(rr.Error, tc.errWant) {
			t.Errorf("%s: error %q, want containing %q", tc.path, rr.Error, tc.errWant)
		}
	}

	resp, err := ts.Client().Post(ts.URL+"/route?video=0&vho=0", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /route: status %d, want 405", resp.StatusCode)
	}
}

// TestRouteUnreachable drives the handler over a hand-built placement with
// an uncovered video: the pair must be reported unreachable, not mis-routed
// to a default office.
func TestRouteUnreachable(t *testing.T) {
	g := topology.Tree(4)
	inst, err := mip.NewInstance(g, []float64{100, 100, 100, 100}, uniform(g.NumLinks(), 1000), 1, []mip.VideoDemand{
		{Video: 0, SizeGB: 1, RateMbps: 1, Js: []int32{1}, Agg: []float64{2}, Conc: [][]float64{{1}}},
		{Video: 7, SizeGB: 1, RateMbps: 1, Js: []int32{2}, Agg: []float64{2}, Conc: [][]float64{{1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sol := mip.NewSolution(inst)
	sol.Videos[0].Open = []mip.Frac{{I: 3, V: 1}}
	// Video 7 has a fractional 0.4 copy only: below the serving threshold,
	// so every (7, j) pair is unreachable.
	sol.Videos[1].Open = []mip.Frac{{I: 0, V: 0.4}}
	s, err := NewWithResult(inst, &epf.Result{Sol: sol}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var rr routeResp
	if code := getJSON(t, ts, "/route?video=0&vho=1", &rr); code != 200 || rr.Serve != 3 {
		t.Fatalf("video 0: got code %d resp %+v, want routed to office 3", code, rr)
	}
	if code := getJSON(t, ts, "/route?video=7&vho=2", &rr); code != 404 || rr.Error != "unreachable" {
		t.Fatalf("video 7: got code %d resp %+v, want 404 unreachable", code, rr)
	}
	// Library id 3 sits inside the vidIdx range but belongs to no instance
	// video: unknown, not unreachable.
	if code := getJSON(t, ts, "/route?video=3&vho=0", &rr); code != 404 || rr.Error != "unknown video" {
		t.Fatalf("video 3: got code %d resp %+v, want 404 unknown video", code, rr)
	}
}

func uniform(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestPlacementEndpoint(t *testing.T) {
	s := testServer(t, 25, 6, 3)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var got struct {
		Version   uint64 `json:"version"`
		Certified bool   `json:"certified"`
		Videos    []struct {
			Video int   `json:"video"`
			Open  []int `json:"open"`
		} `json:"videos"`
	}
	if code := getJSON(t, ts, "/placement", &got); code != 200 {
		t.Fatalf("status %d, want 200", code)
	}
	snap := s.Snapshot()
	if got.Version != 1 || !got.Certified {
		t.Errorf("version %d certified %v, want 1/true", got.Version, got.Certified)
	}
	if len(got.Videos) != len(snap.Sol.Videos) {
		t.Fatalf("%d videos in response, want %d", len(got.Videos), len(snap.Sol.Videos))
	}
	for vi, row := range got.Videos {
		if row.Video != snap.Inst.Demands[vi].Video {
			t.Errorf("video %d: id %d, want %d", vi, row.Video, snap.Inst.Demands[vi].Video)
		}
		var want []int
		for _, f := range snap.Sol.Videos[vi].Open {
			if f.V >= mip.OpenY {
				want = append(want, int(f.I))
			}
		}
		if len(row.Open) != len(want) {
			t.Errorf("video %d: open %v, want %v", row.Video, row.Open, want)
			continue
		}
		for k := range want {
			if row.Open[k] != want[k] {
				t.Errorf("video %d: open %v, want %v", row.Video, row.Open, want)
				break
			}
		}
	}
}

func TestHealthz(t *testing.T) {
	s := testServer(t, 20, 6, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 200 || body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q, want 200 \"ok\\n\"", resp.StatusCode, body.String())
	}
}

func TestStatusEndpoint(t *testing.T) {
	s := testServer(t, 20, 6, 5)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st statusJSON
	if code := getJSON(t, ts, "/status", &st); code != 200 {
		t.Fatalf("status %d, want 200", code)
	}
	snap := s.Snapshot()
	if st.Version != 1 || !st.Certified {
		t.Errorf("version %d certified %v, want 1/true", st.Version, st.Certified)
	}
	if st.Videos != snap.NumVideos() || st.VHOs != snap.NumVHOs() {
		t.Errorf("videos/vhos %d/%d, want %d/%d", st.Videos, st.VHOs, snap.NumVideos(), snap.NumVHOs())
	}
	if st.LastPasses <= 0 {
		t.Errorf("last_passes %d, want > 0", st.LastPasses)
	}

	// Counters move: one good route, one routing error.
	getJSON(t, ts, fmt.Sprintf("/route?video=%d&vho=0", snap.Inst.Demands[0].Video), nil)
	getJSON(t, ts, "/route?video=99999&vho=0", nil)
	var st2 statusJSON
	getJSON(t, ts, "/status", &st2)
	if st2.RouteRequests != st.RouteRequests+2 {
		t.Errorf("route_requests %d, want %d", st2.RouteRequests, st.RouteRequests+2)
	}
	if st2.RouteErrors != st.RouteErrors+1 {
		t.Errorf("route_errors %d, want %d", st2.RouteErrors, st.RouteErrors+1)
	}
}

func TestDemandEndpoint(t *testing.T) {
	s := testServer(t, 30, 6, 6)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	snap := s.Snapshot()
	id := snap.Inst.Demands[0].Video

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/demand", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b := new(bytes.Buffer)
		b.ReadFrom(resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode, b.String()
	}

	for _, tc := range []struct {
		body string
		code int
	}{
		{"not json", 400},
		{"[]", 400},
		{`[{"video":999999,"vho":0,"add":1}]`, 400},                                                  // unknown video
		{fmt.Sprintf(`[{"video":%d,"vho":999,"add":1}]`, id), 400},                                   // vho out of range
		{fmt.Sprintf(`[{"video":%d,"vho":0,"bogus":1}]`, id), 400},                                   // unknown field
		{fmt.Sprintf(`[{"video":%d,"vho":0,"add":1e999}]`, id), 400},                                 // non-finite
		{fmt.Sprintf(`[{"video":%d,"vho":0,"add":1},{"video":999999,"vho":0,"add":1}]`, id), 400},    // bad entry rejects whole batch
		{fmt.Sprintf(`[{"video":%d,"vho":0,"add":1}] trailing garbage`, id), 400},                    // bytes after the batch
		{fmt.Sprintf(`[{"video":%[1]d,"vho":0,"add":1}][{"video":%[1]d,"vho":1,"add":1}]`, id), 400}, // two batches in one body
		{"[" + strings.Repeat(" ", maxDemandBody) + "]", 413},                                        // over the body limit
	} {
		if code, body := post(tc.body); code != tc.code {
			t.Errorf("POST %.80q: status %d (%s), want %d", tc.body, code, strings.TrimSpace(body), tc.code)
		}
	}
	if got := s.Stats().DemandUpdates; got != 0 {
		t.Fatalf("rejected batches counted as %d accepted updates, want 0", got)
	}

	// GET /demand is 405.
	resp, err := ts.Client().Get(ts.URL + "/demand")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /demand: status %d, want 405", resp.StatusCode)
	}

	// A valid batch is accepted and triggers an audit-gated background
	// re-solve that swaps in a new certified snapshot.
	var entries []string
	for vi := 0; vi < len(snap.Inst.Demands) && vi < 8; vi++ {
		entries = append(entries, fmt.Sprintf(`{"video":%d,"vho":%d,"add":40}`,
			snap.Inst.Demands[vi].Video, vi%snap.NumVHOs()))
	}
	code, body := post("[" + strings.Join(entries, ",") + "]")
	if code != http.StatusAccepted {
		t.Fatalf("valid batch: status %d (%s), want 202", code, body)
	}
	if got := s.Stats().DemandUpdates; got != int64(len(entries)) {
		t.Errorf("demand_updates %d, want %d", got, len(entries))
	}

	deadline := time.Now().Add(30 * time.Second)
	for s.Snapshot().Version < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot swap within deadline; stats %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	next := s.Snapshot()
	if !next.Certified {
		t.Error("swapped snapshot not certified")
	}
	if got := s.Stats().ResolvesSwapped; got < 1 {
		t.Errorf("resolves_swapped %d, want >= 1", got)
	}
	// Routes answered from the new snapshot remain internally consistent.
	for j := 0; j < next.NumVHOs(); j++ {
		var rr routeResp
		codeJ := getJSON(t, ts, fmt.Sprintf("/route?video=%d&vho=%d", id, j), &rr)
		want := cheapestCopy(next.Inst, next.Sol, 0, j)
		if want < 0 {
			continue
		}
		if codeJ != 200 || rr.Serve != want {
			t.Errorf("post-swap route video %d vho %d: code %d serve %d, want 200 serve %d", id, j, codeJ, rr.Serve, want)
		}
	}
}

// postDemand runs one POST /demand through the handler, no listener.
func postDemand(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/demand", bytes.NewReader(body)))
	return rec
}

// TestDemandOverflowRejected: two adds that are each finite but sum past
// MaxFloat64 used to be accepted, turn the cell into +Inf and panic the next
// re-solve in a pool worker. The batch is refused whole, the server keeps
// routing, and the next legitimate batch still swaps; adds at the bound are
// accepted and the cell saturates there.
func TestDemandOverflowRejected(t *testing.T) {
	s := testServer(t, 30, 6, 6)
	h := s.Handler()
	snap := s.Snapshot()
	id := snap.Inst.Demands[0].Video

	batch := func(add float64) []byte {
		return fmt.Appendf(nil, `[{"video":%[1]d,"vho":0,"add":%[2]g},{"video":%[1]d,"vho":0,"add":%[2]g}]`, id, add)
	}
	if rec := postDemand(h, batch(1e308)); rec.Code != http.StatusBadRequest {
		t.Fatalf("overflowing batch: status %d (%s), want 400", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if got := s.Stats().DemandUpdates; got != 0 {
		t.Errorf("refused batch counted as %d accepted updates", got)
	}
	s.mu.Lock()
	untouched := reflect.DeepEqual(s.state, stateFromInstance(s.live)) && !s.dirty
	s.mu.Unlock()
	if !untouched {
		t.Error("refused batch changed the demand state")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/route?video=%d&vho=0", id), nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/route after the refused batch: status %d (%s)", rec.Code, strings.TrimSpace(rec.Body.String()))
	}

	var entries []string
	for vi := 0; vi < len(snap.Inst.Demands) && vi < 8; vi++ {
		entries = append(entries, fmt.Sprintf(`{"video":%d,"vho":%d,"add":40}`,
			snap.Inst.Demands[vi].Video, vi%snap.NumVHOs()))
	}
	if rec := postDemand(h, []byte("["+strings.Join(entries, ",")+"]")); rec.Code != http.StatusAccepted {
		t.Fatalf("legitimate batch: status %d (%s), want 202", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	for deadline := time.Now().Add(30 * time.Second); s.Snapshot().Version < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot swap within deadline; stats %+v", s.Stats())
		}
	}

	if rec := postDemand(h, batch(maxDemandCell)); rec.Code != http.StatusAccepted {
		t.Fatalf("batch at the bound: status %d (%s), want 202", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	s.mu.Lock()
	agg, drift := *s.state.aggCell(s.state.byID[id], 0), s.state.drift
	s.mu.Unlock()
	if agg != maxDemandCell || math.IsInf(drift, 0) {
		t.Errorf("two adds at the bound left the cell at %g (drift %g), want it saturated at %g", agg, drift, maxDemandCell)
	}
}

// TestDemandStateRoundTrip: streaming the state back through the instance
// builder reproduces the seed instance's demands bit for bit.
func TestDemandStateRoundTrip(t *testing.T) {
	inst := testInstance(t, 35, 7, 9)
	st := stateFromInstance(inst)
	re, err := st.instance(inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Demands) != len(inst.Demands) {
		t.Fatalf("%d demands after round trip, want %d", len(re.Demands), len(inst.Demands))
	}
	for vi := range inst.Demands {
		a, b := &inst.Demands[vi], &re.Demands[vi]
		if a.Video != b.Video || a.SizeGB != b.SizeGB || a.RateMbps != b.RateMbps {
			t.Fatalf("video %d: header mismatch", vi)
		}
		if len(a.Js) != len(b.Js) {
			t.Fatalf("video %d: %d offices, want %d", vi, len(b.Js), len(a.Js))
		}
		for k := range a.Js {
			if a.Js[k] != b.Js[k] || a.Agg[k] != b.Agg[k] {
				t.Fatalf("video %d office %d: agg mismatch", vi, k)
			}
			at, av := a.ConcNZ(k)
			bt, bv := b.ConcNZ(k)
			if len(at) != len(bt) {
				t.Fatalf("video %d office %d: conc nnz mismatch", vi, k)
			}
			for x := range at {
				if at[x] != bt[x] || av[x] != bv[x] {
					t.Fatalf("video %d office %d: conc mismatch", vi, k)
				}
			}
		}
	}
}

func TestParseRouteQuery(t *testing.T) {
	for _, tc := range []struct {
		q          string
		video, vho int
		ok         bool
	}{
		{"video=3&vho=7", 3, 7, true},
		{"vho=7&video=3", 3, 7, true},
		{"video=3&vho=7&other=x", 3, 7, true},
		{"video=0&vho=0", 0, 0, true},
		{"", 0, 0, false},
		{"video=3", 0, 0, false},
		{"vho=3", 0, 0, false},
		{"video=&vho=1", 0, 0, false},
		{"video=3&vho=1&video=3", 0, 0, false},
		{"video=-1&vho=1", 0, 0, false},
		{"video=3.5&vho=1", 0, 0, false},
		{"video=abc&vho=1", 0, 0, false},
		{"video=3&vho=1%31", 0, 0, false},
		{"video=9999999999&vho=1", 0, 0, false},
		{"video", 0, 0, false},
	} {
		v, j, ok := parseRouteQuery(tc.q)
		if ok != tc.ok || (ok && (v != tc.video || j != tc.vho)) {
			t.Errorf("parseRouteQuery(%q) = (%d, %d, %v), want (%d, %d, %v)", tc.q, v, j, ok, tc.video, tc.vho, tc.ok)
		}
	}
}
