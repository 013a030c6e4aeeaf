package main

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"vodplace/internal/facloc"
	"vodplace/internal/mip"
	"vodplace/internal/obs"
	"vodplace/internal/verify"
)

// loopShare of --seconds is how long each direct-call loop below runs (0.4 s
// of a 20 s run): long enough that the per-call mean settles, short enough
// that a traced run with all seven stays inside the run budget.
const loopShare = 0.02

// perCall runs fn over i = 0, 1, 2, ... for about d and returns the mean
// time per call in nanoseconds. The clock is read once per 256 calls.
func perCall(d time.Duration, fn func(i int)) float64 {
	t0 := time.Now()
	n := 0
	for {
		for k := 0; k < 256; k++ {
			fn(n)
			n++
		}
		if el := time.Since(t0); el >= d {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

// discardWriter is the reused in-memory ResponseWriter serve.route_handler_ns
// is measured with: no socket, no per-request header map.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// sink keeps the compiler from discarding the measured calls.
var sink int

// routeLayers times the layers under one /route answer by calling each
// directly over the same request stream the sockets carried.
func routeLayers(sys *system, keys []routeKey, loopFor time.Duration) (lookupNS, appendNS, handlerNS, recordNS float64, err error) {
	snap := sys.srv.Snapshot()
	lookupNS = perCall(loopFor, func(i int) {
		k := keys[i%len(keys)]
		office, _ := snap.Route(k.video, k.vho)
		sink += office
	})
	var buf []byte
	appendNS = perCall(loopFor, func(i int) {
		k := keys[i%len(keys)]
		buf, sink = snap.AppendRoute(buf[:0], k.video, k.vho)
	})

	reqs := make([]*http.Request, min(len(keys), 1024))
	for i := range reqs {
		url := fmt.Sprintf("http://%s/route?video=%d&vho=%d", sys.addr, keys[i].video, keys[i].vho)
		if reqs[i], err = http.NewRequest(http.MethodGet, url, nil); err != nil {
			return
		}
	}
	h := sys.srv.Handler()
	w := &discardWriter{h: make(http.Header)}
	handlerNS = perCall(loopFor, func(i int) {
		w.status = http.StatusOK
		h.ServeHTTP(w, reqs[i%len(reqs)])
		sink += w.status
	})
	if w.status != http.StatusOK {
		err = fmt.Errorf("direct ServeHTTP answered %d", w.status)
		return
	}

	stat := obs.NewReqStat("bench")
	recordNS = perCall(loopFor, func(i int) {
		stat.Record(http.StatusOK, time.Duration(20000+i&1023))
	})
	return
}

// faclocLayers times the block solver on seeded 55x55 problems, the size of
// one video's subproblem on the backbone. Multiplied by the block-solve
// counts epf reports, they predict epf.lp_ms and epf.round_ms.
func faclocLayers(seed int64, loopFor time.Duration) (solveUS, warmUS, dualUS float64) {
	const problems = 16
	probs := make([]*facloc.Problem, problems)
	warm := make([][]int32, problems)
	var s facloc.Solver
	var out facloc.Solution
	for i := range probs {
		probs[i] = verify.RandomUFL(seed*problems+int64(i), 55, 55)
		s.SolveInto(probs[i], &out)
		for _, f := range out.Open {
			warm[i] = append(warm[i], int32(f))
		}
	}
	solveUS = perCall(loopFor, func(i int) { s.SolveInto(probs[i%problems], &out) }) / 1e3
	warmUS = perCall(loopFor, func(i int) { s.SolveWarmInto(probs[i%problems], &out, warm[i%problems]) }) / 1e3
	dualUS = perCall(loopFor, func(i int) {
		lb, _ := s.DualAscent(probs[i%problems])
		sink += int(lb)
	}) / 1e3
	return
}

// denseConc rebuilds the dense [slice][office] concurrency staging rows that
// InstanceBuilder.Add and ApplyDemandDelta take from a built demand's CSR
// view, which is all a built instance keeps.
func denseConc(d *mip.VideoDemand, slices int) [][]float64 {
	conc := make([][]float64, slices)
	for t := range conc {
		conc[t] = make([]float64, len(d.Js))
		for k := range d.Js {
			conc[t][k] = d.ConcAt(t, k)
		}
	}
	return conc
}

// mipBuildMS re-streams an instance's demands through a fresh
// InstanceBuilder and times Add and Seal. The dense concurrency staging rows
// the builder takes are rebuilt from the CSR view before the clock starts.
func mipBuildMS(inst *mip.Instance, shardSize int) (float64, error) {
	staged := make([]mip.VideoDemand, len(inst.Demands))
	for vi := range inst.Demands {
		d := &inst.Demands[vi]
		staged[vi] = mip.VideoDemand{
			Video: d.Video, SizeGB: d.SizeGB, RateMbps: d.RateMbps,
			Js: d.Js, Agg: d.Agg, Conc: denseConc(d, inst.Slices),
		}
	}
	t := time.Now()
	b, err := mip.NewInstanceBuilder(inst.G, inst.DiskGB, inst.LinkCapMbps, inst.Slices, shardSize)
	if err != nil {
		return 0, err
	}
	for vi := range staged {
		if err := b.Add(&staged[vi]); err != nil {
			return 0, err
		}
	}
	if _, err := b.Seal(); err != nil {
		return 0, err
	}
	return ms(time.Since(t)), nil
}

// scrapeMS is the median wall time of five GET /metrics.
func scrapeMS(client *http.Client, addr string) (float64, error) {
	var all []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET /metrics: %s", resp.Status)
		}
		all = append(all, ms(time.Since(t)))
	}
	return median(all), nil
}
