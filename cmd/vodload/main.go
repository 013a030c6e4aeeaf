// Command vodload drives a running vodserved: it discovers the served
// video universe over /status and /placement, replays either a synthetic
// Zipf request mix or a regenerated workload trace against /route from N
// concurrent senders, optionally streams demand-update bursts to /demand,
// and reports throughput and latency quantiles (p50/p95/p99) plus the
// server-side counters. When the server exposes /metrics it also scrapes
// the route-latency histogram before and after the run and reports the
// server-side quantiles of the interval next to the client-side ones
// (client includes the HTTP round trip, server only the handler; a >2×
// P99 mismatch beyond that expectation is flagged on stderr). With -json
// the summary is machine-readable; with -golden-out a normalized boolean
// field subset is written for smoke-test diffing.
//
// Usage:
//
//	vodload -addr host:port [-mode zipf|trace] [-duration 5s] [-concurrency 8]
//	        [-updates 0] [-min-rps 0] [-json out.json]
//
// Exit status is nonzero on transport errors, routing errors, or a
// throughput below -min-rps.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vodplace/internal/catalog"
	"vodplace/internal/obs"
	"vodplace/internal/workload"
)

type statusResp struct {
	Version       uint64 `json:"version"`
	Certified     bool   `json:"certified"`
	Videos        int    `json:"videos"`
	VHOs          int    `json:"vhos"`
	RouteRequests int64  `json:"route_requests"`
	RouteErrors   int64  `json:"route_errors"`
	Resolves      struct {
		Swapped int64 `json:"swapped"`
	} `json:"resolves"`
}

type placementResp struct {
	Version uint64 `json:"version"`
	Videos  []struct {
		Video int `json:"video"`
	} `json:"videos"`
}

// summary is the -json report.
type summary struct {
	Addr        string  `json:"addr"`
	Mode        string  `json:"mode"`
	DurationSec float64 `json:"duration_sec"`
	Concurrency int     `json:"concurrency"`

	Requests   int64   `json:"requests"`
	RPS        float64 `json:"rps"`
	HTTPErrors int64   `json:"http_errors"`
	// RouteErrors counts non-200 /route answers — with a universe discovered
	// from /placement these are genuine routing failures.
	RouteErrors int64 `json:"route_errors"`

	LatencyMs obs.Summary `json:"latency_ms"`
	// ServerLatencyMs is the server-side route handler latency over the run
	// (the /metrics histogram delta between the start and end scrapes);
	// absent when the server does not expose /metrics.
	ServerLatencyMs *obs.Summary `json:"server_latency_ms,omitempty"`

	VersionStart  uint64 `json:"version_start"`
	VersionEnd    uint64 `json:"version_end"`
	SwapsObserved int64  `json:"swaps_observed"`
	DemandPosted  int64  `json:"demand_posted"`

	ServerRouteRequests int64 `json:"server_route_requests"`
	ServerRouteErrors   int64 `json:"server_route_errors"`
	ServerSwapped       int64 `json:"server_resolves_swapped"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr        = flag.String("addr", "", "vodserved address host:port (required)")
		mode        = flag.String("mode", "zipf", "request mix: zipf (synthetic over the served universe) or trace (replay a regenerated workload trace)")
		zipfS       = flag.Float64("zipf", 0.8, "Zipf exponent for -mode zipf")
		duration    = flag.Duration("duration", 5*time.Second, "load duration")
		concurrency = flag.Int("concurrency", 8, "concurrent senders")
		seed        = flag.Int64("seed", 1, "random seed (also the trace seed for -mode trace)")
		updates     = flag.Int("updates", 0, "demand-update bursts to POST during the run")
		updateSize  = flag.Int("update-size", 8, "entries per demand burst")
		updateAdd   = flag.Float64("update-add", 25, "aggregate demand added per entry")
		wait        = flag.Duration("wait", 15*time.Second, "how long to wait for the server to become healthy")
		minRPS      = flag.Float64("min-rps", 0, "fail (exit 1) when sustained rps falls below this")
		jsonOut     = flag.String("json", "", "write the JSON summary to this file (- for stdout)")
		goldenOut   = flag.String("golden-out", "", "write a normalized boolean field subset for smoke diffing")
		traceVideos = flag.Int("videos", 2000, "library size for -mode trace (must match the server)")
		traceRPD    = flag.Float64("rpd", 4, "requests per video per day for -mode trace")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "vodload: -addr is required")
		return 2
	}
	if *mode != "zipf" && *mode != "trace" {
		fmt.Fprintf(os.Stderr, "vodload: unknown -mode %q\n", *mode)
		return 2
	}
	base := "http://" + *addr
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *concurrency * 2,
		MaxIdleConnsPerHost: *concurrency * 2,
	}}

	// Wait for the daemon, then discover the served universe so the load
	// never asks about videos the placement does not contain.
	if err := waitHealthy(client, base, *wait); err != nil {
		fmt.Fprintf(os.Stderr, "vodload: %v\n", err)
		return 1
	}
	var st statusResp
	if err := getJSON(client, base+"/status", &st); err != nil {
		fmt.Fprintf(os.Stderr, "vodload: status: %v\n", err)
		return 1
	}
	var pl placementResp
	if err := getJSON(client, base+"/placement", &pl); err != nil {
		fmt.Fprintf(os.Stderr, "vodload: placement: %v\n", err)
		return 1
	}
	ids := make([]int, len(pl.Videos))
	for i := range pl.Videos {
		ids[i] = pl.Videos[i].Video
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "vodload: server placement holds no videos")
		return 1
	}
	fmt.Printf("vodload: %s serving v%d, %d videos, %d offices\n", *addr, st.Version, len(ids), st.VHOs)

	// First /metrics scrape: the baseline the post-run scrape is diffed
	// against (empty when the server has no /metrics).
	histStart, _ := scrapeRouteHist(client, base)

	// Per-sender request streams.
	streams, err := buildStreams(*mode, ids, st.VHOs, *concurrency, *zipfS, *seed, *traceVideos, *traceRPD)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodload: %v\n", err)
		return 1
	}

	var (
		requests    atomic.Int64
		httpErrors  atomic.Int64
		routeErrors atomic.Int64
	)
	hists := make([]obs.Hist, *concurrency) // ns, one owner each until wg.Wait
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			next := streams[w]
			h := &hists[w]
			for time.Now().Before(deadline) {
				video, vho := next()
				url := fmt.Sprintf("%s/route?video=%d&vho=%d", base, video, vho)
				t0 := time.Now()
				resp, err := client.Get(url)
				if err != nil {
					httpErrors.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				h.Observe(int64(time.Since(t0)))
				requests.Add(1)
				if resp.StatusCode != http.StatusOK {
					routeErrors.Add(1)
				}
			}
		}(w)
	}

	// Demand bursts: evenly spaced, each followed by a poll for the
	// audit-gated snapshot swap it should trigger.
	var posted atomic.Int64
	if *updates > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + 99))
			gap := *duration / time.Duration(*updates+1)
			lastVersion := st.Version
			for u := 0; u < *updates; u++ {
				time.Sleep(gap)
				if !time.Now().Before(deadline) {
					return
				}
				var batch []map[string]any
				for e := 0; e < *updateSize; e++ {
					batch = append(batch, map[string]any{
						"video": ids[rng.Intn(len(ids))],
						"vho":   rng.Intn(st.VHOs),
						"add":   *updateAdd,
					})
				}
				body, _ := json.Marshal(batch) //nolint:errcheck // fixed shape
				resp, err := client.Post(base+"/demand", "application/json", bytes.NewReader(body))
				if err != nil {
					httpErrors.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					httpErrors.Add(1)
					continue
				}
				posted.Add(int64(*updateSize))
				// Poll for the swap this burst should cause (bounded by the
				// run deadline; a late swap is caught by the final poll).
				for time.Now().Before(deadline) {
					var cur statusResp
					if err := getJSON(client, base+"/status", &cur); err == nil && cur.Version > lastVersion {
						lastVersion = cur.Version
						break
					}
					time.Sleep(20 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// One bounded post-run poll: a resolve kicked near the end may land
	// just after the senders stop.
	var end statusResp
	for i := 0; i < 100; i++ {
		if err := getJSON(client, base+"/status", &end); err != nil {
			fmt.Fprintf(os.Stderr, "vodload: final status: %v\n", err)
			return 1
		}
		if *updates == 0 || end.Resolves.Swapped > 0 || i == 99 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	swaps := int64(end.Version - st.Version)

	var merged obs.Hist
	for _, h := range hists {
		merged.Merge(h)
	}
	var serverMs *obs.Summary
	if histEnd, ok := scrapeRouteHist(client, base); ok {
		if d := histEnd.Sub(histStart); d.Count > 0 {
			ms := d.Summary(1e6)
			serverMs = &ms
		}
	}
	sum := summary{
		Addr:        *addr,
		Mode:        *mode,
		DurationSec: elapsed.Seconds(),
		Concurrency: *concurrency,

		Requests:    requests.Load(),
		RPS:         float64(requests.Load()) / elapsed.Seconds(),
		HTTPErrors:  httpErrors.Load(),
		RouteErrors: routeErrors.Load(),
		LatencyMs:   merged.Summary(1e6),

		ServerLatencyMs: serverMs,

		VersionStart:  st.Version,
		VersionEnd:    end.Version,
		SwapsObserved: swaps,
		DemandPosted:  posted.Load(),

		ServerRouteRequests: end.RouteRequests,
		ServerRouteErrors:   end.RouteErrors,
		ServerSwapped:       end.Resolves.Swapped,
	}

	fmt.Printf("requests:    %d in %.1fs (%.0f rps, %d senders)\n", sum.Requests, sum.DurationSec, sum.RPS, sum.Concurrency)
	fmt.Printf("errors:      http %d, route %d (server-side route errors %d)\n", sum.HTTPErrors, sum.RouteErrors, sum.ServerRouteErrors)
	fmt.Printf("latency ms:  p50 %.3g  p95 %.3g  p99 %.3g  max %.3g\n",
		sum.LatencyMs.P50, sum.LatencyMs.P95, sum.LatencyMs.P99, sum.LatencyMs.Max)
	if serverMs != nil {
		fmt.Printf("server ms:   p50 %.3g  p95 %.3g  p99 %.3g  (handler only, %d requests via /metrics)\n",
			serverMs.P50, serverMs.P95, serverMs.P99, serverMs.Count)
		// The client P99 includes the HTTP round trip, so it normally exceeds
		// the handler-only server P99 by far; the reverse ordering — server
		// P99 more than 2× the client's — can only mean a broken instrument
		// or clock, so that mismatch is flagged.
		if serverMs.P99 > 2*sum.LatencyMs.P99 {
			fmt.Fprintf(os.Stderr, "vodload: warning: server-side p99 %.3gms exceeds 2x client-observed p99 %.3gms (instrument or clock anomaly?)\n",
				serverMs.P99, sum.LatencyMs.P99)
		}
	}
	fmt.Printf("placement:   v%d -> v%d (%d swaps, %d demand entries posted)\n",
		sum.VersionStart, sum.VersionEnd, sum.SwapsObserved, sum.DemandPosted)

	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, sum); err != nil {
			fmt.Fprintf(os.Stderr, "vodload: %v\n", err)
			return 1
		}
	}
	if *goldenOut != "" {
		g := fmt.Sprintf("mode=%s\nsenders=%d\nnonzero_throughput=%v\nzero_route_errors=%v\nzero_http_errors=%v\nmin_rps_met=%v\nswap_observed=%v\n",
			sum.Mode, sum.Concurrency,
			sum.Requests > 0, sum.RouteErrors == 0, sum.HTTPErrors == 0,
			sum.RPS >= *minRPS, sum.SwapsObserved > 0)
		if err := os.WriteFile(*goldenOut, []byte(g), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "vodload: %v\n", err)
			return 1
		}
	}

	if sum.HTTPErrors > 0 || sum.RouteErrors > 0 {
		fmt.Fprintln(os.Stderr, "vodload: errors during run")
		return 1
	}
	if *minRPS > 0 && sum.RPS < *minRPS {
		fmt.Fprintf(os.Stderr, "vodload: %.0f rps below floor %.0f\n", sum.RPS, *minRPS)
		return 1
	}
	return 0
}

// buildStreams returns one request generator per sender. Zipf mode samples
// (video, vho) with rank-r weight r^-s over the served ids; trace mode
// regenerates the synthetic workload trace (same recipe and seed as the
// server) and replays its request sequence, filtered to the served
// universe, sharded round-robin across senders.
func buildStreams(mode string, ids []int, vhos, concurrency int, zipfS float64, seed int64, traceVideos int, traceRPD float64) ([]func() (int, int), error) {
	streams := make([]func() (int, int), concurrency)
	switch mode {
	case "zipf":
		w := workload.ZipfWeights(len(ids), zipfS)
		for i := range streams {
			smp := workload.NewSampler(w, seed+int64(i)*1000)
			streams[i] = func() (int, int) {
				return ids[smp.Next()], smp.Intn(vhos)
			}
		}
	case "trace":
		lib := catalog.Generate(catalog.Config{NumVideos: traceVideos, Weeks: 2}, seed+10)
		tr := workload.GenerateTrace(lib, workload.TraceConfig{
			Days: 8, NumVHOs: vhos, RequestsPerVideoPerDay: traceRPD,
		}, seed+20)
		served := make(map[int]bool, len(ids))
		for _, id := range ids {
			served[id] = true
		}
		type req struct{ video, vho int }
		var reqs []req
		for _, r := range tr.Requests {
			if served[int(r.Video)] && int(r.VHO) < vhos {
				reqs = append(reqs, req{int(r.Video), int(r.VHO)})
			}
		}
		if len(reqs) == 0 {
			return nil, fmt.Errorf("trace replay: no trace request targets a served video (mismatched -videos/-seed?)")
		}
		for i := range streams {
			pos := i // round-robin shard: sender i replays reqs[i], reqs[i+c], ...
			streams[i] = func() (int, int) {
				r := reqs[pos%len(reqs)]
				pos += concurrency
				return r.video, r.vho
			}
		}
	}
	return streams, nil
}

// scrapeRouteHist fetches /metrics and extracts the route-endpoint latency
// histogram (nanoseconds). Any failure (no /metrics on the server, parse
// error) returns false — the server-side report is best-effort.
func scrapeRouteHist(client *http.Client, base string) (obs.Hist, bool) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return obs.Hist{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return obs.Hist{}, false
	}
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		return obs.Hist{}, false
	}
	h, err := obs.HistFromProm(samples, obs.PromReqDurName, map[string]string{"endpoint": "route"}, 1e9)
	return h, err == nil
}

func waitHealthy(client *http.Client, base string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not healthy after %s: %w", wait, err)
			}
			return fmt.Errorf("server not healthy after %s", wait)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
