package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"vodplace/internal/obs"
)

// maxDemandBody bounds a POST /demand body (1 MiB is ~20k update entries).
const maxDemandBody = 1 << 20

// demandScratch is one pooled POST /demand decode state: the raw-body read
// buffer (grows toward maxDemandBody and stays) and the decoded batch
// slice, both reused across requests so a steady update stream stops
// churning the heap. Contents are only valid until the scratch goes back to
// the pool — apply/validate copy what they keep, so the handler can defer
// the Put.
type demandScratch struct {
	body    []byte
	updates []DemandUpdate
}

// readDemandBatch reads a request body into sc.body (capped at
// maxDemandBody via MaxBytesReader, which also closes the connection on
// abuse) and decodes it into sc.updates, reusing both buffers' capacity. The
// body is one JSON array and nothing else: anything but whitespace after it
// is an error, so a client that concatenates batches hears about the second
// one instead of losing it.
func readDemandBatch(w http.ResponseWriter, body io.ReadCloser, sc *demandScratch) error {
	lim := http.MaxBytesReader(w, body, maxDemandBody)
	sc.body = sc.body[:0]
	for {
		if len(sc.body) == cap(sc.body) {
			sc.body = append(sc.body, 0)[:len(sc.body)]
		}
		n, err := lim.Read(sc.body[len(sc.body):cap(sc.body)])
		sc.body = sc.body[:len(sc.body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	dec := json.NewDecoder(bytes.NewReader(sc.body))
	dec.DisallowUnknownFields()
	// encoding/json reuses the backing elements when the slice re-grows and
	// leaves fields absent from the JSON at their prior values, so the
	// reused capacity must be zeroed or an update that omits "add" would
	// inherit the value a previous request decoded into the same slot.
	clear(sc.updates[:cap(sc.updates)])
	sc.updates = sc.updates[:0]
	if err := dec.Decode(&sc.updates); err != nil {
		return err
	}
	end := int(dec.InputOffset())
	if rest := bytes.TrimLeft(sc.body[end:], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("unexpected data after the batch at offset %d", len(sc.body)-len(rest))
	}
	return nil
}

// Handler returns the service's HTTP surface:
//
//	GET  /route?video=<id>&vho=<office> — cheapest serving copy (hot path)
//	GET  /placement                     — the full served placement
//	GET  /healthz                       — liveness
//	GET  /status                        — version, counters, solve stats
//	GET  /metrics                       — Prometheus text exposition
//	POST /demand                        — streamed demand updates
//
// Contracts: malformed /route parameters are 400; a numeric but unknown
// video or vho, and (video, vho) pairs with no open copy, are 404 with an
// "error" field; wrong methods are 405; a /demand batch is validated as a
// whole and rejected atomically with 400 (413 when the body is over
// maxDemandBody).
//
// Every endpoint records its latency and status class into a per-endpoint
// obs.ReqStat served back through /metrics. /route records inline (its
// zero-allocation contract covers the instrument); the cold endpoints go
// through the instrumented wrapper.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/route", s.handleRoute)
	mux.HandleFunc("/placement", instrumented(s.reqPlacement, s.handlePlacement))
	mux.HandleFunc("/healthz", instrumented(s.reqHealthz, s.handleHealthz))
	mux.HandleFunc("/status", instrumented(s.reqStatus, s.handleStatus))
	mux.HandleFunc("/demand", instrumented(s.reqDemand, s.handleDemand))
	mux.Handle("/metrics", obs.PromHandler(s.writeMetrics))
	return mux
}

// statusRecorder captures the status code a handler writes so the wrapper
// can classify it (net/http offers no readback).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrumented wraps a cold-path handler with latency/status recording.
// The wrapper allocates one statusRecorder per request, which is why the
// hot /route path records inline instead.
func instrumented(st *obs.ReqStat, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(sr, r)
		st.Record(sr.status, time.Since(t0))
	}
}

// writeMetrics renders the /metrics body: the registry families first (the
// counters the daemon always had, plus gauges and any recorder-side
// histograms when the registry is shared), then the per-endpoint request
// families.
func (s *Server) writeMetrics(w io.Writer) {
	s.metrics.WritePrometheus(w)
	obs.WriteReqProm(w, s.reqStats)
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		s.reqRoute.Record(http.StatusMethodNotAllowed, time.Since(t0))
		return
	}
	s.routeRequests.Add(1)
	snap := s.store.Load()
	video, vho, ok := parseRouteQuery(r.URL.RawQuery)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if !ok {
		s.routeErrors.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad request: want /route?video=<id>&vho=<office>"}` + "\n")) //nolint:errcheck
		s.reqRoute.Record(http.StatusBadRequest, time.Since(t0))
		return
	}
	bp := s.bufPool.Get().(*[]byte)
	buf, status := snap.AppendRoute((*bp)[:0], video, vho)
	if status != http.StatusOK {
		s.routeErrors.Add(1)
		w.WriteHeader(status)
	}
	w.Write(buf) //nolint:errcheck // nothing useful to do on a client hangup
	*bp = buf
	s.bufPool.Put(bp)
	s.reqRoute.Record(status, time.Since(t0))
}

// placementJSON is the /placement response shape.
type placementJSON struct {
	Version   uint64         `json:"version"`
	Certified bool           `json:"certified"`
	Videos    []placementRow `json:"videos"`
}

type placementRow struct {
	Video int   `json:"video"`
	Open  []int `json:"open"`
}

func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	snap := s.store.Load()
	out := placementJSON{
		Version:   snap.Version,
		Certified: snap.Certified,
		Videos:    make([]placementRow, len(snap.Sol.Videos)),
	}
	for vi := range snap.Sol.Videos {
		row := placementRow{Video: snap.Inst.Demands[vi].Video, Open: []int{}}
		for _, f := range snap.Sol.Videos[vi].Open {
			if f.V >= openY {
				row.Open = append(row.Open, int(f.I))
			}
		}
		out.Videos[vi] = row
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n")) //nolint:errcheck
}

// statusJSON is the /status response shape.
type statusJSON struct {
	Version    uint64  `json:"version"`
	Certified  bool    `json:"certified"`
	BuiltUnix  int64   `json:"built_unix"`
	AgeSeconds float64 `json:"age_seconds"`
	Videos     int     `json:"videos"`
	VHOs       int     `json:"vhos"`
	Links      int     `json:"links"`
	Slices     int     `json:"slices"`
	LastPasses int     `json:"last_passes"`
	LastGapPct float64 `json:"last_gap_pct"`
	// LastLPMS and LastRoundMS say where the last swapped-in solve spent its
	// time: the LP descent and the integer rounding + polish. LastLBMS is the
	// part of the descent spent evaluating Lagrangian bounds.
	LastLPMS    float64 `json:"last_lp_ms"`
	LastLBMS    float64 `json:"last_lb_ms"`
	LastRoundMS float64 `json:"last_round_ms"`
	// ResumedFrac is the fraction of the last swapped-in solve's videos that
	// started from the previous solve's LP point (0 for the initial solve).
	ResumedFrac float64 `json:"resumed_frac"`
	// LastRound says which rounding the last swapped-in solve ran —
	// "resumed", "rejected" or "full" (obs.ServeResolve.Round) — the
	// incumbent-over-bound ratio it was decided at and the reference a
	// resume had to meet (0: none tried).
	LastRound      string  `json:"last_round"`
	LastRoundRatio float64 `json:"last_round_ratio"`
	LastRoundRef   float64 `json:"last_round_ref"`
	LastReject     string  `json:"last_reject"`

	RouteRequests int64 `json:"route_requests"`
	RouteErrors   int64 `json:"route_errors"`
	DemandUpdates int64 `json:"demand_updates"`

	Resolves struct {
		Started       int64 `json:"started"`
		Swapped       int64 `json:"swapped"`
		AuditRejected int64 `json:"audit_rejected"`
		Unconverged   int64 `json:"unconverged"`
		Cancelled     int64 `json:"cancelled"`
		Failed        int64 `json:"failed"`
	} `json:"resolves"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	snap := s.store.Load()
	s.mu.Lock()
	last, lastGap, lastReject := s.lastSwapped, s.lastGap, s.lastReject
	s.mu.Unlock()
	out := statusJSON{
		Version:        snap.Version,
		Certified:      snap.Certified,
		BuiltUnix:      snap.BuiltAt.Unix(),
		AgeSeconds:     time.Since(snap.BuiltAt).Seconds(),
		Videos:         snap.NumVideos(),
		VHOs:           snap.NumVHOs(),
		Links:          snap.Inst.G.NumLinks(),
		Slices:         snap.Inst.Slices,
		LastPasses:     last.Passes,
		LastGapPct:     100 * lastGap,
		LastLPMS:       last.LPMS,
		LastLBMS:       last.LBMS,
		LastRoundMS:    last.RoundMS,
		ResumedFrac:    last.ResumedFrac,
		LastRound:      last.Round,
		LastRoundRatio: last.RoundRatio,
		LastRoundRef:   last.RoundRef,
		LastReject:     lastReject,
		RouteRequests:  s.routeRequests.Value(),
		RouteErrors:    s.routeErrors.Value(),
		DemandUpdates:  s.demandUpdates.Value(),
	}
	out.Resolves.Started = s.resolvesStarted.Value()
	out.Resolves.Swapped = s.resolvesSwapped.Value()
	out.Resolves.AuditRejected = s.auditRejected.Value()
	out.Resolves.Unconverged = s.unconverged.Value()
	out.Resolves.Cancelled = s.resolvesCancel.Value()
	out.Resolves.Failed = s.resolvesFailed.Value()
	writeJSON(w, http.StatusOK, out)
}

// demandAck is the POST /demand success response.
type demandAck struct {
	Accepted int    `json:"accepted"`
	Version  uint64 `json:"version"`
}

func (s *Server) handleDemand(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	sc := s.demandPool.Get().(*demandScratch)
	defer s.demandPool.Put(sc)
	if err := readDemandBatch(w, r.Body, sc); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed demand body: " + err.Error()})
		return
	}
	updates := sc.updates
	if len(updates) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "empty demand batch"})
		return
	}
	s.mu.Lock()
	if err := s.state.validate(updates); err != nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	s.state.apply(updates)
	s.dirty = true
	drift := s.state.drift
	s.mu.Unlock()
	s.demandUpdates.Add(int64(len(updates)))
	s.cfg.Recorder.RecordServeDemand(obs.ServeDemand{Batch: len(updates), Drift: drift})
	s.kickResolve()
	writeJSON(w, http.StatusAccepted, demandAck{Accepted: len(updates), Version: s.store.Load().Version})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // nothing useful to do on a client hangup
}
