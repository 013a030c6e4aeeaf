package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/serve"
	"vodplace/internal/verify"
)

// roundDeadline bounds one demand round; a round that has neither swapped
// nor been rejected by then is a failed operation.
const roundDeadline = 60 * time.Second

// batch is one POST /demand body, rendered before timing starts, and the
// instance indices of the distinct videos it dirties, ascending.
type batch struct {
	body  []byte
	dirty []int
}

// makeBatches draws every round's updates up front from the traffic seed.
func makeBatches(w *workloadSpec, inst *mip.Instance, rounds int, rng *rand.Rand) ([]batch, error) {
	nv, n := len(inst.Demands), inst.NumVHOs()
	// rank[0] is the instance index of the most-requested video.
	rank := make([]int, nv)
	total := make([]float64, nv)
	for vi := range inst.Demands {
		rank[vi] = vi
		for _, a := range inst.Demands[vi].Agg {
			total[vi] += a
		}
	}
	sort.SliceStable(rank, func(a, b int) bool { return total[rank[a]] > total[rank[b]] })
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(nv-1))

	out := make([]batch, rounds)
	for r := range out {
		var picks []int
		if w.hot {
			picks = make([]int, w.batch)
			for i := range picks {
				picks[i] = rank[zipf.Uint64()]
			}
		} else {
			picks = rng.Perm(nv)[:min(w.batch, nv)]
		}
		updates := make([]serve.DemandUpdate, len(picks))
		seen := make(map[int]bool, len(picks))
		for i, vi := range picks {
			updates[i] = serve.DemandUpdate{Video: inst.Demands[vi].Video, VHO: rng.Intn(n), Add: w.add}
			if !seen[vi] {
				seen[vi] = true
				out[r].dirty = append(out[r].dirty, vi)
			}
		}
		sort.Ints(out[r].dirty)
		body, err := json.Marshal(updates)
		if err != nil {
			return nil, err
		}
		out[r].body = body
	}
	return out, nil
}

// roundStat is what one demand round measured.
type roundStat struct {
	d2sMS, postUS float64
	swapped       bool
	passes        int // /status last_passes after the swap
}

// writer is the demand source: it posts a batch, waits until the server
// either serves a new certified version or counts a rejection, and only then
// posts the next (a closed loop, so batches never coalesce and the solver
// work repeats exactly for a seed).
type writer struct {
	sys    *system
	client *http.Client
	tr     *tracer

	rounds    []roundStat
	attempted int
	failed    int
	firstFail error
}

func newWriter(sys *system, tr *tracer) *writer {
	return &writer{sys: sys, client: &http.Client{Transport: &http.Transport{}}, tr: tr}
}

func (w *writer) close() { w.client.CloseIdleConnections() }

func (w *writer) fail(err error) {
	w.failed++
	if w.firstFail == nil {
		w.firstFail = err
	}
}

// statusReply is the part of GET /status the harness reads.
type statusReply struct {
	LastPasses int `json:"last_passes"`
}

func (w *writer) status() (statusReply, error) {
	var st statusReply
	resp, err := w.client.Get("http://" + w.sys.addr + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /status: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func rejects(st serve.Stats) int64 {
	return st.AuditRejected + st.Unconverged + st.Failed + st.Cancelled
}

// round posts one batch and waits for its outcome. Two operations are
// attempted: the POST (202 expected) and the resolve (a certified swap
// expected).
func (w *writer) round(id int, b *batch, parent int) {
	srv := w.sys.srv
	v0, r0 := srv.Snapshot().Version, rejects(srv.Stats())
	var rs roundStat
	w.attempted += 2

	sp := w.tr.start("POST /demand", parent, id)
	t0 := time.Now()
	resp, err := w.client.Post("http://"+w.sys.addr+"/demand", "application/json", bytes.NewReader(b.body))
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("status %s", resp.Status)
		}
	}
	rs.postUS = float64(time.Since(t0).Nanoseconds()) / 1e3
	w.tr.end(sp)
	if err != nil {
		// Nothing was accepted, so no resolve will follow.
		w.fail(fmt.Errorf("round %d: POST /demand: %w", id, err))
		w.fail(fmt.Errorf("round %d: no resolve", id))
		w.rounds = append(w.rounds, rs)
		return
	}

	sp = w.tr.start("wait_swap", parent, id)
	for polls := 0; ; polls++ {
		if srv.Snapshot().Version > v0 {
			rs.swapped = true
			break
		}
		// Stats takes the server's lock; look at it less often than the
		// lock-free version.
		if polls%8 == 7 {
			if st := srv.Stats(); rejects(st) > r0 {
				w.fail(fmt.Errorf("round %d: resolve rejected: %s", id, st.LastReject))
				break
			}
			if time.Since(t0) > roundDeadline {
				w.fail(fmt.Errorf("round %d: no swap within %s", id, roundDeadline))
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	rs.d2sMS = ms(time.Since(t0))
	w.tr.end(sp)

	if rs.swapped {
		if !srv.Snapshot().Certified {
			w.fail(fmt.Errorf("round %d: swapped snapshot is not certified", id))
		}
		st, err := w.status()
		if err != nil {
			w.fail(fmt.Errorf("round %d: %w", id, err))
		}
		rs.passes = st.LastPasses
	}
	w.rounds = append(w.rounds, rs)
}

// replayer repeats, between rounds and outside the timed interval, the work
// the server's resolver just did inside its own goroutine, so that each
// layer's share of a demand round can be timed from outside: the patch on a
// harness-owned twin instance, then the solve and the audit on the live,
// now-patched instance (the resolver is idle: the writer is a closed loop).
// The solver is bit-deterministic and the replayer carries its own warm
// chain from the same cold result the server was given, so each replay must
// reproduce the server's solve; a mismatch is a failed operation.
type replayer struct {
	opts epf.Options
	warm *epf.WarmState
	twin *mip.Instance
	tr   *tracer

	done     []replayStat // one per completed replay
	mismatch int
}

// replayStat is what one completed replay measured.
type replayStat struct {
	round                     int
	patchMS, solveMS, auditMS float64
	patchCalls, passes        int
	stats                     epf.Stats
	videos                    int
	converged                 bool
	gap                       float64
}

// col extracts one column of the completed replays.
func (rp *replayer) col(f func(*replayStat) float64) []float64 {
	out := make([]float64, len(rp.done))
	for i := range rp.done {
		out[i] = f(&rp.done[i])
	}
	return out
}

func newReplayer(sys *system, tr *tracer) (*replayer, error) {
	twin, err := sys.build.Instance(sys.trace, placementDay)
	if err != nil {
		return nil, err
	}
	return &replayer{opts: sys.opts, warm: sys.cold.Warm, twin: twin, tr: tr}, nil
}

// replay re-does round id's resolve. served is the snapshot that round
// swapped in and passes the pass count /status reported for it.
func (rp *replayer) replay(id int, b *batch, served *serve.Snapshot, passes int, parent int) error {
	inst := served.Inst

	// Dense staging rows are rebuilt from the live instance outside the
	// timed region; the server keeps them in its demand state.
	conc := make([][][]float64, len(b.dirty))
	for i, vi := range b.dirty {
		conc[i] = denseConc(&inst.Demands[vi], inst.Slices)
	}
	rs := replayStat{round: id, patchCalls: len(b.dirty), videos: len(inst.Demands)}
	sp := rp.tr.start("mip.ApplyDemandDelta", parent, id)
	t := time.Now()
	for i, vi := range b.dirty {
		d := &inst.Demands[vi]
		if err := rp.twin.ApplyDemandDelta(vi, d.Js, d.Agg, conc[i]); err != nil {
			return fmt.Errorf("replay %d: patch: %w", id, err)
		}
	}
	rs.patchMS = ms(time.Since(t))
	rp.tr.end(sp)

	opts := rp.opts
	opts.Warm = rp.warm
	sp = rp.tr.start("epf.SolveIntegerContext", parent, id)
	t = time.Now()
	res, err := epf.SolveIntegerContext(context.Background(), inst, opts)
	rs.solveMS = ms(time.Since(t))
	rp.tr.end(sp)
	if err != nil {
		return fmt.Errorf("replay %d: solve: %w", id, err)
	}
	rp.warm = res.Warm

	sp = rp.tr.start("verify.Audit", parent, id)
	t = time.Now()
	rep := verify.Audit(inst, res)
	rs.auditMS = ms(time.Since(t))
	rp.tr.end(sp)
	if !rep.Ok() {
		return fmt.Errorf("replay %d: audit: %w", id, rep.Err())
	}
	rs.passes, rs.stats, rs.converged, rs.gap = res.Passes, res.Stats, res.Converged, res.Gap
	rp.done = append(rp.done, rs)

	if got, want := res.Sol.Objective(), served.Sol.Objective(); res.Passes != passes || got != want {
		rp.mismatch++
		return fmt.Errorf("replay %d: %d passes, objective %v; server did %d passes, objective %v",
			id, res.Passes, got, passes, want)
	}
	return nil
}
