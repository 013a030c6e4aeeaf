package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"vodplace/internal/serve"
)

// routeKey is one /route question.
type routeKey struct{ video, vho int }

// heldOutKeys is the (video, vho) stream of the trace day the placement was
// not built from, in a seed-shuffled order: what the offices ask next.
func heldOutKeys(sys *system, rng *rand.Rand) []routeKey {
	day := sys.trace.DaySlice(placementDay, placementDay+1).Requests
	keys := make([]routeKey, len(day))
	for i, r := range day {
		keys[i] = routeKey{int(r.Video), int(r.VHO)}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// reader is one VHO front-end: one goroutine on one keep-alive connection
// that sends its next request only after checking the previous answer (a
// closed loop: callers of /route wait for the reply). Request bytes are
// rendered before timing starts, and the client speaks just enough HTTP/1.1
// to read net/http's replies, so the CPU goes to the server.
type reader struct {
	sys  *system
	conn net.Conn
	br   *bufio.Reader
	keys []routeKey
	reqs [][]byte
	next int

	// The oracle recomputes every answer from the snapshot the reply names.
	// A swap can land between two requests, so the last two are kept.
	cur, prev *serve.Snapshot
	body      []byte
	want      []byte

	// latNS holds every timed answer (32 bits of nanoseconds reach 4.2 s)
	// and doneUS when it completed, in microseconds since epoch, so that a
	// slice can be cut into windows afterwards.
	latNS     []uint32
	doneUS    []uint32
	epoch     time.Time
	attempted int
	failed    int
	firstFail error

	tr     *tracer
	parent int
}

func newReader(sys *system, keys []routeKey, tr *tracer) (*reader, error) {
	conn, err := net.Dial("tcp", sys.addr)
	if err != nil {
		return nil, err
	}
	r := &reader{
		sys: sys, conn: conn, br: bufio.NewReaderSize(conn, 4096),
		keys: keys, reqs: make([][]byte, len(keys)),
		cur: sys.srv.Snapshot(), tr: tr, epoch: time.Now(),
	}
	for i, k := range keys {
		r.reqs[i] = []byte(fmt.Sprintf("GET /route?video=%d&vho=%d HTTP/1.1\r\nHost: %s\r\n\r\n", k.video, k.vho, sys.addr))
	}
	return r, nil
}

func (r *reader) close() { r.conn.Close() }

func (r *reader) fail(err error) {
	r.failed++
	if r.firstFail == nil {
		r.firstFail = err
	}
}

// run sends requests until stop is set. A transport error ends the reader:
// the connection's framing is lost.
func (r *reader) run(stop *atomic.Bool) {
	for !stop.Load() {
		if !r.one() {
			return
		}
	}
}

// one sends the next request, times it, and checks the answer. It returns
// false on a transport error.
func (r *reader) one() bool {
	i := r.next
	if r.next++; r.next == len(r.keys) {
		r.next = 0
	}
	r.attempted++
	sp := 0
	if r.tr != nil && r.attempted%64 == 0 {
		sp = r.tr.start("GET /route", r.parent, 0)
	}
	t0 := time.Now()
	if _, err := r.conn.Write(r.reqs[i]); err != nil {
		r.fail(fmt.Errorf("route write: %w", err))
		return false
	}
	status, err := r.readResponse()
	d := time.Since(t0)
	if sp != 0 {
		r.tr.end(sp)
	}
	if err != nil {
		r.fail(fmt.Errorf("route read: %w", err))
		return false
	}
	if err := r.check(r.keys[i], status); err != nil {
		r.fail(err)
		return true
	}
	r.latNS = append(r.latNS, uint32(min(d.Nanoseconds(), math.MaxUint32)))
	r.doneUS = append(r.doneUS, uint32(t0.Add(d).Sub(r.epoch).Microseconds()))
	return true
}

var (
	contentLength = []byte("Content-Length: ")
	versionKey    = []byte(`"version":`)
)

// readResponse reads one reply with a Content-Length body into r.body.
func (r *reader) readResponse() (status int, err error) {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 {
		return 0, fmt.Errorf("short status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("status line %q", line)
	}
	n := -1
	for {
		line, err = r.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		if bytes.HasPrefix(line, contentLength) {
			n, err = strconv.Atoi(string(bytes.TrimSpace(line[len(contentLength):])))
			if err != nil {
				return 0, fmt.Errorf("header %q", line)
			}
		}
	}
	if n < 0 {
		return 0, fmt.Errorf("reply without Content-Length")
	}
	if cap(r.body) < n {
		r.body = make([]byte, n)
	}
	r.body = r.body[:n]
	_, err = io.ReadFull(r.br, r.body)
	return status, err
}

// check is the answer oracle: a served (video, vho) must get a 200 whose
// body is byte-equal to Snapshot.AppendRoute for the version it names.
func (r *reader) check(k routeKey, status int) error {
	if status != 200 {
		return fmt.Errorf("route video=%d vho=%d: status %d: %s", k.video, k.vho, status, r.body)
	}
	at := bytes.LastIndex(r.body, versionKey)
	if at < 0 {
		return fmt.Errorf("route video=%d vho=%d: no version in %q", k.video, k.vho, r.body)
	}
	digits := r.body[at+len(versionKey):]
	if end := bytes.IndexByte(digits, '}'); end >= 0 {
		digits = digits[:end]
	}
	version, err := strconv.ParseUint(string(digits), 10, 64)
	if err != nil {
		return fmt.Errorf("route video=%d vho=%d: version in %q", k.video, k.vho, r.body)
	}
	if version != r.cur.Version && (r.prev == nil || version != r.prev.Version) {
		if s := r.sys.srv.Snapshot(); s.Version != r.cur.Version {
			r.prev, r.cur = r.cur, s
		}
	}
	snap := r.cur
	if version != snap.Version {
		snap = r.prev
	}
	if snap == nil || version != snap.Version {
		return fmt.Errorf("route video=%d vho=%d: answer names version %d, serving %d", k.video, k.vho, version, r.cur.Version)
	}
	var want int
	r.want, want = snap.AppendRoute(r.want[:0], k.video, k.vho)
	if want != 200 || !bytes.Equal(r.body, r.want) {
		return fmt.Errorf("route video=%d vho=%d: got %q, snapshot v%d says %q", k.video, k.vho, r.body, version, r.want)
	}
	return nil
}

// start runs the reader on its own goroutine until the returned function is
// called. That function stops it, waits, and reports how long it ran.
func (r *reader) start() (stopAndWait func() time.Duration) {
	var stop atomic.Bool
	done := make(chan struct{})
	t0 := time.Now()
	go func() {
		defer close(done)
		r.run(&stop)
	}()
	return func() time.Duration {
		stop.Store(true)
		<-done
		return time.Since(t0)
	}
}

// routeWindow is the length of one window of answers: about 1400 at 14 us
// an answer, so that a window's median is good to 1% and the host's fast
// stretches, which can be as short as a few tens of milliseconds, fill some
// windows whole. sliceWarmup is what a read slice runs before it is timed.
const (
	routeWindow = 20 * time.Millisecond
	sliceWarmup = 100 * time.Millisecond
)

// window is what the reader timed in one routeWindow; its answers are
// all[from:to] of the routeWindows that holds it, ascending.
type window struct {
	rps, p50US float64
	from, to   int
}

// routeWindows gathers the reader's answers window by window.
type routeWindows struct {
	wins []window
	all  []uint32
}

// take cuts what the reader timed between from and from+d into whole
// windows, adds them, and forgets every answer the reader holds.
func (rw *routeWindows) take(r *reader, from time.Time, d time.Duration) {
	byWin := make([][]uint32, d/routeWindow)
	base := from.Sub(r.epoch)
	for i, ns := range r.latNS {
		at := time.Duration(r.doneUS[i])*time.Microsecond - base
		if w := int(at / routeWindow); at >= 0 && w < len(byWin) {
			byWin[w] = append(byWin[w], ns)
		}
	}
	r.latNS, r.doneUS = r.latNS[:0], r.doneUS[:0]
	for _, lat := range byWin {
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		rw.wins = append(rw.wins, window{
			rps:   float64(len(lat)) / routeWindow.Seconds(),
			p50US: float64(percentile(lat, 0.5)) / 1e3,
			from:  len(rw.all), to: len(rw.all) + len(lat),
		})
		rw.all = append(rw.all, lat...)
	}
}

// routeStats summarises windows: rps and p50US are medians over the windows
// kept, p99US is taken over the answers of those windows together, p999US
// over every answer of every window, and samples counts the latter.
type routeStats struct {
	rps, p50US, p99US, p999US float64
	samples, windows, kept    int
}

// fastTolerance is how far above the run's best windows (the 2nd percentile
// of the windows' medians) a window's median may lie for the window to count
// as one the host left alone.
const fastTolerance = 1.05

// stats summarises the windows; with fastOnly, only those the host left
// alone. On the host this runs on a window is in one of two modes, 14.0 us
// an answer or 21 to 22 us, each to within 1%, and flips between them every
// second or so. The slow mode is not the program's: it makes no more context
// switches (146 in 43 000 answers), it survives pinning the process to
// either CPU, nothing else runs in the guest, and a busy loop on the other
// vCPU brings it on — the host has put a busy neighbour on the same core.
// How many windows it takes is the host's doing too (one in ten in a quiet
// hour, more than nine in ten in a busy one), so a median over all windows
// reads 14 or 21 us by the hour, while the fast windows read the same to 2%
// as long as there are a few. Choosing them by their median rather than by
// their answer count keeps the choice from favouring windows without slow
// answers, so that p99 means the same in a quiet hour and a busy one. A
// change to the code moves every window, the fast ones too.
func (rw *routeWindows) stats(fastOnly bool) routeStats {
	st := routeStats{samples: len(rw.all), windows: len(rw.wins)}
	if st.windows == 0 {
		return st
	}
	limit := math.Inf(1)
	if fastOnly {
		p50s := make([]float64, len(rw.wins))
		for i, w := range rw.wins {
			p50s[i] = w.p50US
		}
		slices.Sort(p50s)
		limit = fastTolerance * percentile(p50s, 0.02)
	}
	var rps, p50 []float64
	var lat []uint32
	for _, w := range rw.wins {
		if w.p50US <= limit {
			rps, p50 = append(rps, w.rps), append(p50, w.p50US)
			lat = append(lat, rw.all[w.from:w.to]...)
		}
	}
	slices.Sort(lat)
	st.kept = len(rps)
	st.rps, st.p50US = median(rps), median(p50)
	st.p99US = float64(percentile(lat, 0.99)) / 1e3
	all := slices.Clone(rw.all)
	slices.Sort(all)
	st.p999US = float64(percentile(all, 0.999)) / 1e3
	return st
}
