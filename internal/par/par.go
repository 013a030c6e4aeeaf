// Package par is the shared concurrent execution runtime for the solver,
// experiment and simulation layers: a persistent worker pool with stable
// worker identities and a work-conserving index-range fan-out primitive with
// cooperative context cancellation.
//
// The EPF solver's speed claim rests on block subproblems parallelizing;
// before this package each fan-out respawned goroutines and reallocated its
// facility-location scratch per chunk. A Pool is created once per solve and
// reused for every chunk, pass and bound evaluation, so a fan-out costs two
// channel operations per worker instead of goroutine spawns, and scratch
// allocated on a worker's first block survives for the whole solve. A worker
// polls for its next wake for a while before it parks, so back-to-back
// fan-outs do not pay the operating system's wake-up latency each time.
//
// Determinism contract: Run hands out index ranges to whichever worker asks
// first, so which worker runs an index — and which indices share a range — is
// unspecified and changes from run to run. Callers write results into
// caller-owned, index-addressed slots, and any reduction over those results
// must happen in index order on the caller's goroutine. Under that contract
// neither the worker count nor the schedule changes numeric output.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// claimsPerWorker sets the claim size of a fan-out: [0, n) is handed out in
// ranges of n/(claimsPerWorker·workers) indices (at least one), so a worker
// that drew cheap indices goes back for more while another finishes a costly
// one, and the idle tail of a fan-out is at most one claim.
const claimsPerWorker = 64

// fanClosed is the flag in Pool.state that closes the current fan-out to
// workers that have not joined it yet; the bits below it count the workers
// inside it.
const fanClosed = 1 << 32

// Pool is a fixed-size worker pool. Workers 1..n-1 are goroutines spawned
// once by New that live until Close; worker 0 is the goroutine calling Run,
// which claims ranges alongside them instead of idling at the barrier. Worker
// indices are stable across Run calls, so callers may keep per-worker state
// in a slice indexed by worker without locks.
//
// A Pool serializes fan-outs: it is not safe for concurrent Run calls from
// multiple goroutines. Each solve owns its pool.
type Pool struct {
	workers int
	wake    []chan struct{}
	live    sync.WaitGroup
	closed  bool

	// The current fan-out, staged in fields rather than sent per worker so
	// Run allocates nothing — it is on the solver's zero-allocation
	// steady-state path. next is the claim cursor. A woken worker joins
	// through state and reads the staged fields only once joined; Run closes
	// state when its own claims run dry and waits on left only for workers
	// that joined, so a worker that wakes after the work is done never holds
	// the caller up. Safe because a Pool serializes fan-outs by contract.
	fn    func(worker, lo, hi int)
	n     int
	claim int
	next  atomic.Int64
	state atomic.Int64
	left  chan struct{}
}

// New returns a pool with n workers; n < 1 selects runtime.NumCPU().
func New(n int) *Pool {
	if n < 1 {
		n = runtime.NumCPU()
	}
	p := &Pool{workers: n, wake: make([]chan struct{}, n), left: make(chan struct{}, 1)}
	p.state.Store(fanClosed)
	for w := 1; w < n; w++ {
		ch := make(chan struct{}, 1)
		p.wake[w] = ch
		p.live.Add(1)
		go func(w int, ch chan struct{}) {
			defer p.live.Done()
			for await(ch) {
				if !p.join() {
					continue // woken for a fan-out that has already closed
				}
				p.drain(w)
				if p.state.Add(-1) == fanClosed {
					p.left <- struct{}{}
				}
			}
		}(w, ch)
	}
	return p
}

// join admits the calling worker to the current fan-out unless it is closed.
func (p *Pool) join() bool {
	for {
		s := p.state.Load()
		if s&fanClosed != 0 {
			return false
		}
		if p.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// drain claims ranges of the current fan-out for worker w until [0, n) is
// used up.
func (p *Pool) drain(w int) {
	fn, n, c := p.fn, p.n, p.claim
	for {
		lo := int(p.next.Add(int64(c))) - c
		if lo >= n {
			return
		}
		fn(w, lo, min(lo+c, n))
	}
}

// spinFor is how long a worker polls its wake channel, yielding the
// processor between polls, before it parks on it. A parked worker took
// 90–590 µs from the wake to its first claim on a 2-vCPU VM, about a descent
// chunk's whole fan-out, while the serial step between two chunks is shorter
// than spinFor; a polling one took 8–26 µs.
const spinFor = time.Millisecond

// await blocks until ch delivers a wake (true) or is closed (false), polling
// it for spinFor before parking.
func await(ch chan struct{}) bool {
	for t := time.Now(); time.Since(t) < spinFor; runtime.Gosched() {
		select {
		case _, ok := <-ch:
			return ok
		default:
		}
	}
	_, ok := <-ch
	return ok
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Run executes fn(worker, lo, hi) over disjoint ranges that together cover
// [0, n) exactly once, blocking until all complete. The caller, as worker 0,
// and the pool's workers claim small ranges from a shared cursor, so no
// worker idles while indices remain; with one worker the whole range runs
// inline.
//
// If ctx is already cancelled nothing is dispatched and ctx.Err() is
// returned. Once dispatched a fan-out always runs to completion — fns that
// process long ranges should poll ctx themselves and return early; Run
// still waits for them, it never abandons a worker mid-write.
func (p *Pool) Run(ctx context.Context, n int, fn func(worker, lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.workers == 1 {
		fn(0, 0, n)
		return nil
	}
	c := max(1, n/(claimsPerWorker*p.workers))
	p.fn, p.n, p.claim = fn, n, c
	p.next.Store(0)
	p.state.Store(0)
	for w := 1; w < min(p.workers, (n+c-1)/c); w++ {
		select {
		case p.wake[w] <- struct{}{}:
		default: // a wake is still pending; the worker joins when it runs
		}
	}
	p.drain(0)
	if p.state.Add(fanClosed) != fanClosed {
		<-p.left
	}
	p.fn = nil
	return nil
}

// Close shuts the workers down and waits for them to exit. The pool must
// not be used afterwards. Close is idempotent.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.wake[1:] {
		close(ch)
	}
	p.live.Wait()
}
