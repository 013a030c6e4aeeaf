// Package par is the shared concurrent execution runtime for the solver,
// experiment and simulation layers: a persistent worker pool with stable
// worker identities and an index-range fan-out primitive with cooperative
// context cancellation.
//
// The EPF solver's speed claim rests on block subproblems parallelizing;
// before this package each fan-out respawned goroutines and reallocated its
// facility-location scratch per chunk. A Pool is created once per solve and
// reused for every chunk, pass and bound evaluation, so a fan-out costs two
// channel operations per worker instead of goroutine spawns, and scratch
// allocated on a worker's first block survives for the whole solve.
//
// Determinism contract: Run partitions work by index range and callers
// write results into caller-owned, index-addressed slots; any reduction
// over those results must happen in index order on the caller's goroutine.
// Under that contract the worker count never changes numeric output.
package par

import (
	"context"
	"runtime"
	"sync"
)

// job is one contiguous index range dispatched to a worker.
type job struct {
	fn     func(worker, lo, hi int)
	lo, hi int
	done   *sync.WaitGroup
}

// Pool is a fixed-size worker pool. Workers are spawned once by New and live
// until Close; worker indices are stable across Run calls, so callers may
// keep per-worker state in a slice indexed by worker without locks.
//
// A Pool serializes fan-outs: it is not safe for concurrent Run calls from
// multiple goroutines. Each solve owns its pool.
type Pool struct {
	workers int
	jobs    []chan job
	live    sync.WaitGroup
	closed  bool
	// done is the fan-out completion barrier, a field rather than a Run
	// local so the WaitGroup doesn't escape to the heap on every Run call —
	// Run is on the solver's zero-allocation steady-state path. Safe because
	// a Pool serializes fan-outs by contract.
	done sync.WaitGroup

	// tasks/taskFn stage the current RunTasks fan-out; fields rather than
	// closure captures so RunTasks allocates nothing in steady state (the
	// single taskRunner closure below is created once in New). Safe because
	// a Pool serializes fan-outs by contract.
	tasks      []Task
	taskFn     func(worker, tag, lo, hi int)
	taskRunner func(worker, lo, hi int)
}

// Task is one tagged contiguous index range for RunTasks. Tag identifies the
// range to the callee — in the EPF solver, the index of a reduction leaf,
// which names the leaf's partial-sum slot.
type Task struct {
	Tag, Lo, Hi int
}

// New returns a pool with n workers; n < 1 selects runtime.NumCPU().
func New(n int) *Pool {
	if n < 1 {
		n = runtime.NumCPU()
	}
	p := &Pool{workers: n, jobs: make([]chan job, n)}
	for w := 0; w < n; w++ {
		ch := make(chan job, 1)
		p.jobs[w] = ch
		p.live.Add(1)
		go func(w int, ch chan job) {
			defer p.live.Done()
			for j := range ch {
				j.fn(w, j.lo, j.hi)
				j.done.Done()
			}
		}(w, ch)
	}
	// One strided runner shared by every RunTasks fan-out: worker w executes
	// tasks w, w+W, w+2W, … so task order within a worker follows slice order
	// and no per-call closure is needed.
	p.taskRunner = func(w, _, _ int) {
		ts, fn := p.tasks, p.taskFn
		for i := w; i < len(ts); i += p.workers {
			t := ts[i]
			fn(w, t.Tag, t.Lo, t.Hi)
		}
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Run partitions [0, n) into at most Workers() contiguous ranges and
// executes fn(worker, lo, hi) for each non-empty range, one range per
// worker, blocking until all ranges complete. With one worker the range
// runs inline on the caller's goroutine.
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
	per := (n + p.workers - 1) / p.workers
	for w := 0; w < p.workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		p.done.Add(1)
		p.jobs[w] <- job{fn: fn, lo: lo, hi: hi, done: &p.done}
	}
	p.done.Wait()
	return nil
}

// RunTasks executes an explicit task list: fn(worker, tag, lo, hi) runs once
// per task, with tasks assigned to workers in strided slice order (task i on
// worker i mod Workers()), blocking until all complete. With one worker the
// tasks run inline in slice order. Like Run, it allocates nothing in steady
// state and returns ctx.Err() without dispatching when ctx is already
// cancelled.
//
// The same determinism contract as Run applies: results go to caller-owned,
// index-addressed slots and reductions happen in index order on the caller's
// goroutine, so neither the worker count nor the task decomposition changes
// numeric output. RunTasks exists for callers whose split is fixed by the data
// rather than the pool — e.g. fixed-width ranges, more of them than workers,
// striped so every worker's share spans the catalog — where Run's flat split
// would follow the worker count.
func (p *Pool) RunTasks(ctx context.Context, tasks []Task, fn func(worker, tag, lo, hi int)) error {
	if len(tasks) == 0 {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.workers == 1 {
		for _, t := range tasks {
			fn(0, t.Tag, t.Lo, t.Hi)
		}
		return nil
	}
	p.tasks, p.taskFn = tasks, fn
	nw := p.workers
	if len(tasks) < nw {
		nw = len(tasks)
	}
	for w := 0; w < nw; w++ {
		p.done.Add(1)
		p.jobs[w] <- job{fn: p.taskRunner, done: &p.done}
	}
	p.done.Wait()
	p.tasks, p.taskFn = nil, nil
	return nil
}

// Close shuts the workers down and waits for them to exit. The pool must
// not be used afterwards. Close is idempotent.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.jobs {
		close(ch)
	}
	p.live.Wait()
}
