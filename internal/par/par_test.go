package par

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, workers - 1, workers, 127, 128, 2000} {
			hits := make([]int32, n)
			err := p.Run(context.Background(), n, func(w, lo, hi int) {
				if w < 0 || w >= workers || lo < 0 || lo >= hi || hi > n {
					t.Errorf("workers=%d n=%d: worker %d got range [%d,%d)", workers, n, w, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

// Run is work-conserving: a worker stuck on one index does not hold up the
// rest. Index 0 waits until every other index has run, so a schedule that
// fixes a worker's share before the fan-out starts — and puts any other
// index behind index 0 on its worker — never finishes; the timeout turns
// that into a failure instead of a hang. At this n every claim is a single
// index.
func TestRunIsWorkConserving(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		p := New(workers)
		n := 4 * workers
		var left atomic.Int32
		left.Store(int32(n - 1))
		others := make(chan struct{})
		err := p.Run(context.Background(), n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if i != 0 {
					if left.Add(-1) == 0 {
						close(others)
					}
					continue
				}
				select {
				case <-others:
				case <-time.After(5 * time.Second):
					t.Errorf("workers=%d: index 0 still waiting on %d other indices after 5s", workers, left.Load())
				}
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		p.Close()
	}
}

func TestRunWorkerIndicesDistinct(t *testing.T) {
	p := New(4)
	defer p.Close()
	seen := make(map[int]int) // worker -> range size
	var mu sync.Mutex
	if err := p.Run(context.Background(), 100, func(w, lo, hi int) {
		mu.Lock()
		seen[w] += hi - lo
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for w, sz := range seen {
		if w < 0 || w >= 4 {
			t.Errorf("worker index %d out of range", w)
		}
		total += sz
	}
	if total != 100 {
		t.Errorf("ranges cover %d indices, want 100", total)
	}
}

func TestRunEmptyAndOversizedPool(t *testing.T) {
	p := New(8)
	defer p.Close()
	if err := p.Run(context.Background(), 0, func(_, _, _ int) {
		t.Error("fn invoked for n=0")
	}); err != nil {
		t.Fatal(err)
	}
	// n < workers: each non-empty range is a single index.
	var count int32
	if err := p.Run(context.Background(), 3, func(_, lo, hi int) {
		if hi-lo != 1 {
			t.Errorf("range [%d,%d) not a single index", lo, hi)
		}
		atomic.AddInt32(&count, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("%d ranges, want 3", count)
	}
}

func TestRunCancelledContext(t *testing.T) {
	p := New(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := p.Run(ctx, 10, func(_, _, _ int) { called = true })
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Error("fn dispatched despite cancelled context")
	}
}

// task is one tagged index range of an explicit task list. A caller whose
// split is fixed by the data rather than the pool runs such a list through Run
// over task indices; the tests below pin that idiom.
type task struct{ tag, lo, hi int }

// runTasks runs fn once per task of ts through Run, one Run index per task.
func runTasks(ctx context.Context, p *Pool, ts []task, fn func(worker, tag, lo, hi int)) error {
	return p.Run(ctx, len(ts), func(w, lo, hi int) {
		for _, t := range ts[lo:hi] {
			fn(w, t.tag, t.lo, t.hi)
		}
	})
}

func TestRunTasksCoversEveryTaskExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{1, 2, 7, 64, 500} {
			// Tagged tasks of uneven sizes covering [0, n).
			var tasks []task
			for lo, tag := 0, 0; lo < n; tag++ {
				hi := min(lo+1+lo%5, n)
				tasks = append(tasks, task{tag: tag, lo: lo, hi: hi})
				lo = hi
			}
			hits := make([]int32, n)
			tagSeen := make([]int32, len(tasks))
			err := runTasks(context.Background(), p, tasks, func(_, tag, lo, hi int) {
				atomic.AddInt32(&tagSeen[tag], 1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
			for tag, h := range tagSeen {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: tag %d ran %d times", workers, n, tag, h)
				}
			}
		}
		p.Close()
	}
}

func TestRunTasksEmptyAndFewerThanWorkers(t *testing.T) {
	p := New(8)
	defer p.Close()
	if err := runTasks(context.Background(), p, nil, func(_, _, _, _ int) {
		t.Error("fn invoked for empty task list")
	}); err != nil {
		t.Fatal(err)
	}
	// Fewer tasks than workers: every task still runs exactly once.
	var count int32
	tasks := []task{{tag: 0, lo: 0, hi: 3}, {tag: 1, lo: 3, hi: 5}}
	if err := runTasks(context.Background(), p, tasks, func(_, _, _, _ int) {
		atomic.AddInt32(&count, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("%d task executions, want 2", count)
	}
}

func TestRunTasksCancelledContext(t *testing.T) {
	p := New(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := runTasks(ctx, p, []task{{lo: 0, hi: 10}}, func(_, _, _, _ int) { called = true })
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Error("fn dispatched despite cancelled context")
	}
}

func TestPoolReuseAcrossRuns(t *testing.T) {
	p := New(3)
	defer p.Close()
	for round := 0; round < 50; round++ {
		var sum int64
		if err := p.Run(context.Background(), 10, func(_, lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			atomic.AddInt64(&sum, local)
		}); err != nil {
			t.Fatal(err)
		}
		if sum != 45 {
			t.Fatalf("round %d: sum %d, want 45", round, sum)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := New(2)
	p.Close()
	p.Close()
}

func TestDefaultWorkerCount(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Errorf("Workers() = %d, want >= 1", p.Workers())
	}
}

// blockWork stands in for one block subproblem: enough arithmetic that the
// fan-out cost is visible but not dominant.
func blockWork(scratch []float64, i int) float64 {
	x := float64(i%97) + 1
	for k := range scratch {
		x = x*1.0000001 + scratch[k]
		scratch[k] = x * 0.5
	}
	return x
}

// BenchmarkPooledFanout measures the persistent-pool fan-out with reused
// per-worker scratch — the runtime every solver chunk now goes through.
func BenchmarkPooledFanout(b *testing.B) {
	const n = 128 // one default chunk
	p := New(8)
	defer p.Close()
	scratch := make([][]float64, p.Workers())
	out := make([]float64, n)
	ctx := context.Background()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		_ = p.Run(ctx, n, func(w, lo, hi int) {
			if scratch[w] == nil {
				scratch[w] = make([]float64, 256)
			}
			for i := lo; i < hi; i++ {
				out[i] = blockWork(scratch[w], i)
			}
		})
	}
}

// BenchmarkSpawnFanout is the pre-refactor baseline: goroutines spawned and
// scratch allocated per chunk, as the hand-rolled fan-outs in epf did.
func BenchmarkSpawnFanout(b *testing.B) {
	const n = 128
	const workers = 8
	out := make([]float64, n)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		var wg sync.WaitGroup
		per := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*per, (w+1)*per
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				scratch := make([]float64, 256)
				for i := lo; i < hi; i++ {
					out[i] = blockWork(scratch, i)
				}
			}(lo, hi)
		}
		wg.Wait()
	}
}
