package par

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 17} {
		p := New(workers)
		for _, n := range []int{1, 2, 7, 64, 1000} {
			hits := make([]int32, n)
			err := p.Run(context.Background(), n, func(_, lo, hi int) {
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

func TestRunTasksCoversEveryTaskExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{1, 2, 7, 64, 500} {
			// Tagged tasks of uneven sizes covering [0, n).
			var tasks []Task
			for lo, tag := 0, 0; lo < n; tag++ {
				hi := lo + 1 + (lo % 5)
				if hi > n {
					hi = n
				}
				tasks = append(tasks, Task{Tag: tag, Lo: lo, Hi: hi})
				lo = hi
			}
			hits := make([]int32, n)
			tagSeen := make([]int32, len(tasks))
			err := p.RunTasks(context.Background(), tasks, func(_, tag, lo, hi int) {
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

func TestRunTasksSingleWorkerRunsInSliceOrder(t *testing.T) {
	p := New(1)
	defer p.Close()
	tasks := []Task{{Tag: 2, Lo: 4, Hi: 6}, {Tag: 0, Lo: 0, Hi: 2}, {Tag: 1, Lo: 2, Hi: 4}}
	var order []int
	if err := p.RunTasks(context.Background(), tasks, func(w, tag, _, _ int) {
		if w != 0 {
			t.Errorf("worker %d on a single-worker pool", w)
		}
		order = append(order, tag)
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 2 || order[1] != 0 || order[2] != 1 {
		t.Errorf("tasks ran in order %v, want slice order [2 0 1]", order)
	}
}

func TestRunTasksEmptyAndFewerThanWorkers(t *testing.T) {
	p := New(8)
	defer p.Close()
	if err := p.RunTasks(context.Background(), nil, func(_, _, _, _ int) {
		t.Error("fn invoked for empty task list")
	}); err != nil {
		t.Fatal(err)
	}
	// Fewer tasks than workers: every task still runs exactly once.
	var count int32
	tasks := []Task{{Tag: 0, Lo: 0, Hi: 3}, {Tag: 1, Lo: 3, Hi: 5}}
	if err := p.RunTasks(context.Background(), tasks, func(_, _, _, _ int) {
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
	err := p.RunTasks(ctx, []Task{{Lo: 0, Hi: 10}}, func(_, _, _, _ int) { called = true })
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Error("fn dispatched despite cancelled context")
	}
}

func TestRunTasksInterleavesWithRun(t *testing.T) {
	// A pool must serve Run and RunTasks fan-outs back to back: the staged
	// task state is cleared between calls.
	p := New(3)
	defer p.Close()
	for round := 0; round < 20; round++ {
		var sum int64
		if err := p.Run(context.Background(), 10, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt64(&sum, int64(i))
			}
		}); err != nil {
			t.Fatal(err)
		}
		if sum != 45 {
			t.Fatalf("round %d: Run sum %d, want 45", round, sum)
		}
		var tsum int64
		tasks := []Task{{Tag: 0, Lo: 0, Hi: 5}, {Tag: 1, Lo: 5, Hi: 10}}
		if err := p.RunTasks(context.Background(), tasks, func(_, _, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt64(&tsum, int64(i))
			}
		}); err != nil {
			t.Fatal(err)
		}
		if tsum != 45 {
			t.Fatalf("round %d: RunTasks sum %d, want 45", round, tsum)
		}
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
