package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryTaskExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		const n = 257
		var hits [n]atomic.Int32
		NewPool(workers).ForEach(n, func(task int) {
			hits[task].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r != "boom-7" {
					t.Fatalf("workers=%d: recovered %v, want boom-7", workers, r)
				}
			}()
			NewPool(workers).ForEach(20, func(task int) {
				if task == 7 {
					panic("boom-7")
				}
			})
			t.Fatalf("workers=%d: ForEach did not panic", workers)
		}()
	}
}

// With several panicking tasks, the surviving panic is the one from the
// lowest task index that actually panicked — stable enough for tests and
// error reporting even though the aborted tail is scheduling-dependent.
func TestForEachPanicLowestIndexWins(t *testing.T) {
	defer func() {
		if r := recover(); r != 0 {
			t.Fatalf("recovered %v, want 0", r)
		}
	}()
	// Every task panics, so task 0 always panics and must win.
	NewPool(8).ForEach(64, func(task int) {
		panic(task)
	})
	t.Fatal("ForEach did not panic")
}

func TestForEachEdgeCases(t *testing.T) {
	ran := false
	NewPool(2).ForEach(0, func(int) { ran = true })
	NewPool(2).ForEach(-3, func(int) { ran = true })
	if ran {
		t.Fatal("no-op ForEach ran a task")
	}
	if got := NewPool(0).workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewPool(0) has %d workers, want GOMAXPROCS", got)
	}
	if got := NewPool(-1).workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewPool(-1) has %d workers, want GOMAXPROCS", got)
	}
	if got := NewPool(3).workers; got != 3 {
		t.Fatalf("NewPool(3) has %d workers", got)
	}
}

// TestForEachSingleTaskInline: one task runs inline even on a wide
// pool, and a one-worker pool runs its tasks inline in task order: no
// goroutine is started.
func TestForEachSingleTaskInline(t *testing.T) {
	before := runtime.NumGoroutine()
	var order []int
	inline := func(task int) {
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("task %d ran with %d goroutines, want the caller's %d", task, n, before)
		}
		order = append(order, task)
	}
	NewPool(16).ForEach(1, inline)
	NewPool(1).ForEach(4, inline)
	if fmt.Sprint(order) != "[0 0 1 2 3]" {
		t.Fatalf("tasks ran in order %v, want [0 0 1 2 3]", order)
	}
}

// Serve must hand every task to exactly one worker and return only once
// the channel is closed and drained.
func TestServeDrainsChannel(t *testing.T) {
	const n = 500
	tasks := make(chan int, 16)
	go func() {
		for i := 0; i < n; i++ {
			tasks <- i
		}
		close(tasks)
	}()

	var mu sync.Mutex
	seen := make(map[int]int) // task -> times run
	Serve(4, tasks, func(task int) {
		mu.Lock()
		seen[task]++
		mu.Unlock()
	})
	if len(seen) != n {
		t.Fatalf("ran %d distinct tasks, want %d", len(seen), n)
	}
	for task, times := range seen {
		if times != 1 {
			t.Fatalf("task %d ran %d times", task, times)
		}
	}
}

// Serve with an already-closed channel returns immediately; n <= 0
// selects GOMAXPROCS workers rather than zero.
func TestServeEmptyAndDefaultWidth(t *testing.T) {
	empty := make(chan struct{})
	close(empty)
	done := make(chan struct{})
	go func() {
		Serve(0, empty, func(struct{}) { t.Error("task on empty channel") })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return on a closed empty channel")
	}
}
