package compaction

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolBudget proves the pool never runs more jobs concurrently than its
// budget, even when far more are submitted at once.
func TestPoolBudget(t *testing.T) {
	const budget = 3
	p := NewPool(budget)
	var running, peak, done int32
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		p.Submit(uint64(i), func() {
			defer wg.Done()
			n := atomic.AddInt32(&running, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if n <= old || atomic.CompareAndSwapInt32(&peak, old, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&running, -1)
			atomic.AddInt32(&done, 1)
		})
	}
	wg.Wait()
	if got := atomic.LoadInt32(&done); got != 32 {
		t.Fatalf("ran %d jobs, want 32", got)
	}
	if got := atomic.LoadInt32(&peak); got > budget {
		t.Fatalf("peak concurrency %d exceeds budget %d", got, budget)
	}
}

// TestPoolDebtPriority proves that queued jobs drain highest-debt first.
func TestPoolDebtPriority(t *testing.T) {
	p := NewPool(1)
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []uint64
	var wg sync.WaitGroup
	wg.Add(1)
	p.Submit(0, func() { // occupy the only slot
		defer wg.Done()
		<-gate
	})
	debts := []uint64{5, 90, 20, 90, 1}
	for _, d := range debts {
		d := d
		wg.Add(1)
		p.Submit(d, func() {
			defer wg.Done()
			mu.Lock()
			order = append(order, d)
			mu.Unlock()
		})
	}
	close(gate)
	wg.Wait()
	want := []uint64{90, 90, 20, 5, 1}
	for i, d := range want {
		if order[i] != d {
			t.Fatalf("drain order %v, want %v", order, want)
		}
	}
}

// TestPoolIdleNoGoroutines checks the pool releases its slots when the
// queue empties: after each drained round, a full budget of fresh jobs runs
// all at once, which the jobs themselves observe by waiting for each other.
func TestPoolIdleNoGoroutines(t *testing.T) {
	const budget = 2
	p := NewPool(budget)
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		wg.Add(4)
		for i := 0; i < 4; i++ {
			p.Submit(1, wg.Done)
		}
		wg.Wait()
		var arrived atomic.Int32
		all, release := make(chan struct{}), make(chan struct{})
		for i := 0; i < budget; i++ {
			p.Submit(1, func() {
				if arrived.Add(1) == budget {
					close(all)
				}
				<-release
			})
		}
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			close(release)
			t.Fatalf("round %d: %d of %d jobs running after a drain", round, arrived.Load(), budget)
		}
		close(release)
	}
	if p.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", p.Workers())
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	if NewPool(0).Workers() != DefaultWorkers {
		t.Fatal("NewPool(0) should use DefaultWorkers")
	}
}
