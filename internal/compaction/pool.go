// Package compaction provides a process-wide worker pool that budgets
// background LSM work (memtable flushes and compactions) across every store
// instance that shares it. Without a shared pool, a sharded or policy-routed
// deployment spawns an independent worker set per LSM instance and the
// aggregate background parallelism is unbounded; with one, `-shards 8` on a
// 4-worker pool still runs at most 4 merges at a time, and the pool picks
// which store goes next by compaction debt, so the store furthest behind
// drains first.
package compaction

import (
	"container/heap"
	"sync"
)

// Job is a unit of background work. It runs on a pool goroutine and must not
// block forever: the pool dedicates no goroutines of its own, so a stuck job
// permanently consumes one slot of the budget.
type Job func()

// DefaultWorkers is the budget used when a pool is created with a
// non-positive size.
const DefaultWorkers = 4

type pendingJob struct {
	debt uint64 // priority: bytes of compaction debt behind this job
	seq  uint64 // FIFO tiebreak so equal-debt jobs keep submit order
	run  Job
}

// pendingHeap is a max-heap on debt (ties broken by submission order).
type pendingHeap []pendingJob

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(i, j int) bool {
	if h[i].debt != h[j].debt {
		return h[i].debt > h[j].debt
	}
	return h[i].seq < h[j].seq
}
func (h pendingHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x interface{}) { *h = append(*h, x.(pendingJob)) }
func (h *pendingHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = pendingJob{}
	*h = old[:n-1]
	return x
}

// Pool runs submitted jobs with at most `budget` running concurrently.
// Excess submissions queue in debt order. The pool has no lifecycle: it
// spawns a goroutine per running job and holds none while idle, so it never
// needs closing and can be shared by stores with independent lifetimes.
type Pool struct {
	mu      sync.Mutex
	budget  int
	running int
	seq     uint64
	pending pendingHeap
}

// NewPool returns a pool that runs at most workers jobs concurrently.
// workers <= 0 selects DefaultWorkers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers
	}
	return &Pool{budget: workers}
}

// Workers reports the pool's concurrency budget.
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.budget
}

// Submit schedules run, starting it immediately when a slot is free and
// queueing it behind higher-debt work otherwise. debt is the submitter's
// compaction-debt estimate at submit time. Flushes pass a large value so
// that they run before every queued merge; the debt only orders the queue,
// so a flush submitted while every slot runs a merge still waits for one of
// those merges to finish. Submit never blocks.
func (p *Pool) Submit(debt uint64, run Job) {
	p.mu.Lock()
	if p.running >= p.budget {
		p.seq++
		heap.Push(&p.pending, pendingJob{debt: debt, seq: p.seq, run: run})
		p.mu.Unlock()
		return
	}
	p.running++
	p.mu.Unlock()
	go p.work(run)
}

// work runs job, then drains queued work on the same goroutine until the
// queue is empty, at which point the slot is released.
func (p *Pool) work(job Job) {
	for {
		job()
		p.mu.Lock()
		if len(p.pending) == 0 {
			p.running--
			p.mu.Unlock()
			return
		}
		job = heap.Pop(&p.pending).(pendingJob).run
		p.mu.Unlock()
	}
}
