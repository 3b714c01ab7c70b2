package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"ethkv/internal/compaction"
)

// schedOpts shrinks every threshold so small workloads produce multi-level
// trees, multi-table runs, and split merges.
func schedOpts(workers int) Options {
	return Options{
		MemtableBytes:        4 << 10,
		L0CompactionTrigger:  2,
		LevelBaseBytes:       8 << 10,
		CompactionTableBytes: 4 << 10,
		SubCompactionBytes:   8 << 10,
		Pool:                 compaction.NewPool(workers),
	}
}

// applySchedWorkload runs a fixed seeded mix of puts, overwrites, and
// deletes and returns the expected final state.
func applySchedWorkload(t *testing.T, db *DB) map[string]string {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	model := make(map[string]string)
	for i := 0; i < 2500; i++ {
		key := fmt.Sprintf("key-%04d", rng.Intn(400))
		if i%4 == 3 {
			if err := db.Delete([]byte(key)); err != nil {
				t.Fatal(err)
			}
			delete(model, key)
			continue
		}
		val := fmt.Sprintf("val-%06d-%s", i, bytes.Repeat([]byte{'x'}, rng.Intn(64)))
		if err := db.Put([]byte(key), []byte(val)); err != nil {
			t.Fatal(err)
		}
		model[key] = val
	}
	return model
}

// dumpDB materializes the full store content through a scan.
func dumpDB(t *testing.T, db *DB) map[string]string {
	t.Helper()
	out := make(map[string]string)
	it := db.NewIterator(nil, nil)
	defer it.Release()
	for it.Next() {
		out[string(it.Key())] = string(it.Value())
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompactionWorkerInvariance runs the identical delete-heavy workload
// under the serial scheduler and under 4 concurrent workers and requires
// the same live-key set and values after a full drain-to-bottom. Worker
// width is a pure scheduling knob: it may change which merges run when,
// never what the tree contains.
func TestCompactionWorkerInvariance(t *testing.T) {
	var base map[string]string
	for _, workers := range []int{1, 4} {
		db := openTestDB(t, schedOpts(workers))
		model := applySchedWorkload(t, db)
		if err := db.CompactAll(); err != nil {
			t.Fatalf("workers=%d: CompactAll: %v", workers, err)
		}
		got := dumpDB(t, db)
		if len(got) != len(model) {
			t.Fatalf("workers=%d: %d live keys, model has %d", workers, len(got), len(model))
		}
		for k, v := range model {
			if got[k] != v {
				t.Fatalf("workers=%d: key %q = %q, want %q", workers, k, got[k], v)
			}
		}
		if base == nil {
			base = got
			continue
		}
		if len(base) != len(got) {
			t.Fatalf("workers=%d: live-key count diverged from serial run", workers)
		}
		for k, v := range base {
			if got[k] != v {
				t.Fatalf("workers=%d: key %q diverged from serial run", workers, k)
			}
		}
	}
}

// TestSubCompactionEquivalence proves the tentpole's merge property
// directly: one planned compaction, run with its key-range sub-compactions
// fanned across 1, 2, and 4 goroutines, must produce byte-identical output
// tables in the same order. The split boundaries come from the plan alone,
// so only file numbers — assigned at write time, not stored in the table
// format — may differ between runs.
func TestSubCompactionEquivalence(t *testing.T) {
	db := openTestDB(t, schedOpts(1))
	// Latch draining first: flushes still run but no background compaction
	// does, so the forced plan below is the same L0 merge on every run
	// rather than whatever the scheduler happened to leave behind.
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	applySchedWorkload(t, db)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Quiesce, then force-plan one merge without installing it.
	db.mu.Lock()
	if err := db.settleLocked(); err != nil {
		db.mu.Unlock()
		t.Fatal(err)
	}
	db.forceCompact = true
	plan, ok := db.planNextCompactionLocked()
	db.forceCompact = false
	bounds := db.subCompactionBounds(plan)
	db.mu.Unlock()
	if !ok {
		t.Fatal("no compaction plannable after settle")
	}
	if len(bounds) == 0 {
		t.Fatalf("plan of %d+%d tables produced no sub-compaction split",
			len(plan.srcMetas), len(plan.dstIn))
	}

	var want [][]byte
	for _, workers := range []int{1, 2, 4} {
		db.mu.Lock()
		db.workers = workers
		db.mu.Unlock()
		metas, _, err := db.runCompaction(plan, nil)
		if err != nil {
			t.Fatalf("workers=%d: runCompaction: %v", workers, err)
		}
		var files [][]byte
		for _, m := range metas {
			b, err := os.ReadFile(tablePath(db.dir, m.num))
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			files = append(files, b)
		}
		if want == nil {
			want = files
			continue
		}
		if len(files) != len(want) {
			t.Fatalf("workers=%d: %d output tables, serial merge wrote %d",
				workers, len(files), len(want))
		}
		for i := range files {
			if !bytes.Equal(files[i], want[i]) {
				t.Fatalf("workers=%d: output table %d differs from serial merge", workers, i)
			}
		}
	}
}

// TestConcurrentCompactionsOverlap drives a workload wide enough that the
// scheduler runs range-disjoint merges simultaneously, and checks the new
// concurrency counters observe it: a peak of >= 2 compactions in flight,
// wall time attributed to the overlap, and split merges fanning into
// sub-compactions. A slow compaction hook widens each merge window so the
// overlap is reliably observable rather than a timing accident.
func TestConcurrentCompactionsOverlap(t *testing.T) {
	db := openTestDB(t, schedOpts(4))
	db.mu.Lock()
	db.compactionHook = func() { time.Sleep(2 * time.Millisecond) }
	db.mu.Unlock()

	rng := rand.New(rand.NewSource(7))
	model := make(map[string]string)
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; db.Stats().MaxConcurrentCompactions < 2; round++ {
		if time.Now().After(deadline) {
			t.Fatalf("no concurrent compactions after %d rounds (peak=%d)",
				round, db.Stats().MaxConcurrentCompactions)
		}
		for i := 0; i < 400; i++ {
			key := fmt.Sprintf("key-%06d", rng.Intn(30000))
			val := fmt.Sprintf("r%04d-%06d", round, i)
			if err := db.Put([]byte(key), []byte(val)); err != nil {
				t.Fatal(err)
			}
			model[key] = val
		}
		// A running writer keeps L0 due, and L0 merges (which span the
		// whole keyspace) go first, so L1 piles up behind them. A settle
		// point every twenty rounds lets L1's backlog drain as range-disjoint
		// L1→L2 merges side by side.
		if round%20 == 19 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	s := db.Stats()
	if s.MaxConcurrentCompactions < 2 {
		t.Fatalf("MaxConcurrentCompactions = %d, want >= 2", s.MaxConcurrentCompactions)
	}
	if s.CompactionParallelNanos == 0 {
		t.Fatal("CompactionParallelNanos = 0 despite overlapping compactions")
	}
	if s.SubCompactions == 0 {
		t.Fatal("SubCompactions = 0: no merge split into ranges")
	}
	// Concurrency must not have corrupted the data: spot-check the model.
	checked := 0
	for k, v := range model {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("Get(%q) = %q, %v, want %q", k, got, err, v)
		}
		if checked++; checked >= 200 {
			break
		}
	}
}

// TestLevelRunStopsAtClaimedTable: an Ln job takes the first contiguous
// run of unclaimed tables, so a run that reaches a table another job has
// claimed ends there instead of jumping over it.
func TestLevelRunStopsAtClaimedTable(t *testing.T) {
	db := openTestDB(t, schedOpts(4))
	table := func(num uint64, lo, hi string) tableMeta {
		return tableMeta{num: num, level: 1, size: 1 << 10,
			smallest: []byte(lo), largest: []byte(hi), h: new(tableHandle)}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.levels[1] = []tableMeta{table(101, "a", "b"), table(102, "c", "d"), table(103, "e", "f"), table(104, "g", "h")}
	db.claimed[103] = struct{}{}
	plan, ok := db.tryPlanLevelLocked(1)
	db.levels[1] = nil
	delete(db.claimed, 103)
	if !ok {
		t.Fatal("no plan for an unclaimed run")
	}
	var nums []uint64
	for _, m := range plan.srcMetas {
		nums = append(nums, m.num)
	}
	if fmt.Sprint(nums) != "[101 102]" || string(plan.lo) != "a" || string(plan.hi) != "d" {
		t.Fatalf("plan took tables %v spanning [%s, %s], want [101 102] spanning [a, d]", nums, plan.lo, plan.hi)
	}
}

// TestDrainStopsCompactions checks the shutdown path: Drain returns with
// the flush queue empty and no compaction in flight, suppresses new merges
// afterward, and leaves the store writable.
func TestDrainStopsCompactions(t *testing.T) {
	db := openTestDB(t, schedOpts(4))
	applySchedWorkload(t, db)
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	if db.flushing || len(db.jobs) != 0 || len(db.imm) > 0 {
		db.mu.Unlock()
		t.Fatalf("after Drain: flushing=%v compactions in flight=%d imm=%d",
			db.flushing, len(db.jobs), len(db.imm))
	}
	if !db.draining {
		db.mu.Unlock()
		t.Fatal("Drain did not latch draining mode")
	}
	db.mu.Unlock()
	// The drained store still accepts reads and writes (flushes keep
	// running; only compaction scheduling is suppressed).
	if err := db.Put([]byte("post-drain"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("post-drain"))
	if err != nil || string(got) != "ok" {
		t.Fatalf("Get after Drain = %q, %v", got, err)
	}
}
