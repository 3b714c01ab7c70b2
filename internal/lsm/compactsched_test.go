package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"ethkv/internal/compaction"
	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
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
	plan, ok := pickCompaction(db.current, db.jobs, true, db.opts)
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
	var v version
	v[1] = []tableMeta{planTable(1, 101, "a", "b"), planTable(1, 102, "c", "d"), planTable(1, 103, "e", "f"), planTable(1, 104, "g", "h")}
	inflight := map[int]compactionPlan{1: {level: 1, dst: 2, srcMetas: v[1][2:3], lo: []byte("e"), hi: []byte("f")}}
	plan, ok := pickCompaction(v, inflight, false, planOpts)
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

// moveOpts keeps every automatic trigger but L0's out of reach, writes one
// table per Flush, and runs one job at a time, so the trivial-move tests
// decide which compaction runs next.
func moveOpts(fsys faultfs.FS) Options {
	return Options{
		FS:                   fsys,
		MemtableBytes:        64 << 10,
		L0CompactionTrigger:  2,
		LevelBaseBytes:       1 << 20,
		CompactionTableBytes: 4 << 10,
		Pool:                 compaction.NewPool(1),
		RetryBackoff:         time.Microsecond,
	}
}

func moveKey(i int) string { return fmt.Sprintf("key-%05d", i) }

// putTable writes keys [from, to) — deleting them when del is set — and
// flushes them as one L0 table, recording the result in model.
func putTable(t *testing.T, db *DB, model map[string]string, from, to int, del bool) {
	t.Helper()
	for i := from; i < to; i++ {
		k := moveKey(i)
		var err error
		if del {
			err = db.Delete([]byte(k))
			delete(model, k)
		} else {
			v := fmt.Sprintf("val-%05d-%s", i, bytes.Repeat([]byte{'v'}, 40))
			err = db.Put([]byte(k), []byte(v))
			model[k] = v
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// anchorBottom writes the keyspace's two ends and compacts them to the
// bottom level, so no merge into a shallower level is bottom-most and may
// drop tombstones: every middle-range plan with nothing below it on dst is a
// move candidate.
func anchorBottom(t *testing.T, db *DB, model map[string]string) {
	t.Helper()
	for _, i := range []int{0, 99999} {
		model[moveKey(i)] = "anchor"
		if err := db.Put([]byte(moveKey(i)), []byte("anchor")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
}

// runPlanned plans a compaction of level and runs it through the job path —
// claims, pool, install, manifest, retire — waiting for all of it. Callers
// latch draining first, so no other job starts.
func runPlanned(t *testing.T, db *DB, level int) compactionPlan {
	t.Helper()
	db.mu.Lock()
	plan, ok := planLevel(db.current, level, db.jobs, claimsOf(db.jobs), db.opts)
	if ok {
		db.startCompactionLocked(plan)
	}
	db.mu.Unlock()
	if !ok {
		t.Fatalf("no compaction plannable on L%d", level)
	}
	db.bgWG.Wait()
	return plan
}

// levelNums lists the file numbers on level.
func levelNums(db *DB, level int) []uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var nums []uint64
	for _, m := range db.current[level] {
		nums = append(nums, m.num)
	}
	return nums
}

// tableFiles lists the table files in the store's directory.
func tableFiles(t *testing.T, db *DB) []string {
	t.Helper()
	files, err := db.fs.Glob(db.dir + "/*.sst")
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// requireCensus checks that every model key reads back and that a full scan
// holds exactly the model.
func requireCensus(t *testing.T, db *DB, model map[string]string) {
	t.Helper()
	for k, v := range model {
		if got, err := db.Get([]byte(k)); err != nil || string(got) != v {
			t.Fatalf("Get(%q) = %q, %v, want %q", k, got, err, v)
		}
	}
	if got := dumpDB(t, db); fmt.Sprint(got) != fmt.Sprint(model) {
		t.Fatalf("census holds %d pairs, model %d (or values differ)", len(got), len(model))
	}
}

// TestTrivialMoveLevelRun: an L1 run that overlaps nothing on L2 reaches L2
// as the same files — no table written, no byte rewritten — and every key
// still reads back.
func TestTrivialMoveLevelRun(t *testing.T) {
	db := openTestDB(t, moveOpts(nil))
	model := make(map[string]string)
	anchorBottom(t, db, model)
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	// Overlapping L0 tables: their merge writes the L1 run.
	putTable(t, db, model, 1000, 1100, false)
	putTable(t, db, model, 1050, 1150, false)
	if plan := runPlanned(t, db, 0); plan.move {
		t.Fatal("overlapping L0 tables planned as a move")
	}
	run := levelNums(db, 1)
	if len(run) < 2 {
		t.Fatalf("L0 merge wrote %d L1 tables, want a run of several", len(run))
	}
	before, files := db.Stats(), tableFiles(t, db)

	if plan := runPlanned(t, db, 1); !plan.move {
		t.Fatal("L1 run with nothing below it on L2 not planned as a move")
	}
	after := db.Stats()
	if got := levelNums(db, 2); fmt.Sprint(got) != fmt.Sprint(run) || len(levelNums(db, 1)) != 0 {
		t.Fatalf("L2 holds %v (L1 %v), want the moved run %v", got, levelNums(db, 1), run)
	}
	if got := tableFiles(t, db); fmt.Sprint(got) != fmt.Sprint(files) {
		t.Fatalf("table files %v after the move, want %v", got, files)
	}
	if after.PhysicalBytesWrite != before.PhysicalBytesWrite {
		t.Fatalf("move wrote %d bytes", after.PhysicalBytesWrite-before.PhysicalBytesWrite)
	}
	if after.TrivialMoves != before.TrivialMoves+1 || after.CompactionCount != before.CompactionCount {
		t.Fatalf("moves %d -> %d, compactions %d -> %d; want one move, no compaction",
			before.TrivialMoves, after.TrivialMoves, before.CompactionCount, after.CompactionCount)
	}
	requireCensus(t, db, model)
}

// TestTrivialMoveL0: pairwise-disjoint L0 tables move to L1 unchanged, while
// L0 tables that overlap each other still merge, even with nothing under
// them on L1.
func TestTrivialMoveL0(t *testing.T) {
	db := openTestDB(t, moveOpts(nil))
	model := make(map[string]string)
	anchorBottom(t, db, model)
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	putTable(t, db, model, 1000, 1100, false)
	putTable(t, db, model, 3000, 3100, false)
	putTable(t, db, model, 2000, 2100, false)
	l0 := levelNums(db, 0)
	written := db.Stats().PhysicalBytesWrite
	if plan := runPlanned(t, db, 0); !plan.move {
		t.Fatal("disjoint L0 tables not planned as a move")
	}
	got := levelNums(db, 1)
	// L1 is in key order; the flushes were not.
	if want := []uint64{l0[0], l0[2], l0[1]}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("L1 holds %v, want the L0 tables %v", got, want)
	}
	if w := db.Stats().PhysicalBytesWrite; w != written {
		t.Fatalf("move wrote %d bytes", w-written)
	}

	putTable(t, db, model, 5000, 5100, false)
	putTable(t, db, model, 5050, 5150, false)
	overlapping := levelNums(db, 0)
	before := db.Stats()
	if plan := runPlanned(t, db, 0); plan.move {
		t.Fatal("overlapping L0 tables planned as a move")
	}
	after := db.Stats()
	for _, n := range levelNums(db, 1) {
		if n == overlapping[0] || n == overlapping[1] {
			t.Fatalf("overlapping L0 table %06d reached L1 unmerged", n)
		}
	}
	if after.CompactionCount != before.CompactionCount+1 || after.TrivialMoves != before.TrivialMoves {
		t.Fatalf("compactions %d -> %d, moves %d -> %d; want one merge",
			before.CompactionCount, after.CompactionCount, before.TrivialMoves, after.TrivialMoves)
	}
	requireCensus(t, db, model)
}

// TestTrivialMoveBottomRewrites: a candidate that would otherwise move but is
// bottom-most and holds tombstones is rewritten, so its tombstones drop.
func TestTrivialMoveBottomRewrites(t *testing.T) {
	db := openTestDB(t, moveOpts(nil))
	model := make(map[string]string)
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	putTable(t, db, model, 1000, 1100, false)
	putTable(t, db, model, 2000, 2050, true)
	l0 := levelNums(db, 0)
	before := db.Stats()
	if plan := runPlanned(t, db, 0); plan.move || !plan.dropTombstones {
		t.Fatalf("bottom-most plan: move=%v dropTombstones=%v, want a tombstone-dropping rewrite",
			plan.move, plan.dropTombstones)
	}
	after := db.Stats()
	if after.TombstonesLive >= before.TombstonesLive {
		t.Fatalf("TombstonesLive %d -> %d, want it to fall", before.TombstonesLive, after.TombstonesLive)
	}
	if after.TrivialMoves != 0 || after.CompactionCount != before.CompactionCount+1 {
		t.Fatalf("moves %d, compactions %d -> %d; want one rewrite",
			after.TrivialMoves, before.CompactionCount, after.CompactionCount)
	}
	for _, n := range levelNums(db, 1) {
		if n == l0[0] || n == l0[1] {
			t.Fatalf("L0 table %06d reached the bottom unrewritten", n)
		}
	}
	requireCensus(t, db, model)
}

// TestTrivialMoveCompactAllDropsTombstones: CompactAll moves what it can on
// the way down, yet the tree it leaves holds no tombstone at all.
func TestTrivialMoveCompactAllDropsTombstones(t *testing.T) {
	db := openTestDB(t, moveOpts(nil))
	model := make(map[string]string)
	anchorBottom(t, db, model)
	putTable(t, db, model, 1000, 1100, false)
	putTable(t, db, model, 1000, 1040, true)
	putTable(t, db, model, 2000, 2050, true)
	putTable(t, db, model, 3000, 3100, false)
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.TrivialMoves == 0 {
		t.Fatal("CompactAll moved no table on its way down")
	}
	if st.TombstonesLive != 0 {
		t.Fatalf("TombstonesLive = %d after CompactAll", st.TombstonesLive)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for level, metas := range db.current {
		for i := range metas {
			tr, err := db.table(&metas[i])
			if err != nil {
				t.Fatal(err)
			}
			it := tr.iteratorOpts(nil, false)
			for it.next() {
				if it.cur.tombstone {
					t.Fatalf("L%d table %06d keeps a tombstone for %q", level, metas[i].num, it.cur.key)
				}
			}
			it.close()
			if it.err != nil {
				t.Fatal(it.err)
			}
		}
	}
}

// TestTrivialMoveCrash crashes a store on MemFS once before and once after a
// move's manifest is durable. Either way the reopened store's census is the
// model's, and a move that did commit left its files in place: its job's
// retire must not unlink what the version still names.
func TestTrivialMoveCrash(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			m := faultfs.NewMemFS()
			plan := faultfs.NewPlan(1)
			db, err := Open("db", moveOpts(faultfs.Inject(m, plan)))
			if err != nil {
				t.Fatal(err)
			}
			model := make(map[string]string)
			anchorBottom(t, db, model)
			putTable(t, db, model, 1000, 1100, false)
			for i := 2000; i < 2100; i++ {
				k := moveKey(i)
				model[k] = "v"
				if err := db.Put([]byte(k), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if !durable {
				// The move installs, then its manifest write meets the crash.
				db.mu.Lock()
				db.compactionHook = plan.TripCrash
				db.mu.Unlock()
			}
			moves := db.Stats().TrivialMoves
			err = db.Flush() // the second L0 table makes the move due
			if durable {
				if err != nil {
					t.Fatal(err)
				}
				db.bgWG.Wait() // the job's retire has run
				moved := levelNums(db, 1)
				if len(moved) != 2 || db.Stats().TrivialMoves != moves+1 {
					t.Fatalf("L1 holds %v after %d moves, want both L0 tables moved once",
						moved, db.Stats().TrivialMoves-moves)
				}
				for _, n := range moved {
					if _, err := m.ReadFile(tablePath("db", n)); err != nil {
						t.Fatalf("moved table %06d gone after its job retired: %v", n, err)
					}
				}
				plan.TripCrash()
			} else if !errors.Is(err, kv.ErrDegraded) {
				t.Fatalf("Flush across the crash = %v, want ErrDegraded", err)
			} else if n := len(levelNums(db, 1)); n != 2 {
				t.Fatalf("L1 holds %d tables, want the move installed before its manifest failed", n)
			}
			db.Close() // the process is dead; its error is irrelevant
			m.Crash(nil)

			re, err := Open("db", moveOpts(m))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			requireCensus(t, re, model)
			// Undone or not, the move is due again, and a settled reopen has it.
			if err := re.Flush(); err != nil {
				t.Fatal(err)
			}
			if n := len(levelNums(re, 1)); n != 2 {
				t.Fatalf("reopened store holds %d L1 tables, want the 2 moved ones", n)
			}
			requireCensus(t, re, model)
		})
	}
}

// TestTrivialMoveBesideConcurrentJobs runs moves and merges side by side on a
// 4-slot pool: ascending fresh ranges flush as disjoint tables that move,
// while a hot range rewritten at random keeps merges in flight. Whether a
// move is admitted next to a running job is up to scheduling; the census,
// live and after a reopen, must be the model's either way.
func TestTrivialMoveBesideConcurrentJobs(t *testing.T) {
	opts := schedOpts(4)
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	db.compactionHook = func() { time.Sleep(200 * time.Microsecond) }
	db.mu.Unlock()
	model := make(map[string]string)
	anchorBottom(t, db, model)
	rng := rand.New(rand.NewSource(5))
	put := func(k, v string) {
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	for round := 0; round < 40; round++ {
		for i := 0; i < 120; i++ {
			put(moveKey(1000+round*120+i), fmt.Sprintf("fresh-%d-%s", round, bytes.Repeat([]byte{'f'}, 24)))
		}
		for i := 0; i < 60; i++ {
			put(moveKey(500+rng.Intn(100)), fmt.Sprintf("hot-%d-%d", round, i))
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.TrivialMoves == 0 || st.CompactionCount == 0 {
		t.Fatalf("%d moves, %d merges: want both kinds of job", st.TrivialMoves, st.CompactionCount)
	}
	requireCensus(t, db, model)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireCensus(t, re, model)
}
