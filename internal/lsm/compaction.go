package lsm

import (
	"fmt"
	"math"
	"time"
)

// Background work: the scheduler that decides when a flush or a compaction
// runs and on which goroutine (maybeScheduleLocked, runFlushJob,
// runCompactionJob), the merge itself (lock released), and the install of its
// version edit. What to merge is the planner's (plan.go).

// flushPriority outranks any realistic compaction debt so a queued flush
// always drains before queued merges: flushes are what unblock stalled
// writers.
const flushPriority = math.MaxUint64

// maybeScheduleLocked is the compaction scheduler: it launches background
// jobs for all currently runnable work and returns without blocking. Called
// with db.mu held at every state transition that can create or unblock work
// (rotation, job completion, Open, settle).
//
// Scheduling rules:
//   - at most one flush job, looping until the immutable queue empties;
//   - at most one compaction, planned by pickCompaction from the version
//     alone;
//   - with a pool of 1 the flush job and the compaction additionally
//     exclude each other, restoring the serial single-worker write order
//     (flushes first) that deterministic crash tests depend on.
func (db *DB) maybeScheduleLocked() {
	if db.closed || db.degradedErr != nil {
		return
	}
	db.noteDebtLocked()
	serial := db.workers == 1
	if !db.flushing && len(db.imm) > 0 && !(serial && db.compacting) {
		db.flushing = true
		db.bgWG.Add(1)
		db.pool.Submit(flushPriority, db.runFlushJob)
	}
	if db.compacting || serial && db.flushing || db.draining && !db.forceCompact {
		return
	}
	if plan, ok := pickCompaction(db.current, db.forceCompact, db.opts); ok {
		db.startCompactionLocked(plan)
	}
}

// noteDebtLocked records the current compaction debt into its high-water
// stat and returns it (the pool's priority key).
func (db *DB) noteDebtLocked() uint64 {
	debt := uint64(compactionDebt(db.current, db.opts))
	for {
		cur := db.stats.compactionDebtPeak.Load()
		if debt <= cur || db.stats.compactionDebtPeak.CompareAndSwap(cur, debt) {
			return debt
		}
	}
}

// runFlushJob drains the immutable memtable queue, oldest first: write L0
// table, install, save manifest, retire the flushed WAL generation. All
// file I/O — the table and the manifest alike — happens with db.mu released
// so readers and writers proceed concurrently; only the install (a pointer
// swap plus the manifest snapshot encode) takes the exclusive lock. One
// instance runs at a time (db.flushing), and it stays in flight until the
// manifest naming its last table is durable — what settleLocked waits for.
func (db *DB) runFlushJob() {
	defer db.bgWG.Done()
	db.mu.Lock()
	for db.degradedErr == nil && !db.closed && len(db.imm) > 0 {
		task := db.imm[0]
		num := db.next.Add(1) - 1
		db.mu.Unlock()
		start := time.Now()
		meta, err := db.flushMemtable(num, task.mem)
		db.stats.flushTableNanos.Add(uint64(time.Since(start)))
		db.mu.Lock()
		if err != nil {
			db.setDegradedLocked(err)
			break
		}
		db.stats.physicalBytesWrite.Add(uint64(meta.size))
		db.stats.flushCount.Add(1)
		db.current = db.current.apply(versionEdit{added: []tableMeta{meta}})
		db.imm = db.imm[1:]
		snap := db.snapshotManifestLocked()
		// The queue has room again: release stalled writers now, not a
		// manifest sync later.
		db.cond.Broadcast()
		db.mu.Unlock()
		start = time.Now()
		err = db.commitManifest(snap)
		db.stats.manifestNanos.Add(uint64(time.Since(start)))
		if err == nil && task.walSeq != 0 {
			// Only now — with a manifest naming the table durable — is the
			// generation's log obsolete; until then a crash recovers the
			// flushed writes from it. A failed removal is NOT ignorable: a
			// stale generation would replay on the next open, so a log we
			// cannot retire is a storage failure like any other.
			err = db.removeFile(db.walFile(task.walSeq))
		}
		db.mu.Lock()
		if err != nil {
			db.setDegradedLocked(err)
			break
		}
	}
	db.flushing = false
	db.maybeScheduleLocked()
	db.cond.Broadcast()
	db.mu.Unlock()
}

// startCompactionLocked marks plan as the store's one in-flight compaction
// and submits it to the worker pool at the store's current debt priority.
func (db *DB) startCompactionLocked(plan compactionPlan) {
	db.compacting = true
	debt := db.noteDebtLocked()
	db.bgWG.Add(1)
	db.pool.Submit(debt, func() { db.runCompactionJob(plan) })
}

// runCompactionJob runs the planned compaction on a pool goroutine, then
// ends the job, and only then are its inputs deleted. The job stays in
// flight until the manifest recording its install is durable, so a crash
// before that point reopens on a manifest that still names the inputs.
func (db *DB) runCompactionJob(plan compactionPlan) {
	defer db.bgWG.Done()
	obsolete, err := db.compactAndInstall(plan)
	db.mu.Lock()
	db.compacting = false
	if err != nil {
		db.setDegradedLocked(err)
	} else {
		db.maybeScheduleLocked()
	}
	db.cond.Broadcast()
	db.mu.Unlock()
	// The inputs left the version at the install either way; their files go
	// only once a manifest without them is durable.
	db.retireTables(obsolete, err == nil)
}

// compactAndInstall merges with db.mu released, installs the result under
// it, and saves the manifest with the lock released again. It returns the
// tables the install made obsolete, or nothing when the store was degraded
// or closed before the merge began.
func (db *DB) compactAndInstall(plan compactionPlan) (obsolete []tableMeta, err error) {
	db.mu.Lock()
	if db.degradedErr != nil || db.closed {
		db.mu.Unlock()
		return nil, nil
	}
	hook := db.compactionHook
	db.mu.Unlock()
	newMetas, readBytes, err := db.runCompaction(plan, hook)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	obsolete = db.installCompactionLocked(plan, newMetas, readBytes)
	snap := db.snapshotManifestLocked()
	db.cond.Broadcast() // L0 shrank: release writers stalled on it
	db.mu.Unlock()
	return obsolete, db.commitManifest(snap)
}

// runCompaction merges the planned tables into new non-overlapping tables
// on the destination level. Runs WITHOUT db.mu: reads and writes proceed
// concurrently with the merge I/O. Compacting into the bottom level drops
// tombstones. A move returns the source metas relabelled to dst and touches
// no file.
func (db *DB) runCompaction(plan compactionPlan, hook func()) (newMetas []tableMeta, readBytes int64, err error) {
	if hook != nil {
		hook()
	}
	if plan.move {
		for _, m := range plan.srcMetas {
			m.level = plan.dst
			newMetas = append(newMetas, m)
		}
		return newMetas, 0, nil
	}
	return db.compactRange(plan)
}

// compactRange merges all of the plan's inputs in one pass. Output tables cut
// at CompactionTableBytes.
func (db *DB) compactRange(plan compactionPlan) (newMetas []tableMeta, readBytes int64, err error) {
	// Build merge sources newest-first: L0 files are newest-last on disk and
	// may overlap, so each is a source of its own, in reverse; a deeper
	// level's run is key-disjoint and makes one runSource; destination
	// tables are oldest. Sources bypass the block cache
	// (newTableSourceBypass): a merge streams every block of its inputs
	// exactly once, and letting that walk touch the cache would wipe out the
	// hot point-read set. References are held until the merge finishes so a
	// concurrent retireTables cannot close files mid-read.
	var (
		sources []source
		runs    []*runSource
		readers []*tableReader
	)
	defer func() {
		for _, s := range runs {
			s.close()
		}
		for _, t := range readers {
			t.unref()
		}
	}()
	addRun := func(metas []tableMeta) error {
		var run []*tableReader
		for _, m := range metas {
			t, err := db.acquire(&m)
			if err != nil {
				return err
			}
			readers = append(readers, t)
			run = append(run, t)
		}
		if len(run) > 0 {
			s := &runSource{tables: run}
			s.fill()
			runs, sources = append(runs, s), append(sources, s)
		}
		return nil
	}
	inputs := [][]tableMeta{plan.srcMetas}
	if plan.level == 0 {
		inputs = inputs[:0]
		for i := len(plan.srcMetas) - 1; i >= 0; i-- {
			inputs = append(inputs, plan.srcMetas[i:i+1])
		}
	}
	for _, run := range append(inputs, plan.dstIn) {
		if err := addRun(run); err != nil {
			return nil, 0, err
		}
	}

	// Merged entries go straight into the table writer, which copies each
	// into its image at once — they are views of the sources' readahead
	// buffers, gone after the next step of the merge.
	merged := newMergeIterator(sources)
	maxOut := db.opts.CompactionTableBytes
	w := db.newTableWriter(plan.dst, maxOut)
	defer w.release()
	outBytes := 0
	flushOut := func() error {
		if w.entries() == 0 {
			return nil
		}
		meta, err := w.finish(db.next.Add(1) - 1)
		if err != nil {
			return err
		}
		db.stats.physicalBytesWrite.Add(uint64(meta.size))
		newMetas = append(newMetas, meta)
		outBytes = 0
		return nil
	}
	for merged.next() {
		e := merged.entry()
		if e.tombstone && plan.dropTombstones {
			// Saturating decrement: compaction may drop tombstones
			// recovered from disk that this process never counted.
			for {
				cur := db.stats.tombstonesLive.Load()
				if cur == 0 || db.stats.tombstonesLive.CompareAndSwap(cur, cur-1) {
					break
				}
			}
			continue
		}
		w.add(e.key, e.value, e.tombstone)
		outBytes += len(e.key) + len(e.value)
		if outBytes >= maxOut {
			if err := flushOut(); err != nil {
				return nil, 0, err
			}
		}
	}
	// A corrupt input table must abort the compaction: writing out the
	// partial merge would silently drop every entry past the bad block.
	if err := merged.err(); err != nil {
		return nil, 0, fmt.Errorf("compaction aborted: %w", err)
	}
	if err := flushOut(); err != nil {
		return nil, 0, err
	}
	for _, s := range runs {
		s.close()
		readBytes += int64(s.read)
	}
	return newMetas, readBytes, nil
}

// runSource walks a key-ordered run of disjoint tables as one merge source.
// It starts each table's walk only when the previous one is exhausted and
// closes that one an advance later (the source lifetime rule), so a merge
// holds one table's readahead per run however many tables the run has.
type runSource struct {
	tables []*tableReader // tables still to walk
	cur    *tableSource
	done   []*tableSource // exhausted, closed on the next advance
	read   int            // bytes consumed by closed walks
}

// fill starts walks until the current one has an entry or has failed, or
// the run ends.
func (s *runSource) fill() {
	for len(s.tables) > 0 && (s.cur == nil || !s.cur.ok && s.cur.err() == nil) {
		if s.cur != nil {
			s.done = append(s.done, s.cur)
		}
		s.cur, s.tables = newTableSourceBypass(s.tables[0]), s.tables[1:]
	}
}

func (s *runSource) peek() (entry, bool) { return s.cur.peek() }

func (s *runSource) err() error { return s.cur.err() }

func (s *runSource) advance() {
	s.retire()
	s.cur.advance()
	s.fill()
}

// retire closes the exhausted walks.
func (s *runSource) retire() {
	for _, ts := range s.done {
		s.read += ts.bytesConsumed()
		ts.close()
	}
	s.done = s.done[:0]
}

// close ends the walk; it is idempotent.
func (s *runSource) close() {
	if s.cur != nil {
		s.done, s.cur = append(s.done, s.cur), nil
	}
	s.retire()
}

// installCompactionLocked applies the plan's edit to the version and
// returns the tables made obsolete. Called with db.mu held. Exactly the job's
// inputs leave and its outputs enter, so the install commutes with a flush
// that lands beside it (version.apply). A move's inputs are its outputs, so
// it makes nothing obsolete and retireTables never unlinks them.
func (db *DB) installCompactionLocked(plan compactionPlan, newMetas []tableMeta, readBytes int64) []tableMeta {
	db.stats.reads.addPhysical(uint64(readBytes))
	if plan.move {
		db.stats.trivialMoves.Add(1)
		db.stats.trivialMoveBytes.Add(uint64(levelBytes(plan.srcMetas)))
	} else {
		db.stats.compactionCount.Add(1)
	}
	edit := plan.edit(newMetas)
	db.current = db.current.apply(edit)
	if plan.move {
		return nil
	}
	return edit.removed
}

// retireTables drops the version's reader references for tables a compaction
// replaced and, when unlink is set, deletes their files. Runs without db.mu,
// after the install that took them out of the version: point reads that began
// before it have finished, scans and merges still on these tables hold their
// own references, so the last unref — not this call — closes the file and
// purges the table's cached blocks. Deleting the file under a live reader is
// safe: the OS keeps unlinked files readable through open descriptors, and
// a MemFS read handle holds an immutable view of the file, not a copy.
func (db *DB) retireTables(obsolete []tableMeta, unlink bool) {
	for _, m := range obsolete {
		m.h.release()
		if unlink {
			// Best-effort: an orphaned table is dead weight, not a hazard — the
			// manifest no longer references it, so recovery never reads it.
			db.fs.Remove(tablePath(db.dir, m.num))
		}
	}
}
