package lsm

import (
	"sync/atomic"
	"time"

	"ethkv/internal/kv"
)

// commit is the one write path: every Put, Delete and batch goes through
// it. A batch is logged as one group record and synced before it is
// acknowledged; a single op (batch false, len(ops) == 1) is logged as a
// plain record and stays buffered. The memtable takes ownership of the ops'
// key and value slices, which the caller has already made private.
//
// The order is encode → append → sync → apply → acknowledge: the record is
// built before any lock is taken, and a write is never visible before it is
// durable nor acknowledged before it is visible. Only commitMu is held
// across the file I/O: readers, flush installs and compaction installs all
// proceed while a writer waits for the device.
func (db *DB) commit(ops []batchOp, batch bool) error {
	var rec []byte
	if !db.opts.DisableWAL {
		if batch {
			rec = encodeGroup(ops)
		} else {
			rec = encodeRecord(ops[0])
		}
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.mu.RLock()
	err := db.writeGateLocked()
	db.mu.RUnlock()
	if err != nil {
		return err
	}
	if db.wal != nil {
		err := db.wal.append(rec)
		if err == nil && batch {
			err = db.wal.sync()
		}
		if err != nil {
			db.degrade(err)
			return err
		}
		db.stats.physicalBytesWrite.Add(uint64(len(rec)))
	}
	// One memtable lock acquisition for the whole batch: a reader holds only
	// db.mu shared, so this is what keeps a batch all-or-nothing to Get.
	db.mem.apply(ops)
	var puts, deletes, logical uint64
	for _, op := range ops {
		if op.delete {
			deletes++
			logical += uint64(len(op.key))
		} else {
			puts++
			logical += uint64(len(op.key) + len(op.value))
		}
	}
	db.stats.puts.Add(puts)
	db.stats.deletes.Add(deletes)
	db.stats.tombstonesLive.Add(deletes)
	db.stats.logicalBytesWritten.Add(logical)
	return db.maybeRotate()
}

// maybeRotate rotates a full memtable into the flush queue, stalling first
// if the queue is at capacity. Called with commitMu held.
func (db *DB) maybeRotate() error {
	if db.mem.size() < db.opts.MemtableBytes {
		return nil
	}
	db.mu.Lock()
	err := db.waitForRoomLocked()
	db.mu.Unlock()
	if err != nil {
		return err
	}
	// Only commitMu holders append to the flush queue, so the room just
	// waited for is still there.
	return db.rotate()
}

// waitForRoomLocked is the write-stall backpressure: it blocks until the
// flush queue can take one more memtable, then until L0 is below its stop
// trigger, counting one stall per cause. Flushes only shrink the queue while
// this writer holds commitMu, so the room found first is still there after
// the second wait. Close, Flush and CompactAll queue on commitMu behind a
// stalled writer (background work ends the stall); Drain releases an L0 stop
// itself. Called with db.mu held (and released while waiting).
func (db *DB) waitForRoomLocked() error {
	queueFull := func() bool { return len(db.imm) >= db.opts.MaxImmutableMemtables }
	// L0 write stop: an overfull L0 means ingest has outrun compaction;
	// stalling here bounds the debt a fast writer can defer (and keeps L0
	// point-read fan-out bounded). Skipped while draining — shutdown
	// suppresses the very compactions that would clear the stall.
	l0Full := func() bool {
		stop := db.opts.L0StallTrigger
		return stop > 0 && len(db.levels[0]) >= stop && !db.draining
	}
	for _, cause := range [...]struct {
		stalled func() bool
		nanos   *atomic.Uint64
	}{{queueFull, &db.stats.writeStallQueueNanos}, {l0Full, &db.stats.writeStallL0Nanos}} {
		if !cause.stalled() {
			continue
		}
		db.stats.writeStalls.Add(1)
		start := time.Now()
		for cause.stalled() && db.bgErr == nil && db.degradedErr == nil {
			db.maybeScheduleLocked()
			db.cond.Wait()
		}
		cause.nanos.Add(uint64(time.Since(start)))
		if err := db.writeGateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// rotate freezes the current memtable into the flush queue, starts a fresh
// WAL generation for its successor, and schedules a flush job. Called with
// commitMu held and db.mu released: the log is sealed and its successor
// opened first, and db.mu is taken only to swap the pointers.
func (db *DB) rotate() error {
	if db.mem.count() == 0 {
		return nil
	}
	var next *wal
	if db.wal != nil {
		// close syncs first (unless the last record already was): generation
		// N must be fully durable before generation N+1 opens, or a crash in
		// the gap could surface later-synced writes while losing earlier ones
		// (a hole in the op sequence, not a prefix). A failure here is a
		// permanent loss of the write path — degrade rather than limp on
		// with a log in an unknown state.
		err := db.wal.close()
		if err == nil {
			next, err = db.openWALGen(db.walSeq + 1)
		}
		if err != nil {
			db.wal = nil
			db.degrade(err)
			return err
		}
		db.wal = next
	}
	db.mu.Lock()
	task := flushTask{mem: db.mem}
	if next != nil {
		task.walSeq = db.walSeq
		db.walSeq++
	}
	db.imm = append(db.imm, task)
	db.memSeq++
	db.mem = newMemtable(db.opts.Seed + db.memSeq)
	db.maybeScheduleLocked()
	db.mu.Unlock()
	return nil
}

// settle rotates any pending writes into the flush queue and waits for the
// background work to drain (settleLocked). Called with commitMu held.
func (db *DB) settle() error {
	db.mu.RLock()
	degraded := db.degradedErr != nil
	db.mu.RUnlock()
	if degraded {
		return kv.ErrDegraded
	}
	if err := db.rotate(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.settleLocked()
}

// settleLocked waits for the scheduler to drain every flush, every
// in-flight job, and all due compaction work. A job stays in flight until
// the manifest recording its install is durable, so a settled store's
// on-disk state matches its in-memory version. Called with db.mu held.
func (db *DB) settleLocked() error {
	for db.bgErr == nil && db.degradedErr == nil &&
		(len(db.imm) > 0 || db.inFlight > 0 || db.hasCompactionWorkLocked()) {
		db.maybeScheduleLocked()
		db.cond.Wait()
	}
	if db.degradedErr != nil {
		return kv.ErrDegraded
	}
	return db.bgErr
}
