package lsm

import (
	"sync"
	"sync/atomic"
	"time"

	"ethkv/internal/kv"
)

// The write path (DESIGN.md §18). Every mutation — Put, Delete, a batch —
// goes through DB.commit, in three stages:
//
//  1. under commitMu, for microseconds: admission, rotation if the memtable
//     is full, append of the already-encoded record to the active log, and a
//     ticket — the commit's place in log order;
//  2. under no DB lock: the durability barrier (wal.syncTo), which a commit
//     shares with every record that reached the file before the barrier was
//     issued — single ops skip this stage, their records stay buffered;
//  3. in ticket order (turnstile): apply to the memtable, count, retire the
//     ticket.
//
// So one writer's barrier overlaps its neighbours' appends and applies, and
// the memtable still takes records in exactly the order the log — and so a
// replay — has them. Whatever freezes the memtable or retires its log
// (rotation, Flush, Drain, CompactAll, Close) first holds commitMu and waits
// for the pipeline to empty: every ticket issued has retired, so every record
// in the generation's log is in the generation's memtable.

// turnstile lets commits through stage 3 one at a time, in ticket order.
// Tickets are issued under commitMu (DB.tickets); serving is the ticket whose
// turn it is, so serving == DB.tickets means the pipeline is empty. A commit
// that finds its turn already come — a lone writer always does — passes on
// one atomic load and retires on one atomic store; the mutex and condition
// are for commits that must queue.
type turnstile struct {
	serving atomic.Uint64
	waiting atomic.Int32 // goroutines in, or about to enter, wait's slow path
	mu      sync.Mutex
	cond    sync.Cond // L is &mu (Open)
}

// wait returns when it is ticket's turn. Waiting for the next ticket to be
// issued, with commitMu held so that it cannot be, waits for an empty
// pipeline.
func (t *turnstile) wait(ticket uint64) {
	if t.serving.Load() == ticket {
		return
	}
	// Announce before checking again: retire either sees the announcement and
	// broadcasts, or stored serving before it and the check below sees that.
	t.waiting.Add(1)
	t.mu.Lock()
	for t.serving.Load() != ticket {
		t.cond.Wait()
	}
	t.mu.Unlock()
	t.waiting.Add(-1)
}

// retire ends ticket's turn and starts the next one's.
func (t *turnstile) retire(ticket uint64) {
	t.serving.Store(ticket + 1)
	if t.waiting.Load() != 0 {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	}
}

// commit is the one write path. A batch is logged as one group record and
// covered by a barrier before it is acknowledged; a single op (batch false,
// len(ops) == 1) is logged as a plain record and stays buffered. The memtable
// takes ownership of the ops' key and value slices, which the caller has
// already made private.
//
// The order for each commit is encode → append → barrier → apply →
// acknowledge: the record is built before any lock is taken, and a write is
// never visible before it is durable nor acknowledged before it is visible.
// No DB lock is held across the barrier or the apply.
//
// Every ticket retires, in order, whatever happened to its commit. The first
// commit in ticket order whose append or barrier failed degrades the store
// and returns that error; it and every commit behind it leave the memtable
// alone — their records follow a hole in the log — and the ones behind return
// kv.ErrDegraded.
func (db *DB) commit(ops []kv.Op, batch bool) error {
	var rec []byte
	if !db.opts.DisableWAL {
		if batch {
			rec = encodeGroup(ops)
		} else {
			rec = encodeRecord(ops[0])
		}
	}
	var puts, deletes, logical uint64
	for _, op := range ops {
		if op.Delete {
			deletes++
			logical += uint64(len(op.Key))
		} else {
			puts++
			logical += uint64(len(op.Key) + len(op.Value))
		}
	}

	// Stage 1: a place in the log.
	db.commitMu.Lock()
	db.mu.RLock()
	err := db.writeGateLocked()
	db.mu.RUnlock()
	if err == nil {
		err = db.maybeRotate()
	}
	if err != nil {
		db.commitMu.Unlock()
		return err
	}
	ticket := db.tickets
	db.tickets++
	// The pair this record belongs to. Neither is replaced before the ticket
	// retires.
	log, mem := db.wal, db.mem
	var lsn int64
	if log != nil {
		lsn, err = log.append(rec)
	}
	db.commitMu.Unlock()

	// Stage 2: the barrier — this commit's own, or a neighbour's.
	if err == nil && log != nil && batch {
		var shared bool
		if shared, err = log.syncTo(lsn); shared {
			db.stats.walSharedCommits.Add(1)
		}
	}

	// Stage 3: into the memtable, in log order.
	db.turn.wait(ticket)
	switch {
	case db.commitErr != nil:
		err = kv.ErrDegraded
	case err != nil:
		db.commitErr = err
		db.degrade(err)
	default:
		// One memtable lock acquisition for the whole batch: a reader holds
		// only db.mu shared, so this is what keeps a batch all-or-nothing to
		// Get.
		mem.apply(ops)
		if log != nil {
			db.stats.physicalBytesWrite.Add(uint64(len(rec)))
		}
		db.stats.puts.Add(puts)
		db.stats.deletes.Add(deletes)
		db.stats.logicalBytesWritten.Add(logical)
	}
	db.turn.retire(ticket)
	return err
}

// maybeRotate rotates a full memtable into the flush queue: it waits for the
// commits in flight to reach that memtable, then stalls if the queue is at
// capacity. Called with commitMu held, before the caller's own append — for a
// lone writer, the instant after its previous commit.
func (db *DB) maybeRotate() error {
	if db.mem.size() < db.opts.MemtableBytes {
		return nil
	}
	db.turn.wait(db.tickets)
	db.mu.Lock()
	// Again: one of the commits just waited for may have degraded the store.
	err := db.writeGateLocked()
	if err == nil {
		err = db.waitForRoomLocked()
	}
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
	queueFull := func() bool { return len(db.imm) >= maxImmutableMemtables }
	// L0 write stop: an overfull L0 means ingest has outrun compaction;
	// stalling here bounds the debt a fast writer can defer (and keeps L0
	// point-read fan-out bounded). Skipped while draining — shutdown
	// suppresses the very compactions that would clear the stall.
	l0Full := func() bool {
		return len(db.current[0]) >= l0StallFactor*db.opts.L0CompactionTrigger && !db.draining
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
		for cause.stalled() && db.degradedErr == nil {
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
// commitMu held, the pipeline empty and db.mu released: the log is sealed and
// its successor opened first, and db.mu is taken only to swap the pointers.
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
	db.mem = newMemtable(memtableSeed + db.memSeq)
	db.maybeScheduleLocked()
	db.mu.Unlock()
	return nil
}

// settle waits for the commits in flight to finish, rotates any pending
// writes into the flush queue and waits for the background work to drain
// (settleLocked). Called with commitMu held.
func (db *DB) settle() error {
	db.turn.wait(db.tickets)
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

// settleLocked waits for the scheduler to drain every flush, the in-flight
// compaction, and all due compaction work: the scheduler starts whatever is
// due, and a due level always has a plan, so once nothing is queued or in
// flight nothing is due. A job stays in flight until the manifest recording
// its install is durable, so a settled store's on-disk state matches its
// in-memory version. Called with db.mu held.
func (db *DB) settleLocked() error {
	for db.degradedErr == nil {
		db.maybeScheduleLocked()
		if len(db.imm) == 0 && !db.flushing && !db.compacting {
			break
		}
		db.cond.Wait()
	}
	if db.degradedErr != nil {
		return kv.ErrDegraded
	}
	return nil
}
