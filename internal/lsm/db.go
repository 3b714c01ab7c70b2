// Package lsm implements a log-structured merge-tree key-value store: the
// repository's stand-in for Pebble, the store Geth uses by default.
//
// Architecture: writes land in a WAL and a skiplist memtable; full memtables
// rotate into an immutable queue that background jobs flush to level-0
// SSTables and compact into non-overlapping runs on L1+ with exponentially
// growing level capacities. Deletes write tombstones that survive until they
// compact into the bottom level — exactly the cost model the paper's
// Finding 5 critiques. The store tracks logical vs physical I/O so
// experiments can report write/read amplification.
//
// Every mutation — Put, Delete, a batch — goes through one commit pipeline
// (DB.commit, commit.go) of three stages. The WAL record is encoded before
// any lock is taken. Stage 1, under the commit mutex and for microseconds
// only: admission, rotation of a full memtable, append to the log, a ticket.
// Stage 2, under no DB lock: the durability barrier, which concurrent
// writers share — one Sync is in flight per log, it vouches for the records
// the file held when it was issued, and a writer one already covers skips
// the device. Stage 3: apply to the memtable in ticket order, so apply order
// is log order is replay order. One writer's barrier thus overlaps its
// neighbours' appends and applies, while each write is still durable before
// it is visible and visible before it is acknowledged. Writers never
// serialise with readers or background installs: db.mu is held exclusively
// only to swap pointers (memtable rotation, table install), never across
// file I/O. Rotation, Flush, Drain, CompactAll and Close act only once the
// pipeline is empty. Writers stall when the flush queue or L0 is full
// (write-stall backpressure, counted in Stats). DESIGN.md §18 has the lock
// order, the stages, the failure rule and the durability invariants.
//
// Background work runs on a compaction scheduler (see maybeScheduleLocked):
// flushes and compactions occupy separate jobs so a long merge never blocks
// memtable rotation, a store runs one compaction at a time, planned from the
// version alone, as one merge over its whole plan, and every job runs on a
// goroutine of a compaction.Pool that may be shared across DB instances for
// a process-wide concurrency budget.
//
// Both kinds of job write tables through one streaming path: a flush walks
// the frozen memtable's skiplist, a compaction pulls from a heap-ordered
// mergeIterator over table sources reading through recycled readahead
// buffers, and either feeds a tableWriter that encodes each entry once into
// a pooled table image and writes it with a single create/write/sync/close.
// Nothing materialises the entries in between — the background jobs share
// the machine's cores with the writer, and every copy and allocation they
// made was time the writer spent stalled (DESIGN.md §19).
//
// Point reads (DB.lookup, behind Get and Has) hold db.mu shared and nothing
// else of the store's: the version's level entries carry their tables'
// readers, so no lookup structure or reference count is shared between
// readers; a cached block is binary-searched over entry offsets derived when
// it was read; a cache hit leaves the cache as it found it but for a count;
// and the read's own counters are summed on its stack and published once, to
// a stripe picked by the key's hash. What two readers on two cores still
// write in common is db.mu's reader count (DESIGN.md §20).
//
// Files: db.go (options, open, WAL recovery, the public API), commit.go
// (the write path: stages, turnstile, rotation, stalls, settle), read.go
// (point reads and scans), version.go (the level layout, its edits, the
// manifest), plan.go (the compaction planner), compaction.go (scheduler,
// merge execution, install), tablewriter.go, sstable.go and block.go (table
// format, writer, reader, iterator, block search), merge.go (sources and the
// k-way merge), memtable.go/skiplist.go, wal.go, blockcache.go.
package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"ethkv/internal/compaction"
	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
)

// The tree's shape. No caller tunes these, so they are constants.
const (
	// maxImmutableMemtables bounds the flush queue; writers stall when a
	// rotation would exceed it.
	maxImmutableMemtables = 2
	// l0StallFactor sets the L0 write stop: writers stall while L0 holds
	// l0StallFactor × L0CompactionTrigger tables, until compaction catches
	// up (the write-stop backpressure of leveled stores). Every L0 table
	// widens point reads and lets the store defer unbounded compaction
	// debt, so ingest must not outrun the scheduler indefinitely. Ignored
	// while draining (shutdown must not block writers on merges that will
	// never be scheduled).
	l0StallFactor = 4
	// levelMultiplier is the size ratio between adjacent levels.
	levelMultiplier = 10
	// numLevels is the tree depth, L0 included.
	numLevels = 7
	// memtableSeed makes skiplist heights deterministic across runs; each
	// memtable generation adds its number to it.
	memtableSeed = 1
)

// Options tunes a DB. The zero value is usable; unset fields assume
// defaults scaled for simulator workloads.
type Options struct {
	// MemtableBytes is the rotation threshold for the write buffer.
	MemtableBytes int
	// L0CompactionTrigger is the number of L0 tables that triggers a
	// compaction into L1.
	L0CompactionTrigger int
	// LevelBaseBytes is the target size of L1; each deeper level is
	// levelMultiplier times larger.
	LevelBaseBytes int64
	// DisableWAL skips write-ahead logging (pure benchmarks).
	DisableWAL bool
	// FS is the filesystem seam all durable I/O goes through. Nil means
	// the real OS filesystem; tests substitute faultfs.MemFS (with fault
	// injection) to exercise crash recovery deterministically.
	FS faultfs.FS
	// CompactionTableBytes caps the size of tables a compaction writes on
	// L1+. Smaller caps mean more, finer-grained tables per level — tests
	// shrink it to exercise multi-table levels cheaply.
	CompactionTableBytes int
	// BlockCacheBytes is the byte budget of the DB-wide sharded block
	// cache serving demand-paged SSTable reads. 0 selects the 32 MiB
	// default; negative disables caching entirely (every block read goes
	// to the filesystem). Index and bloom sections are pinned per open
	// table outside this budget.
	BlockCacheBytes int64
	// Pool is the background budget: all flushes and compactions of every
	// DB on the pool compete for its slots, highest compaction debt first.
	// A DB runs at most one compaction at a time, so a wider pool runs
	// different DBs' compactions side by side. A pool of 1 is the fully
	// serial mode: one background job at a time, flushes before
	// compactions, which the crash tests rely on for a deterministic
	// filesystem write order. From 2 up, one flush job runs alongside the
	// compaction so memtable rotation never waits behind a long merge. Nil
	// gives the DB a private pool of compaction.DefaultWorkers slots.
	Pool *compaction.Pool
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.MemtableBytes == 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.L0CompactionTrigger == 0 {
		o.L0CompactionTrigger = 4
	}
	if o.LevelBaseBytes == 0 {
		o.LevelBaseBytes = 16 << 20
	}
	if o.FS == nil {
		o.FS = faultfs.OS
	}
	if o.Pool == nil {
		o.Pool = compaction.NewPool(0)
	}
	if o.CompactionTableBytes == 0 {
		// Target ~2 MiB output tables so L1+ stays granular.
		o.CompactionTableBytes = 2 << 20
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = 32 << 20
	}
	return o
}

// flushTask is one frozen memtable awaiting background flush, paired with
// the WAL generation that made it durable (0 when the WAL is disabled). The
// WAL file is deleted only after the flush installs its SSTable.
type flushTask struct {
	mem    *memtable
	walSeq uint64
}

// DB is the LSM store. It implements kv.Store and kv.StatsProvider.
type DB struct {
	// commitMu orders the log: a commit holds it to pass admission, rotate a
	// full memtable, append its record and take a ticket — never across a
	// WAL sync or a memtable apply (commit.go). Flush, Drain, CompactAll and
	// Close hold it end to end, which stops new commits while they wait out
	// the ones in flight (Drain latches draining under mu first, to release
	// a writer stalled inside). Lock order: commitMu → mu → {a table
	// handle's mu, manifestMu}; the log's own mutex and the turnstile's are
	// leaves.
	commitMu sync.Mutex
	// tickets is the next commit ticket, guarded by commitMu; turn admits
	// ticket holders to the memtable in that order. turn.serving == tickets
	// is the pipeline-empty point at which mem and wal may be replaced.
	tickets uint64
	turn    turnstile
	// commitErr latches the first failed append or barrier, in ticket order.
	// Read and written only by the commit whose turn it is.
	commitErr error
	// mu guards mem, imm, current and the scheduler state. It is held
	// exclusively only to swap pointers, never across file I/O.
	mu   sync.RWMutex
	cond *sync.Cond // signalled by the background worker; L is &mu
	opts Options
	dir  string
	fs   faultfs.FS // all durable I/O goes through this seam
	// wal is the active log, paired with mem. The pointer is guarded by
	// commitMu alone; a commit in flight keeps using the log it appended to,
	// which synchronises itself.
	wal *wal
	// walSeq (generation of the active log), mem, memSeq and closed are
	// written with commitMu and mu both held, so either lock suffices to
	// read them.
	walSeq uint64
	mem    *memtable
	memSeq int64 // memtable generation, perturbs the skiplist seed
	// imm holds frozen memtables awaiting flush, oldest first. The read
	// path consults them newest-first between mem and L0.
	imm []flushTask
	// current is the version: per level, the live tables, each carrying the
	// handle of its lazily opened reader (tableHandle). It is replaced only
	// under mu held exclusively, which is what lets Get and Has — who hold mu
	// shared throughout — use those readers without references.
	current version
	// cache is the DB-wide sharded block cache all demand-paged table
	// reads go through; nil when Options.BlockCacheBytes is negative.
	cache  *blockCache
	next   atomic.Uint64 // next file number
	closed bool

	// Background scheduler state, guarded by mu. maybeScheduleLocked
	// submits flush and compaction jobs to pool; each job broadcasts on
	// cond when it installs. A background failure degrades the store
	// (degradedErr); writers surface it.
	pool *compaction.Pool
	// workers is pool's size, read once at Open; 1 is the serial mode.
	workers int
	bgWG    sync.WaitGroup // tracks every submitted job to its very end
	// flushing and compacting are set while a flush job or the compaction
	// job is submitted or running, until its manifest is durable: everything
	// settleLocked waits for.
	flushing, compacting bool
	// draining suppresses new compaction scheduling (Drain/shutdown);
	// flushes and the already-running compaction still complete.
	draining bool
	// degradedErr latches the first permanent storage failure; once set
	// the store is read-only: writes return kv.ErrDegraded, reads keep
	// serving whatever state survives. Guarded by mu; mirrored into
	// stats.degraded for lock-free Stats().
	degradedErr error
	// forceCompact makes pickCompaction drain every level to the bottom
	// (CompactAll).
	forceCompact bool
	// compactionHook, when set (tests), runs during the merge phase of each
	// background compaction — outside db.mu, proving readers stay live.
	compactionHook func()

	// manifestSeq numbers the manifest snapshots encoded under mu, in
	// install order. manifestMu serialises the snapshot writes, which happen
	// with mu released; manifestDurable (guarded by manifestMu) is the
	// newest snapshot known to be on disk.
	manifestSeq     uint64
	manifestMu      sync.Mutex
	manifestDurable uint64

	// I/O counters, all atomics: the write pipeline, the background jobs and
	// any number of readers update them concurrently.
	stats dbStats
}

// dbStats mirrors kv.Stats with atomic fields.
type dbStats struct {
	reads                           readStats
	puts, deletes, scans            atomic.Uint64
	logicalBytesWritten             atomic.Uint64
	physicalBytesWrite              atomic.Uint64
	compactionCount, tombstonesLive atomic.Uint64
	trivialMoves, trivialMoveBytes  atomic.Uint64
	flushCount                      atomic.Uint64
	writeStalls                     atomic.Uint64
	writeStallQueueNanos            atomic.Uint64 // stalled on a full flush queue
	writeStallL0Nanos               atomic.Uint64 // stalled on the L0 stop trigger
	flushTableNanos, manifestNanos  atomic.Uint64 // flush job: table write, manifest commit
	ioRetries, degraded             atomic.Uint64
	walSyncs, walSyncNanos          atomic.Uint64
	walSharedCommits                atomic.Uint64 // batches durable on another writer's barrier
	manifestWrites                  atomic.Uint64
	compactionDebtPeak              atomic.Uint64
}

// readStats holds the counters point reads feed, striped so that concurrent
// readers do not pass one cache line back and forth on every Get: a read
// publishes into the stripe its key hash picks, each stripe is padded out to
// its own pair of cache lines, and Stats sums them.
type readStats [readStripes]readStripe

const readStripes = 16

type readStripe struct {
	gets, logicalBytes, physicalBytes   atomic.Uint64
	bloomNegatives, bloomFalsePositives atomic.Uint64
	_                                   [128 - 5*8]byte
}

// publish adds one point read to the stripe hash picks. Most of a cached
// read's counts are zero, and a zero is not worth a locked add.
func (r *readStats) publish(hash uint64, logicalBytes int, rc *readCounts) {
	s := &r[hash%readStripes]
	s.gets.Add(1)
	if logicalBytes != 0 {
		s.logicalBytes.Add(uint64(logicalBytes))
	}
	if rc.physicalBytes != 0 {
		s.physicalBytes.Add(uint64(rc.physicalBytes))
	}
	if rc.bloomNegatives != 0 {
		s.bloomNegatives.Add(uint64(rc.bloomNegatives))
	}
	if rc.bloomFalsePositives != 0 {
		s.bloomFalsePositives.Add(uint64(rc.bloomFalsePositives))
	}
}

// addPhysical accounts table bytes read outside point reads (scans,
// compactions).
func (r *readStats) addPhysical(n uint64) { r[0].physicalBytes.Add(n) }

var _ kv.Store = (*DB)(nil)
var _ kv.StatsProvider = (*DB)(nil)

// Open creates or reopens an LSM database in dir.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	db := &DB{
		opts:    opts,
		dir:     dir,
		fs:      opts.FS,
		mem:     newMemtable(memtableSeed),
		cache:   newBlockCache(opts.BlockCacheBytes),
		pool:    opts.Pool,
		workers: opts.Pool.Workers(),
	}
	if err := db.retryIO(func() error { return db.fs.MkdirAll(dir) }); err != nil {
		return nil, err
	}
	db.cond = sync.NewCond(&db.mu)
	db.turn.cond.L = &db.turn.mu
	db.next.Store(1)
	if err := db.loadManifest(); err != nil {
		return nil, err
	}
	// Readers open on first use, but every table's footer is read now: a
	// table of a retired format fails Open, not the first read reaching it.
	for _, metas := range db.current {
		for _, m := range metas {
			if err := checkTableFooter(db.fs, db.dir, m, db.retryIO); err != nil {
				return nil, fmt.Errorf("%s: %w", tablePath(db.dir, m.num), err)
			}
		}
	}
	if !opts.DisableWAL {
		if err := db.recoverWALs(); err != nil {
			return nil, err
		}
		db.walSeq = 1
		w, err := db.openWALGen(db.walSeq)
		if err != nil {
			return nil, err
		}
		db.wal = w
	}
	// Pick up any compaction debt left by recovery.
	db.mu.Lock()
	db.maybeScheduleLocked()
	db.mu.Unlock()
	return db, nil
}

// retryIO runs one I/O operation under faultfs.Retry, counting retries in
// IORetries; the transient fault that exhausts the budget surfaces the error
// and degrades the store.
func (db *DB) retryIO(op func() error) error {
	return faultfs.Retry(&db.stats.ioRetries, op)
}

// setDegradedLocked latches the store into read-only degraded mode after a
// permanent storage failure. Called with db.mu held. Sticky: the first
// cause is kept, later failures are consequences.
func (db *DB) setDegradedLocked(err error) {
	if db.degradedErr != nil || err == nil {
		return
	}
	db.degradedErr = err
	db.stats.degraded.Store(1)
	db.cond.Broadcast() // release stalled writers
}

// degrade is setDegradedLocked for the commit pipeline, which runs its file
// I/O with db.mu released.
func (db *DB) degrade(err error) {
	db.mu.Lock()
	db.setDegradedLocked(err)
	db.mu.Unlock()
}

// writeGateLocked is the common admission check for Put/Delete/batch
// commits. Called with db.mu held (shared suffices).
func (db *DB) writeGateLocked() error {
	if db.closed {
		return kv.ErrClosed
	}
	if db.degradedErr != nil {
		return kv.ErrDegraded
	}
	return nil
}

// newTableWriter returns a writer for tables on level, wired to the store's
// filesystem and retry policy. dataBytes pre-sizes the image.
func (db *DB) newTableWriter(level, dataBytes int) *tableWriter {
	return newTableWriter(db.fs, db.dir, db.retryIO, level, dataBytes)
}

// flushMemtable writes every entry of mem, tombstones included, as L0 table
// num. mem must no longer take writes.
func (db *DB) flushMemtable(num uint64, mem *memtable) (tableMeta, error) {
	w := db.newTableWriter(0, mem.size())
	defer w.release()
	mem.writeTo(w)
	return w.finish(num)
}

// openWALGen opens generation seq of the log for appending, wired to the
// store's retry policy and barrier counters.
func (db *DB) openWALGen(seq uint64) (*wal, error) {
	w, err := openWAL(db.fs, db.walFile(seq), db.retryIO)
	if err != nil {
		return nil, err
	}
	w.stats = &db.stats
	return w, nil
}

// removeFile deletes path under the retry policy; an already-absent file
// is success.
func (db *DB) removeFile(path string) error {
	return db.retryIO(func() error {
		err := db.fs.Remove(path)
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	})
}

// recoverWALs replays every log left by the previous run into the memtable
// (oldest generation first), synchronously flushes the recovered state to
// L0, and deletes the stale logs. Every filesystem call runs under retryIO,
// like its steady-state counterparts: a replay interrupted by a transient
// fault restarts that log from the top, which is harmless because replaying
// a prefix twice leaves the same memtable as replaying it once.
func (db *DB) recoverWALs() error {
	var seqs []uint64
	if err := db.retryIO(func() error {
		var err error
		seqs, err = db.walSeqsOnDisk()
		return err
	}); err != nil {
		return err
	}
	// The replayed slices alias the record buffer; the memtable keeps what
	// it is handed, so copy.
	replay := func(op byte, key, value []byte) error {
		if op == walOpDelete {
			db.mem.del(append([]byte(nil), key...))
		} else {
			db.mem.put(append([]byte(nil), key...), append([]byte(nil), value...))
		}
		return nil
	}
	for _, seq := range seqs {
		path := db.walFile(seq)
		if err := db.retryIO(func() error { return replayWAL(db.fs, path, replay) }); err != nil {
			return err
		}
	}
	if db.mem.count() > 0 {
		num := db.next.Add(1) - 1
		meta, err := db.flushMemtable(num, db.mem)
		if err != nil {
			return err
		}
		db.stats.physicalBytesWrite.Add(uint64(meta.size))
		db.stats.flushCount.Add(1)
		db.current = db.current.apply(versionEdit{added: []tableMeta{meta}})
		db.memSeq++
		db.mem = newMemtable(memtableSeed + db.memSeq)
		if err := db.commitManifest(db.snapshotManifestLocked()); err != nil {
			return err
		}
	}
	for _, seq := range seqs {
		if err := db.removeFile(db.walFile(seq)); err != nil {
			return err
		}
	}
	return nil
}

// walSeqsOnDisk lists the numbered WAL generations present in dir, sorted.
func (db *DB) walSeqsOnDisk() ([]uint64, error) {
	matches, err := db.fs.Glob(filepath.Join(db.dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, m := range matches {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(m), "wal-%d.log", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func (db *DB) walFile(seq uint64) string {
	return filepath.Join(db.dir, fmt.Sprintf("wal-%06d.log", seq))
}
func (db *DB) manifestPath() string { return filepath.Join(db.dir, "MANIFEST") }

// Drain latches the store into draining mode — no new compactions are
// scheduled (flushes still run) — and waits for the flush queue and the
// in-flight compaction to finish. Servers call this before Close so
// shutdown is bounded by the merge already running, not by the full
// compaction debt. The latch persists: a subsequent Close settles promptly
// and the next Open picks the remaining debt back up.
//
// The latch is set before queueing on commitMu: a writer parked in the L0
// write stop holds commitMu, and draining is what releases it, so a bounded
// shutdown does not first wait out a compaction backlog.
func (db *DB) Drain() error {
	db.mu.Lock()
	if !db.closed {
		db.draining = true
		db.cond.Broadcast()
	}
	db.mu.Unlock()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.closed {
		return kv.ErrClosed
	}
	return db.settle()
}

// Put implements kv.Writer.
func (db *DB) Put(key, value []byte) error {
	op := [1]kv.Op{{Key: append([]byte(nil), key...), Value: append([]byte(nil), value...)}}
	return db.commit(op[:], false)
}

// Delete implements kv.Writer: it writes a tombstone.
func (db *DB) Delete(key []byte) error {
	op := [1]kv.Op{{Key: append([]byte(nil), key...), Delete: true}}
	return db.commit(op[:], false)
}

// Get implements kv.Reader.
func (db *DB) Get(key []byte) ([]byte, error) {
	v, err := db.lookup(key)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), v...), nil
}

// Has implements kv.Reader: Get's lookup without the copy of the value.
func (db *DB) Has(key []byte) (bool, error) {
	_, err := db.lookup(key)
	if errors.Is(err, kv.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}

// Flush forces buffered writes to disk and waits for background work to
// settle; exposed for tests and checkpoints.
func (db *DB) Flush() error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.closed {
		return kv.ErrClosed
	}
	return db.settle()
}

// CompactAll forces every level's data down to the bottom of the tree,
// purging all droppable tombstones — the equivalent of Pebble's manual
// whole-range compaction.
func (db *DB) CompactAll() error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.closed {
		return kv.ErrClosed
	}
	db.mu.Lock()
	db.forceCompact = true
	db.mu.Unlock()
	err := db.settle()
	db.mu.Lock()
	db.forceCompact = false
	db.mu.Unlock()
	return err
}

// NewBatch implements kv.Batcher.
func (db *DB) NewBatch() kv.Batch { return &dbBatch{db: db} }

// dbBatch buffers writes and commits them as one unit through DB.commit: a
// single framed WAL group record covered by a durability barrier before it
// is acknowledged, so crash recovery replays the batch all-or-nothing, and
// one memtable lock acquisition (memtable.apply), so a concurrent Get sees
// none of it or all of it. Batches from different writers keep their own
// records but may leave on one barrier. Put and Delete take private copies
// of the caller's bytes once; Write hands those same slices to the memtable,
// which only ever reads them, so a batch may be written, replayed or reset
// afterwards without copying again.
type dbBatch struct {
	kv.OpBatch
	db *DB
}

func (b *dbBatch) Write() error {
	if len(b.Ops) == 0 {
		return nil
	}
	return b.db.commit(b.Ops, true)
}

// Stats implements kv.StatsProvider.
func (db *DB) Stats() kv.Stats {
	s := kv.Stats{
		Puts:                db.stats.puts.Load(),
		Deletes:             db.stats.deletes.Load(),
		Scans:               db.stats.scans.Load(),
		LogicalBytesWritten: db.stats.logicalBytesWritten.Load(),
		PhysicalBytesWrite:  db.stats.physicalBytesWrite.Load(),
		CompactionCount:     db.stats.compactionCount.Load(),
		TrivialMoves:        db.stats.trivialMoves.Load(),
		TrivialMoveBytes:    db.stats.trivialMoveBytes.Load(),
		TombstonesLive:      db.stats.tombstonesLive.Load(),
		FlushCount:          db.stats.flushCount.Load(),
		WriteStalls:         db.stats.writeStalls.Load(),
		IORetries:           db.stats.ioRetries.Load(),
		WALSyncs:            db.stats.walSyncs.Load(),
		WALSyncNanos:        db.stats.walSyncNanos.Load(),
		WALSharedCommits:    db.stats.walSharedCommits.Load(),
		ManifestWrites:      db.stats.manifestWrites.Load(),
		Degraded:            db.stats.degraded.Load(),

		CompactionDebtPeak:   db.stats.compactionDebtPeak.Load(),
		WriteStallQueueNanos: db.stats.writeStallQueueNanos.Load(),
		WriteStallL0Nanos:    db.stats.writeStallL0Nanos.Load(),
		FlushTableNanos:      db.stats.flushTableNanos.Load(),
		ManifestNanos:        db.stats.manifestNanos.Load(),
	}
	s.WriteStallNanos = s.WriteStallQueueNanos + s.WriteStallL0Nanos
	for i := range db.stats.reads {
		r := &db.stats.reads[i]
		s.Gets += r.gets.Load()
		s.LogicalBytesRead += r.logicalBytes.Load()
		s.PhysicalBytesRead += r.physicalBytes.Load()
		s.BloomNegatives += r.bloomNegatives.Load()
		s.BloomFalsePositives += r.bloomFalsePositives.Load()
	}
	s.BlockCacheHits, s.BlockCacheMisses, s.BlockCacheEvictions = db.cache.counters()
	s.BlockCachePinnedBytes = uint64(db.cache.pinnedBytes())
	return s
}

// LevelSizes returns per-level table counts and byte sizes, for diagnostics.
func (db *DB) LevelSizes() []struct {
	Tables int
	Bytes  int64
} {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]struct {
		Tables int
		Bytes  int64
	}, numLevels)
	for i, metas := range db.current {
		out[i].Tables, out[i].Bytes = len(metas), levelBytes(metas)
	}
	return out
}

// Close flushes buffered writes, waits for background jobs to finish, and
// releases resources.
func (db *DB) Close() error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.closed {
		return nil
	}
	err := db.settle()
	db.mu.Lock()
	db.closed = true
	db.cond.Broadcast()
	db.mu.Unlock()
	// settleLocked left no runnable work; wait out the job tails (obsolete
	// file removal runs after the install broadcast).
	db.bgWG.Wait()
	// Drop the version's table references — closed is set, so no read finds
	// its way to them any more; outstanding iterators keep theirs and the
	// files close on their Release.
	for _, metas := range db.current {
		for _, m := range metas {
			m.h.release()
		}
	}
	if db.wal != nil {
		if werr := db.wal.close(); err == nil {
			err = werr
		}
	}
	return err
}
