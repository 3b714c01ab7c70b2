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
// memtable rotation, range- and level-disjoint compactions run concurrently
// with per-table claims, large merges split into key-range sub-compactions,
// and all jobs draw goroutines from a compaction.Pool that may be shared
// across DB instances for a process-wide concurrency budget.
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
// Files: db.go (options, scheduler, read path, manifest), commit.go (the
// write path: stages, turnstile, rotation, stalls, settle), compaction.go
// (planning, merge execution, install), tablewriter.go,
// sstable.go and block.go (table format, writer, reader, iterator, block
// search), merge.go (sources and the k-way merge), memtable.go/skiplist.go,
// wal.go, blockcache.go.
package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ethkv/internal/compaction"
	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
)

// Options tunes a DB. The zero value is usable; unset fields assume
// defaults scaled for simulator workloads.
type Options struct {
	// MemtableBytes is the rotation threshold for the write buffer.
	MemtableBytes int
	// MaxImmutableMemtables bounds the flush queue; writers stall when a
	// rotation would exceed it.
	MaxImmutableMemtables int
	// L0CompactionTrigger is the number of L0 tables that triggers a
	// compaction into L1.
	L0CompactionTrigger int
	// LevelBaseBytes is the target size of L1; each deeper level is
	// LevelMultiplier times larger.
	LevelBaseBytes int64
	// LevelMultiplier is the size ratio between adjacent levels.
	LevelMultiplier int64
	// MaxLevels bounds the tree depth.
	MaxLevels int
	// DisableWAL skips write-ahead logging (pure benchmarks).
	DisableWAL bool
	// Seed makes skiplist heights deterministic across runs.
	Seed int64
	// FS is the filesystem seam all durable I/O goes through. Nil means
	// the real OS filesystem; tests substitute faultfs.MemFS (with fault
	// injection) to exercise crash recovery deterministically.
	FS faultfs.FS
	// RetryAttempts bounds the retry-with-backoff loop for transient I/O
	// faults (faultfs.IsTransient); the attempt that exhausts the budget
	// surfaces the error and degrades the store.
	RetryAttempts int
	// RetryBackoff is the first retry's sleep; each subsequent retry
	// doubles it.
	RetryBackoff time.Duration
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
	// CompactionWorkers caps how many compactions this DB runs
	// concurrently, and how many goroutines a split merge fans its
	// sub-compactions across. 0 selects the default (4). 1 restores the
	// fully serial pre-scheduler behavior: one background job at a time,
	// flushes prioritized over compactions — crash tests rely on that
	// mode for a deterministic filesystem write order. At 2+, one flush
	// job additionally runs alongside the compactions so memtable
	// rotation never waits behind a long merge.
	CompactionWorkers int
	// L0StallTrigger is the L0 table count at which writers stall until
	// compaction catches up (the write-stop backpressure of leveled
	// stores). Every L0 table widens point reads and lets the store defer
	// unbounded compaction debt, so ingest must not outrun the scheduler
	// indefinitely. 0 selects 4x L0CompactionTrigger; negative disables
	// the stall. Ignored while draining (shutdown must not block writers
	// on merges that will never be scheduled).
	L0StallTrigger int
	// SubCompactionBytes is the input-size threshold past which one
	// compaction splits into key-range sub-compactions (one range per
	// SubCompactionBytes of input, capped). 0 selects 4x
	// CompactionTableBytes. The split boundaries depend only on the
	// planned inputs — never on worker count — so the concatenated
	// outputs are byte-identical no matter how many goroutines ran.
	SubCompactionBytes int64
	// Pool, when set, shares a process-wide background worker budget
	// across DB instances: all flushes and compactions of every DB on the
	// pool compete for its slots, highest compaction debt first. Nil
	// gives this DB a private pool of CompactionWorkers slots.
	Pool *compaction.Pool
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.MemtableBytes == 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.MaxImmutableMemtables == 0 {
		o.MaxImmutableMemtables = 2
	}
	if o.L0CompactionTrigger == 0 {
		o.L0CompactionTrigger = 4
	}
	if o.LevelBaseBytes == 0 {
		o.LevelBaseBytes = 16 << 20
	}
	if o.LevelMultiplier == 0 {
		o.LevelMultiplier = 10
	}
	if o.MaxLevels == 0 {
		o.MaxLevels = 7
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FS == nil {
		o.FS = faultfs.OS
	}
	if o.RetryAttempts == 0 {
		o.RetryAttempts = 4
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 200 * time.Microsecond
	}
	if o.CompactionTableBytes == 0 {
		// Target ~2 MiB output tables so L1+ stays granular.
		o.CompactionTableBytes = 2 << 20
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = 32 << 20
	}
	if o.CompactionWorkers == 0 {
		o.CompactionWorkers = compaction.DefaultWorkers
	}
	if o.CompactionWorkers < 1 {
		o.CompactionWorkers = 1
	}
	if o.SubCompactionBytes == 0 {
		o.SubCompactionBytes = 4 * int64(o.CompactionTableBytes)
	}
	if o.L0StallTrigger == 0 {
		o.L0StallTrigger = 4 * o.L0CompactionTrigger
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
	// mu guards the version: mem/imm/levels and the scheduler state. It is
	// held exclusively only to swap pointers, never across file I/O.
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
	// levels is the version: per level, the live tables, each carrying the
	// handle of its lazily opened reader (tableHandle). A table leaves it
	// only under mu held exclusively, which is what lets Get and Has — who
	// hold mu shared throughout — use those readers without references.
	levels [][]tableMeta
	// cache is the DB-wide sharded block cache all demand-paged table
	// reads go through; nil when Options.BlockCacheBytes is negative.
	cache  *blockCache
	next   atomic.Uint64 // next file number
	closed bool

	// Background scheduler state, guarded by mu. maybeScheduleLocked
	// submits flush and compaction jobs to pool; each job broadcasts on
	// cond when it installs. bgErr latches the first background failure;
	// writers surface it.
	pool     *compaction.Pool
	bgWG     sync.WaitGroup // tracks every submitted job to its very end
	flushing bool           // a flush job is submitted or running
	// claimed marks tables (by file number) owned by an in-flight
	// compaction; plan selection never touches a claimed table.
	claimed map[uint64]struct{}
	// jobs holds the key range and level pair of every in-flight
	// compaction, for the disjointness admission check.
	jobs   map[int]compactJob
	jobSeq int
	// inFlight counts submitted-but-unfinished background jobs (the flush
	// job plus compactions); settleLocked waits for it to reach zero.
	inFlight        int
	compactInFlight int
	// parallelSince is the instant compactInFlight last rose to 2; the
	// elapsed span lands in CompactionParallelNanos when it drops back.
	parallelSince time.Time
	// draining suppresses new compaction scheduling (Drain/shutdown);
	// flushes and already-running compactions still complete.
	draining bool
	bgErr    error
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
	flushCount                      atomic.Uint64
	writeStalls                     atomic.Uint64
	writeStallQueueNanos            atomic.Uint64 // stalled on a full flush queue
	writeStallL0Nanos               atomic.Uint64 // stalled on the L0 stop trigger
	flushTableNanos, manifestNanos  atomic.Uint64 // flush job: table write, manifest commit
	ioRetries, degraded             atomic.Uint64
	walSyncs, walSyncNanos          atomic.Uint64
	walSharedCommits                atomic.Uint64 // batches durable on another writer's barrier
	manifestWrites                  atomic.Uint64
	subCompactions                  atomic.Uint64
	compactionParallelNanos         atomic.Uint64
	maxConcurrentCompactions        atomic.Uint64
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
		mem:     newMemtable(opts.Seed),
		levels:  make([][]tableMeta, opts.MaxLevels),
		cache:   newBlockCache(opts.BlockCacheBytes),
		claimed: make(map[uint64]struct{}),
		jobs:    make(map[int]compactJob),
		pool:    opts.Pool,
	}
	if db.pool == nil {
		db.pool = compaction.NewPool(opts.CompactionWorkers)
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

// retryIO runs one I/O operation under faultfs.Retry with the store's
// Options.RetryAttempts/RetryBackoff, counting retries in IORetries.
func (db *DB) retryIO(op func() error) error {
	return faultfs.Retry(db.opts.RetryAttempts, db.opts.RetryBackoff, &db.stats.ioRetries, op)
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
	if db.bgErr != nil {
		return db.bgErr
	}
	return nil
}

// newTableWriter returns a writer for current-format tables on level, wired
// to the store's filesystem and retry policy. dataBytes pre-sizes the image.
func (db *DB) newTableWriter(level, dataBytes int) *tableWriter {
	return newTableWriter(db.fs, db.dir, db.retryIO, level, tableFormatV2, dataBytes)
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
		db.levels[0] = append(db.levels[0], meta)
		db.memSeq++
		db.mem = newMemtable(db.opts.Seed + db.memSeq)
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

// activeWALPath returns the path of the log currently receiving records;
// crash-recovery tests truncate it to simulate torn writes.
func (db *DB) activeWALPath() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.walFile(db.walSeq)
}

// compactJob is the admission-control record of one in-flight compaction:
// which adjacent level pair it reads and writes, and the key span (source
// tables plus overlapping destination tables) it owns.
type compactJob struct {
	level, dst int
	lo, hi     []byte
}

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
//   - up to Options.CompactionWorkers concurrent compactions, each planned
//     by tryPlanLevelLocked under the disjointness rule;
//   - with CompactionWorkers == 1 the flush job and compactions additionally
//     exclude each other, restoring the serial single-worker write order
//     (flushes first) that deterministic crash tests depend on.
func (db *DB) maybeScheduleLocked() {
	if db.closed || db.bgErr != nil || db.degradedErr != nil {
		return
	}
	db.noteDebtLocked()
	serial := db.opts.CompactionWorkers <= 1
	if !db.flushing && len(db.imm) > 0 && !(serial && db.compactInFlight > 0) {
		db.flushing = true
		db.inFlight++
		db.bgWG.Add(1)
		db.pool.Submit(flushPriority, db.runFlushJob)
	}
	if db.draining && !db.forceCompact {
		return
	}
	for db.compactInFlight < db.opts.CompactionWorkers && !(serial && db.flushing) {
		plan, ok := db.planNextCompactionLocked()
		if !ok {
			return
		}
		db.startCompactionLocked(plan)
	}
}

// failLocked latches the first background failure and degrades the store.
func (db *DB) failLocked(err error) {
	if db.bgErr == nil {
		db.bgErr = err
	}
	db.setDegradedLocked(err)
}

// noteDebtLocked records the current compaction debt into its high-water
// stat and returns it (the pool's priority key).
func (db *DB) noteDebtLocked() uint64 {
	debt := uint64(db.compactionDebtLocked())
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
	for db.bgErr == nil && db.degradedErr == nil && !db.closed && len(db.imm) > 0 {
		task := db.imm[0]
		num := db.next.Add(1) - 1
		db.mu.Unlock()
		start := time.Now()
		meta, err := db.flushMemtable(num, task.mem)
		db.stats.flushTableNanos.Add(uint64(time.Since(start)))
		db.mu.Lock()
		if err != nil {
			db.failLocked(err)
			break
		}
		db.stats.physicalBytesWrite.Add(uint64(meta.size))
		db.stats.flushCount.Add(1)
		db.levels[0] = append(db.levels[0], meta)
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
			db.failLocked(err)
			break
		}
	}
	db.flushing = false
	db.inFlight--
	db.maybeScheduleLocked()
	db.cond.Broadcast()
	db.mu.Unlock()
}

// startCompactionLocked registers plan as an in-flight job — claiming its
// tables, recording its level pair and key span for admission checks — and
// submits it to the worker pool at the store's current debt priority.
func (db *DB) startCompactionLocked(plan compactionPlan) {
	db.jobSeq++
	id := db.jobSeq
	db.jobs[id] = compactJob{level: plan.level, dst: plan.dst, lo: plan.lo, hi: plan.hi}
	for _, m := range plan.srcMetas {
		db.claimed[m.num] = struct{}{}
	}
	for _, m := range plan.dstIn {
		db.claimed[m.num] = struct{}{}
	}
	db.inFlight++
	db.compactInFlight++
	if n := uint64(db.compactInFlight); n > db.stats.maxConcurrentCompactions.Load() {
		db.stats.maxConcurrentCompactions.Store(n)
	}
	if db.compactInFlight == 2 {
		db.parallelSince = time.Now()
	}
	debt := db.noteDebtLocked()
	db.bgWG.Add(1)
	db.pool.Submit(debt, func() { db.runCompactionJob(id, plan) })
}

// finishCompactionLocked unwinds startCompactionLocked's bookkeeping.
func (db *DB) finishCompactionLocked(id int, plan compactionPlan) {
	delete(db.jobs, id)
	for _, m := range plan.srcMetas {
		delete(db.claimed, m.num)
	}
	for _, m := range plan.dstIn {
		delete(db.claimed, m.num)
	}
	db.inFlight--
	db.compactInFlight--
	if db.compactInFlight == 1 {
		db.stats.compactionParallelNanos.Add(uint64(time.Since(db.parallelSince)))
	}
}

// runCompactionJob executes one planned compaction on a pool goroutine:
// merge with the lock released, install under db.mu, then save the manifest
// with the lock released again. The job keeps its claims and its in-flight
// count until the manifest is durable, and only then deletes its inputs: a
// crash before that point reopens on a manifest that still names them.
func (db *DB) runCompactionJob(id int, plan compactionPlan) {
	defer db.bgWG.Done()
	db.mu.Lock()
	if db.bgErr != nil || db.degradedErr != nil || db.closed {
		db.finishCompactionLocked(id, plan)
		db.cond.Broadcast()
		db.mu.Unlock()
		return
	}
	hook := db.compactionHook
	db.mu.Unlock()

	newMetas, readBytes, err := db.runCompaction(plan, hook)

	db.mu.Lock()
	if err != nil {
		db.failLocked(err)
		db.finishCompactionLocked(id, plan)
		db.cond.Broadcast()
		db.mu.Unlock()
		return
	}
	obsolete := db.installCompactionLocked(plan, newMetas, readBytes)
	snap := db.snapshotManifestLocked()
	db.cond.Broadcast() // L0 shrank: release writers stalled on it
	db.mu.Unlock()

	err = db.commitManifest(snap)

	db.mu.Lock()
	db.finishCompactionLocked(id, plan)
	if err != nil {
		db.failLocked(err)
	} else {
		db.maybeScheduleLocked()
	}
	db.cond.Broadcast()
	db.mu.Unlock()
	// The inputs left the version at the install either way; their files go
	// only once a manifest without them is durable.
	db.retireTables(obsolete, err == nil)
}

// Drain latches the store into draining mode — no new compactions are
// scheduled (flushes still run) — and waits for the flush queue and every
// in-flight compaction to finish. Servers call this before Close so
// shutdown is bounded by the merges already running, not by the full
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

// lookup is the point-read path shared by Get and Has: find the newest entry
// for key, account the read, and return the live value — a read-only view of
// memtable or block-cache memory, valid for as long as the caller holds it —
// or kv.ErrNotFound.
//
// A read of cached data writes shared memory a fixed number of times however
// many tables it probes: db.mu's reader count (in and out), one block-cache
// shard lock per block searched, and its stripe of the read counters. The
// memtables cost nothing while empty or frozen, and the tables' readers come
// with the version (DESIGN.md §20).
func (db *DB) lookup(key []byte) ([]byte, error) {
	hash := fastHash64(key)
	var rc readCounts
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return nil, kv.ErrClosed
	}
	v, found, deleted, err := db.searchLocked(key, hash, &rc)
	db.mu.RUnlock()
	if err == nil && (!found || deleted) {
		v, err = nil, kv.ErrNotFound
	}
	db.stats.reads.publish(hash, len(v), &rc)
	return v, err
}

// searchLocked consults the memtable, the frozen memtables newest-first, L0
// newest-first (its files may overlap), then the one candidate table of each
// deeper level, and stops at the first entry for key, live or tombstone.
// Called with db.mu held shared — which is also what keeps every table of
// db.levels, and so its reader, from being retired underneath it.
func (db *DB) searchLocked(key []byte, hash uint64, rc *readCounts) (v []byte, found, deleted bool, err error) {
	if v, found, deleted = db.mem.get(key); found {
		return v, found, deleted, nil
	}
	for i := len(db.imm) - 1; i >= 0; i-- {
		if v, found, deleted = db.imm[i].mem.getFrozen(key); found {
			return v, found, deleted, nil
		}
	}
	l0 := db.levels[0]
	for i := len(l0) - 1; i >= 0; i-- {
		if v, found, deleted, err = db.tableGet(&l0[i], key, hash, rc); found || err != nil {
			return v, found, deleted, err
		}
	}
	for level := 1; level < len(db.levels); level++ {
		metas := db.levels[level]
		i := sort.Search(len(metas), func(i int) bool {
			return bytes.Compare(metas[i].largest, key) >= 0
		})
		if i == len(metas) || bytes.Compare(metas[i].smallest, key) > 0 {
			continue
		}
		if v, found, deleted, err = db.tableGet(&metas[i], key, hash, rc); found || err != nil {
			return v, found, deleted, err
		}
	}
	return nil, false, false, nil
}

// tableGet probes one table of the version. Called with db.mu held.
func (db *DB) tableGet(m *tableMeta, key []byte, hash uint64, rc *readCounts) (v []byte, found, deleted bool, err error) {
	t, err := db.table(m)
	if err != nil {
		return nil, false, false, err
	}
	return t.get(key, hash, rc)
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

// unclaimedLocked reports whether no in-flight compaction owns table m.
func (db *DB) unclaimedLocked(m tableMeta) bool {
	_, claimed := db.claimed[m.num]
	return !claimed
}

// levelNeedsCompactionLocked reports whether level's unclaimed tables put it
// over its invariant. Claimed tables are excluded on both sides: they are
// already being compacted away, so counting them would schedule jobs that
// cannot pick any input.
func (db *DB) levelNeedsCompactionLocked(level int) bool {
	unclaimed := 0
	var size int64
	for _, m := range db.levels[level] {
		if db.unclaimedLocked(m) {
			unclaimed++
			size += m.size
		}
	}
	if db.forceCompact {
		return unclaimed > 0
	}
	if level == 0 {
		return unclaimed >= db.opts.L0CompactionTrigger
	}
	target := db.opts.LevelBaseBytes
	for l := 1; l < level; l++ {
		target *= db.opts.LevelMultiplier
	}
	return size > target
}

// hasCompactionWorkLocked reports whether any level currently warrants a
// compaction (ignoring admission: claimed-table conflicts resolve as the
// owning jobs finish, and settleLocked re-checks on every broadcast).
func (db *DB) hasCompactionWorkLocked() bool {
	if db.draining && !db.forceCompact {
		return false
	}
	for level := 0; level < len(db.levels)-1; level++ {
		if db.levelNeedsCompactionLocked(level) {
			return true
		}
	}
	return false
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

// bottomMostLocked reports whether no level below dst holds keys in
// [lo, hi]; if so, tombstones can be dropped during compaction into dst.
func (db *DB) bottomMostLocked(dst int, lo, hi []byte) bool {
	for level := dst + 1; level < len(db.levels); level++ {
		for _, m := range db.levels[level] {
			if bytes.Compare(m.largest, lo) >= 0 && bytes.Compare(m.smallest, hi) <= 0 {
				return false
			}
		}
	}
	return true
}

// prefixSuccessor returns the smallest key greater than every key with the
// given prefix, or nil when no such bound exists (empty or all-0xFF prefix).
// It is the exclusive upper bound of a prefix scan.
func prefixSuccessor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xFF {
			upper := append([]byte(nil), prefix[:i+1]...)
			upper[i]++
			return upper
		}
	}
	return nil
}

// NewIterator implements kv.Iterable: a merged scan over the entire tree.
func (db *DB) NewIterator(prefix, start []byte) kv.Iterator {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return kv.ErrIterator(kv.ErrClosed)
	}
	db.stats.scans.Add(1)
	lower := append(append([]byte(nil), prefix...), start...)
	// Exclusive upper bound: a table whose smallest key is at or past the
	// prefix successor cannot contribute and need not be opened at all.
	upper := prefixSuccessor(prefix)

	// Table references live until Release: a compaction may delete source
	// files mid-scan, and the iterator's refs keep the handles (and the OS
	// file contents) alive until the walk finishes.
	var (
		sources []source
		readers []*tableReader
	)
	fail := func(err error) kv.Iterator {
		for _, t := range readers {
			t.unref()
		}
		return kv.ErrIterator(err)
	}
	sources = append(sources, newMemSource(db.mem, lower))
	for i := len(db.imm) - 1; i >= 0; i-- {
		sources = append(sources, newMemSource(db.imm[i].mem, lower))
	}
	addTable := func(m *tableMeta) error {
		if bytes.Compare(m.largest, lower) < 0 ||
			(upper != nil && bytes.Compare(m.smallest, upper) >= 0) {
			return nil
		}
		t, err := db.acquire(m)
		if err != nil {
			return err
		}
		readers = append(readers, t)
		sources = append(sources, newTableSource(t, lower))
		return nil
	}
	l0 := db.levels[0]
	for i := len(l0) - 1; i >= 0; i-- {
		if err := addTable(&l0[i]); err != nil {
			return fail(err)
		}
	}
	for level := 1; level < len(db.levels); level++ {
		for i := range db.levels[level] {
			if err := addTable(&db.levels[level][i]); err != nil {
				return fail(err)
			}
		}
	}
	return &dbIterator{
		db:      db,
		merged:  newMergeIterator(sources),
		prefix:  append([]byte(nil), prefix...),
		readers: readers,
	}
}

// dbIterator adapts mergeIterator to kv.Iterator, hiding tombstones and
// enforcing the prefix bound.
type dbIterator struct {
	db       *DB
	merged   *mergeIterator
	prefix   []byte
	key      []byte
	value    []byte
	done     bool
	released bool
	readers  []*tableReader // table references released at Release
}

func (it *dbIterator) Next() bool {
	if it.done {
		return false
	}
	for it.merged.next() {
		e := it.merged.entry()
		if !bytes.HasPrefix(e.key, it.prefix) {
			it.done = true
			return false
		}
		if e.tombstone {
			continue
		}
		it.key = append(it.key[:0], e.key...)
		it.value = append(it.value[:0], e.value...)
		return true
	}
	it.done = true
	return false
}

func (it *dbIterator) Key() []byte   { return it.key }
func (it *dbIterator) Value() []byte { return it.value }

// Release ends the scan, recycles its readahead buffers and drops the
// iterator's table references (idempotent); files a compaction obsoleted
// mid-scan close here on the last reference. The scan's disk fetches land in
// the physical-read counter here — block-cache hits cost zero, so a fully
// cached scan adds nothing.
func (it *dbIterator) Release() {
	if !it.released {
		it.released, it.done = true, true
		var read uint64
		for _, s := range it.merged.sources {
			if ts, ok := s.(*tableSource); ok {
				read += uint64(ts.bytesConsumed())
				ts.close()
			}
		}
		it.db.stats.reads.addPhysical(read)
	}
	for _, t := range it.readers {
		t.unref()
	}
	it.readers = nil
}

// Error surfaces corruption detected mid-scan. A scan that stopped early
// because a table's block framing was broken reports it here rather than
// masquerading as a clean short result.
func (it *dbIterator) Error() error { return it.merged.err() }

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
		TombstonesLive:      db.stats.tombstonesLive.Load(),
		FlushCount:          db.stats.flushCount.Load(),
		WriteStalls:         db.stats.writeStalls.Load(),
		IORetries:           db.stats.ioRetries.Load(),
		WALSyncs:            db.stats.walSyncs.Load(),
		WALSyncNanos:        db.stats.walSyncNanos.Load(),
		WALSharedCommits:    db.stats.walSharedCommits.Load(),
		ManifestWrites:      db.stats.manifestWrites.Load(),
		Degraded:            db.stats.degraded.Load(),
		SubCompactions:      db.stats.subCompactions.Load(),

		CompactionParallelNanos:  db.stats.compactionParallelNanos.Load(),
		MaxConcurrentCompactions: db.stats.maxConcurrentCompactions.Load(),
		CompactionDebtPeak:       db.stats.compactionDebtPeak.Load(),
		WriteStallQueueNanos:     db.stats.writeStallQueueNanos.Load(),
		WriteStallL0Nanos:        db.stats.writeStallL0Nanos.Load(),
		FlushTableNanos:          db.stats.flushTableNanos.Load(),
		ManifestNanos:            db.stats.manifestNanos.Load(),
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
	}, len(db.levels))
	for i, metas := range db.levels {
		out[i].Tables = len(metas)
		for _, m := range metas {
			out[i].Bytes += m.size
		}
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
	for _, metas := range db.levels {
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

// Manifest format: version u32, next u64, then per table:
// level uvarint | num uvarint | size uvarint | entries uvarint |
// smallestLen uvarint | smallest | largestLen uvarint | largest.
// The file is replaced by writing a temp file and renaming it over.

// manifestSnap is one encoded manifest: the version as of install seq.
type manifestSnap struct {
	seq  uint64
	data []byte
}

// snapshotManifestLocked encodes the current version. Called with db.mu
// held, right after an install, so snapshots are numbered in install order
// and each one contains every install before it.
func (db *DB) snapshotManifestLocked() manifestSnap {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	put(1) // version
	put(db.next.Load())
	for level, metas := range db.levels {
		for _, m := range metas {
			put(uint64(level))
			put(m.num)
			put(uint64(m.size))
			put(m.entries)
			put(uint64(len(m.smallest)))
			buf.Write(m.smallest)
			put(uint64(len(m.largest)))
			buf.Write(m.largest)
		}
	}
	db.manifestSeq++
	return manifestSnap{seq: db.manifestSeq, data: buf.Bytes()}
}

// commitManifest returns once a manifest at least as new as snap is durable.
// Called with db.mu released: the write, sync and rename happen behind
// manifestMu only. Installers may arrive out of order; a snapshot that a
// newer one has already superseded on disk is skipped, never written over
// it. Until commitManifest returns, the caller must keep every file the
// previous manifest needs — the flushed WAL generation, a compaction's
// input tables.
func (db *DB) commitManifest(snap manifestSnap) error {
	db.manifestMu.Lock()
	defer db.manifestMu.Unlock()
	if snap.seq <= db.manifestDurable {
		return nil
	}
	tmpPath := db.manifestPath() + ".tmp"
	if err := db.retryIO(func() error {
		return faultfs.WriteFileSync(db.fs, tmpPath, snap.data)
	}); err != nil {
		return err
	}
	if err := db.retryIO(func() error {
		return db.fs.Rename(tmpPath, db.manifestPath())
	}); err != nil {
		return err
	}
	db.manifestDurable = snap.seq
	db.stats.manifestWrites.Add(1)
	return nil
}

func (db *DB) loadManifest() error {
	var raw []byte
	err := db.retryIO(func() error {
		var err error
		raw, err = db.fs.ReadFile(db.manifestPath())
		return err
	})
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	get := func() (uint64, error) {
		v, n := binary.Uvarint(raw)
		if n <= 0 {
			return 0, fmt.Errorf("lsm: corrupt manifest")
		}
		raw = raw[n:]
		return v, nil
	}
	if _, err := get(); err != nil { // version
		return err
	}
	next, err := get()
	if err != nil {
		return err
	}
	db.next.Store(next)
	for len(raw) > 0 {
		level, err := get()
		if err != nil {
			return err
		}
		num, err := get()
		if err != nil {
			return err
		}
		size, err := get()
		if err != nil {
			return err
		}
		entries, err := get()
		if err != nil {
			return err
		}
		slen, err := get()
		if err != nil {
			return err
		}
		if uint64(len(raw)) < slen {
			return fmt.Errorf("lsm: corrupt manifest")
		}
		smallest := append([]byte(nil), raw[:slen]...)
		raw = raw[slen:]
		llen, err := get()
		if err != nil {
			return err
		}
		if uint64(len(raw)) < llen {
			return fmt.Errorf("lsm: corrupt manifest")
		}
		largest := append([]byte(nil), raw[:llen]...)
		raw = raw[llen:]
		if int(level) >= len(db.levels) {
			return fmt.Errorf("lsm: manifest level %d out of range", level)
		}
		db.levels[level] = append(db.levels[level], tableMeta{
			num: num, level: int(level), size: int64(size),
			entries: entries, smallest: smallest, largest: largest,
			h: new(tableHandle),
		})
	}
	return nil
}
