package lsm

// Tests for the commit pipeline (DESIGN.md §18). Its lock structure: device
// syncs happen with db.mu released, the WAL skips barriers it does not need,
// and manifest writes happen outside the lock without ever letting a file
// go before the manifest that stops needing it is durable. Its three stages:
// commits append in log order under commitMu alone, share WAL barriers by
// start-of-sync watermark, and reach the memtable in ticket order, with
// rotation, Flush and Close waiting for the pipeline to empty. All of them
// are event-driven: a filesystem wrapper parks a chosen Sync until the test
// lets it go, so "while the sync is in flight" is a state the test holds, not
// a window it hopes to hit.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
)

// parkFS wraps a filesystem so a test can hold a Sync mid-flight. A Sync on
// a path the armed predicate accepts announces itself on arrived and blocks
// until the test closes its release channel. Every Sync is counted by file
// extension, parked or not.
type parkFS struct {
	faultfs.FS
	arrived chan *parkedSync

	mu    sync.Mutex
	match func(path string) bool
	syncs map[string]int
}

type parkedSync struct {
	path    string
	release chan struct{}
}

func newParkFS(inner faultfs.FS) *parkFS {
	return &parkFS{FS: inner, arrived: make(chan *parkedSync), syncs: make(map[string]int)}
}

// arm sets which Syncs park from now on; nil parks none.
func (p *parkFS) arm(match func(path string) bool) {
	p.mu.Lock()
	p.match = match
	p.mu.Unlock()
}

func (p *parkFS) syncCount(ext string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.syncs[ext]
}

// next returns the next Sync to park, failing the test if none does.
func (p *parkFS) next(t *testing.T, wantSuffix string) *parkedSync {
	t.Helper()
	select {
	case s := <-p.arrived:
		if !strings.HasSuffix(s.path, wantSuffix) {
			t.Fatalf("parked Sync on %s, want a %s file", s.path, wantSuffix)
		}
		return s
	case <-time.After(10 * time.Second):
		t.Fatalf("no Sync on a %s file arrived", wantSuffix)
		return nil
	}
}

func (p *parkFS) Create(path string) (faultfs.File, error) {
	f, err := p.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &parkFile{File: f, fs: p, path: path}, nil
}

func (p *parkFS) OpenAppend(path string) (faultfs.File, error) {
	f, err := p.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &parkFile{File: f, fs: p, path: path}, nil
}

type parkFile struct {
	faultfs.File
	fs   *parkFS
	path string
}

func (f *parkFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs[filepath.Ext(f.path)]++
	park := f.fs.match != nil && f.fs.match(f.path)
	f.fs.mu.Unlock()
	if park {
		s := &parkedSync{path: f.path, release: make(chan struct{})}
		f.fs.arrived <- s
		<-s.release
	}
	return f.File.Sync()
}

func hasSuffix(suffix string) func(string) bool {
	return func(path string) bool { return strings.HasSuffix(path, suffix) }
}

// fillUntilRotation writes single-key batches until the first memtable
// rotates, returning the keys written (every one acknowledged-durable).
func fillUntilRotation(t *testing.T, db *DB) []string {
	t.Helper()
	val := bytes.Repeat([]byte{7}, 64)
	var keys []string
	for i := 0; db.activeWALPath() == db.walFile(1); i++ {
		key := fmt.Sprintf("key-%04d", i)
		b := db.NewBatch()
		b.Put([]byte(key), val)
		if err := b.Write(); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	return keys
}

// TestWALSyncDoesNotBlockReadersOrInstalls parks a batch's WAL sync and
// requires, while it stays parked: a Get returns, the batch is not yet
// visible (durable before visible), and a queued flush installs its table.
// With the sync under db.mu — the pre-pipeline write path — both the Get and
// the install would wait for the device.
func TestWALSyncDoesNotBlockReadersOrInstalls(t *testing.T) {
	fs := newParkFS(faultfs.NewMemFS())
	db, err := Open("db", faultOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer fs.arm(nil)

	// Queue a flush and hold it just before its table is durable.
	fs.arm(hasSuffix(".sst"))
	keys := fillUntilRotation(t, db)
	table := fs.next(t, ".sst")

	// Start a batch and hold its WAL sync.
	fs.arm(func(string) bool { return true })
	done := make(chan error, 1)
	go func() {
		b := db.NewBatch()
		b.Put([]byte("batch-key"), []byte("x"))
		done <- b.Write()
	}()
	walSync := fs.next(t, ".log")

	got := make(chan error, 1)
	go func() {
		if _, err := db.Get([]byte(keys[0])); err != nil {
			got <- err
			return
		}
		_, err := db.Get([]byte("batch-key"))
		got <- err
	}()
	select {
	case err := <-got:
		if !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("Get of the un-synced batch = %v, want ErrNotFound (visible before durable)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get blocked behind a parked WAL sync")
	}

	// Let the flush go: it must install, and reach its manifest write,
	// with the WAL sync still parked.
	close(table.release)
	manifest := fs.next(t, "MANIFEST.tmp")
	if n := db.LevelSizes()[0].Tables; n != 1 {
		t.Fatalf("L0 holds %d tables while the WAL sync is parked, want the flushed one", n)
	}
	select {
	case err := <-done:
		t.Fatalf("batch returned (%v) while its sync was parked", err)
	default:
	}

	close(manifest.release)
	close(walSync.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get([]byte("batch-key")); err != nil || string(v) != "x" {
		t.Fatalf("batch after sync = %q, %v", v, err)
	}
}

// TestManifestWriteOutsideLockKeepsWAL parks the manifest write that follows
// a flush install. At that instant the table is visible in memory but no
// durable manifest names it, so the flushed generation's log must still
// exist — and a power cut right there must reopen with every acknowledged
// batch present.
func TestManifestWriteOutsideLockKeepsWAL(t *testing.T) {
	mem := faultfs.NewMemFS()
	plan := faultfs.NewPlan(23)
	fs := newParkFS(faultfs.Inject(mem, plan))
	opts := faultOpts(fs)
	opts.MemtableBytes = 2 << 10
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}

	fs.arm(hasSuffix("MANIFEST.tmp"))
	acked := fillUntilRotation(t, db)
	manifest := fs.next(t, "MANIFEST.tmp")

	if n := db.LevelSizes()[0].Tables; n != 1 {
		t.Fatalf("L0 holds %d tables with the manifest write parked, want 1 (installed before the write)", n)
	}
	files := make(map[string]bool)
	for _, p := range mem.Paths() {
		files[p] = true
	}
	if !files[db.walFile(1)] {
		t.Fatalf("flushed WAL generation removed before its manifest was durable; files: %v", mem.Paths())
	}
	if files[db.manifestPath()] {
		t.Fatalf("a manifest is installed while the first manifest write is parked; files: %v", mem.Paths())
	}

	// Power cut with the manifest write in flight.
	plan.TripCrash()
	fs.arm(nil)
	close(manifest.release)
	db.Close() // the dead process's close; its I/O all fails
	mem.Crash(plan.TornTail())

	re, err := Open("db", faultOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, key := range acked {
		if _, err := re.Get([]byte(key)); err != nil {
			t.Fatalf("acknowledged batch %q lost: %v", key, err)
		}
	}
}

// TestRotationSkipsRedundantSync: sealing a log whose last record was
// already synced issues no barrier; sealing one with a buffered record
// still does (the rotation durability barrier of
// TestWALCloseSyncsBufferedRecords).
func TestRotationSkipsRedundantSync(t *testing.T) {
	fs := newParkFS(faultfs.NewMemFS())
	db, err := Open("db", faultOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	b := db.NewBatch()
	b.Put([]byte("a"), []byte("1"))
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	if n := fs.syncCount(".log"); n != 1 {
		t.Fatalf("batch commit issued %d WAL syncs, want 1", n)
	}
	if err := db.Flush(); err != nil { // rotates the synced log away
		t.Fatal(err)
	}
	if n := fs.syncCount(".log"); n != 1 {
		t.Fatalf("%d WAL syncs after rotating a synced log, want still 1", n)
	}

	if err := db.Put([]byte("b"), []byte("2")); err != nil { // buffered, not synced
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := fs.syncCount(".log"); n != 2 {
		t.Fatalf("%d WAL syncs after rotating a log with a buffered record, want 2", n)
	}
	// The same counts are readable from Stats. Every install snapshots a
	// manifest, but one is written only if no newer snapshot reached disk
	// first: installers reach commitManifest in any order, and a snapshot a
	// later install already superseded is skipped. So installs bound the
	// writes from above, not exactly.
	if s := db.Stats(); s.WALSyncs != 2 || s.ManifestWrites < 1 || s.ManifestWrites > s.FlushCount+s.CompactionCount {
		t.Fatalf("Stats: WALSyncs=%d ManifestWrites=%d with %d flushes + %d compactions",
			s.WALSyncs, s.ManifestWrites, s.FlushCount, s.CompactionCount)
	}
}

// TestManifestSkipsSupersededSnapshot: installers reach the manifest mutex
// in any order; a snapshot older than the one on disk must neither be
// written over it nor fail.
func TestManifestSkipsSupersededSnapshot(t *testing.T) {
	mem := faultfs.NewMemFS()
	db, err := Open("db", faultOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.mu.Lock()
	older := db.snapshotManifestLocked()
	newer := db.snapshotManifestLocked()
	db.mu.Unlock()
	older.data = []byte("stale")

	if err := db.commitManifest(newer); err != nil {
		t.Fatal(err)
	}
	if err := db.commitManifest(older); err != nil {
		t.Fatal(err)
	}
	if n := db.Stats().ManifestWrites; n != 1 {
		t.Fatalf("ManifestWrites = %d, want 1 (the superseded snapshot is skipped)", n)
	}
	raw, err := mem.ReadFile(db.manifestPath())
	if err != nil || !bytes.Equal(raw, newer.data) {
		t.Fatalf("manifest on disk = %q, %v; want the newer snapshot", raw, err)
	}
}

// TestBatchVisibleAtomically: a batch is applied with db.mu released, so what
// keeps it all-or-nothing to a concurrent reader is the single memtable lock
// acquisition of memtable.apply. Every batch stamps the same value on all of
// its keys and stamps only grow; a reader that sees stamp s on the first key
// must then see at least s on the last.
func TestBatchVisibleAtomically(t *testing.T) {
	for _, disableWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("disableWAL=%v", disableWAL), func(t *testing.T) {
			opts := faultOpts(faultfs.NewMemFS())
			opts.DisableWAL = disableWAL
			opts.MemtableBytes = 64 << 10
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			const keys, batches = 64, 400
			key := func(i int) []byte { return []byte(fmt.Sprintf("key-%02d", i)) }
			done := make(chan error, 1)
			go func() {
				defer close(done)
				for stamp := 1; stamp <= batches; stamp++ {
					b := db.NewBatch()
					for i := 0; i < keys; i++ {
						b.Put(key(i), []byte(fmt.Sprintf("%06d", stamp)))
					}
					if err := b.Write(); err != nil {
						done <- err
						return
					}
				}
			}()
			for writing := true; writing; {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
					writing = false
				default:
				}
				first, err := db.Get(key(0))
				if errors.Is(err, kv.ErrNotFound) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				last, err := db.Get(key(keys - 1))
				if err != nil {
					t.Fatalf("first key at stamp %s, last key: %v (half-applied batch)", first, err)
				}
				if bytes.Compare(last, first) < 0 {
					t.Fatalf("first key at stamp %s, last key still at %s (half-applied batch)", first, last)
				}
			}
		})
	}
}

// holdCompactionsFS parks every open of an SSTable for reading until release
// is closed. Flushes only write tables, so under a write-only workload it
// holds each compaction at its first input while flushes carry on: L0 then
// only grows.
type holdCompactionsFS struct {
	faultfs.FS
	release chan struct{}
}

func (h holdCompactionsFS) Open(path string) (faultfs.File, error) {
	if strings.HasSuffix(path, ".sst") {
		<-h.release
	}
	return h.FS.Open(path)
}

// putSpanning writes key together with the lowest key the stall tests use,
// so every table spans that key and overlaps every other: while one L0
// compaction is in flight no second can be planned beside it, and the held
// compaction costs one pool slot, not all of them.
func putSpanning(db *DB, key string, value []byte) error {
	b := db.NewBatch()
	b.Put([]byte("a"), value[:1])
	b.Put([]byte(key), value)
	return b.Write()
}

// l0Tables reports how many tables L0 holds.
func l0Tables(db *DB) int {
	return db.LevelSizes()[0].Tables
}

// TestDrainReleasesL0Stall: a writer parked in the L0 write stop holds the
// write-pipeline mutex, so Drain must latch draining — the one thing that
// ends this stall, since every compaction is held — before it queues on that
// mutex. Latching after would deadlock here, and in a server would make the
// drain timeout wait out a compaction backlog first.
func TestDrainReleasesL0Stall(t *testing.T) {
	hold := holdCompactionsFS{FS: faultfs.NewMemFS(), release: make(chan struct{})}
	opts := faultOpts(hold)
	opts.L0CompactionTrigger = 1
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	releaseHold := sync.OnceFunc(func() { close(hold.release) })
	defer db.Close()
	defer releaseHold()

	var puts atomic.Int64
	writer := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		val := bytes.Repeat([]byte{7}, 256)
		for i := 0; ; i++ {
			select {
			case <-stop:
				writer <- nil
				return
			default:
			}
			if err := putSpanning(db, fmt.Sprintf("key-%05d", i), val); err != nil {
				writer <- err
				return
			}
			puts.Add(1)
		}
	}()
	// Once L0 reaches the stop it stays there, so the writer's next rotation
	// parks for good: wait until it has stopped making progress.
	deadline := time.After(10 * time.Second)
	for {
		n := puts.Load()
		time.Sleep(20 * time.Millisecond)
		if db.Stats().WriteStalls > 0 && l0Tables(db) >= l0StallFactor*opts.L0CompactionTrigger && puts.Load() == n {
			break
		}
		select {
		case err := <-writer:
			t.Fatalf("writer stopped before stalling: %v", err)
		case <-deadline:
			t.Fatal("writer never parked in the L0 write stop")
		default:
		}
	}
	// The parked put must return while every compaction is still held.
	parked := puts.Load()
	drained := make(chan error, 1)
	go func() { drained <- db.Drain() }()
	spinUntil(t, "Drain released the writer parked in the L0 write stop", func() bool { return puts.Load() > parked })
	close(stop)
	releaseHold()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not finish once compactions were released")
	}
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
}

// TestWriteStallsCountedPerCause: a rotation that finds the flush queue full
// and then L0 at its stop trigger is two stalls, as it was when the two
// waits were separate loops.
func TestWriteStallsCountedPerCause(t *testing.T) {
	hold := holdCompactionsFS{FS: faultfs.NewMemFS(), release: make(chan struct{})}
	fs := newParkFS(hold)
	opts := faultOpts(fs)
	opts.DisableWAL = true
	opts.L0CompactionTrigger = 1
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	releaseHold := sync.OnceFunc(func() { close(hold.release) })
	defer db.Close()
	defer releaseHold()
	defer fs.arm(nil)

	// Bring L0 to one table short of its stop with the flush queue empty:
	// every flush finishes before the next put, and no compaction runs.
	val := bytes.Repeat([]byte{7}, 256)
	i := 0
	for l0Tables(db) < l0StallFactor*opts.L0CompactionTrigger-1 {
		if err := putSpanning(db, fmt.Sprintf("key-%05d", i), val); err != nil {
			t.Fatal(err)
		}
		i++
		spinUntil(t, "the flush queue drained", func() bool {
			db.mu.RLock()
			defer db.mu.RUnlock()
			return len(db.imm) == 0
		})
	}
	if st := db.Stats(); st.WriteStalls != 0 {
		t.Fatalf("%d write stalls while filling L0, want 0", st.WriteStalls)
	}

	// Park the next flush before its table is durable: the queue fills.
	fs.arm(hasSuffix(".sst"))
	writer := make(chan error, 1)
	go func() {
		for ; db.Stats().WriteStalls == 0; i++ {
			if err := putSpanning(db, fmt.Sprintf("key-%05d", i), val); err != nil {
				writer <- err
				return
			}
		}
		writer <- nil
	}()
	table := fs.next(t, ".sst")
	deadline := time.After(10 * time.Second)
	for db.Stats().WriteStalls == 0 {
		select {
		case err := <-writer:
			t.Fatalf("writer stopped before stalling: %v", err)
		case <-deadline:
			t.Fatal("writer never found the flush queue full")
		default:
			runtime.Gosched()
		}
	}
	// Let the flush install: the queue drains, L0 reaches its stop trigger,
	// and the same rotation stalls a second time until Drain lifts it.
	fs.arm(nil)
	close(table.release)
	for db.Stats().WriteStalls < 2 {
		select {
		case err := <-writer:
			t.Fatalf("writer returned (%v) after %d stalls, want it parked in a second", err, db.Stats().WriteStalls)
		case <-deadline:
			t.Fatalf("WriteStalls = %d after a full queue then a full L0, want 2", db.Stats().WriteStalls)
		default:
			runtime.Gosched()
		}
	}
	drained := make(chan error, 1)
	go func() { drained <- db.Drain() }()
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	releaseHold()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.WriteStalls != 2 {
		t.Fatalf("WriteStalls = %d, want 2", st.WriteStalls)
	}
	// Each stall's time lands under its own cause, and the causes add up to
	// the total; the flush job the first stall waited for reports where its
	// time went.
	if st.WriteStallQueueNanos == 0 || st.WriteStallL0Nanos == 0 ||
		st.WriteStallQueueNanos+st.WriteStallL0Nanos != st.WriteStallNanos {
		t.Fatalf("stall time: queue %d + L0 %d, total %d: want both nonzero and summing to the total",
			st.WriteStallQueueNanos, st.WriteStallL0Nanos, st.WriteStallNanos)
	}
	if st.FlushTableNanos == 0 || st.ManifestNanos == 0 {
		t.Fatalf("flush job time: table %d ns, manifest %d ns, want both nonzero",
			st.FlushTableNanos, st.ManifestNanos)
	}
}

// pipelineOpts is faultOpts with a memtable no test batch fills, so that a
// commit's stage 1 never waits on a rotation the test did not ask for.
func pipelineOpts(fsys faultfs.FS) Options {
	o := faultOpts(fsys)
	o.MemtableBytes = 1 << 20
	return o
}

// goBatch commits one single-key batch on its own goroutine.
func goBatch(db *DB, key, value string) <-chan error {
	done := make(chan error, 1)
	go func() {
		b := db.NewBatch()
		b.Put([]byte(key), []byte(value))
		done <- b.Write()
	}()
	return done
}

// spinUntil polls cond, yielding in between, and fails the test if it does
// not come true.
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting until %s", what)
		default:
			runtime.Gosched()
		}
	}
}

// awaitTickets waits until n commits have appended their record and taken a
// ticket. It looks under commitMu, and only ever tries the lock: a commit
// that sat on commitMu while it waited for a barrier or for its turn would
// starve the look and fail the test.
func awaitTickets(t *testing.T, db *DB, n uint64) {
	t.Helper()
	spinUntil(t, fmt.Sprintf("%d commits hold a ticket with commitMu free", n), func() bool {
		if !db.commitMu.TryLock() {
			return false
		}
		defer db.commitMu.Unlock()
		return db.tickets >= n
	})
}

func mustReturn(t *testing.T, what string, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

// mustAllSucceed waits for every named commit and fails on the first error.
func mustAllSucceed(t *testing.T, commits map[string]<-chan error) {
	t.Helper()
	for what, done := range commits {
		if err := mustReturn(t, what, done); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
}

func mustGet(t *testing.T, db *DB, key, want string) {
	t.Helper()
	if v, err := db.Get([]byte(key)); err != nil || string(v) != want {
		t.Fatalf("Get(%q) = %q, %v; want %q", key, v, err, want)
	}
}

// TestCommitAppendsWhileNeighbourSyncs: with writer A inside its WAL sync,
// writer B's record reaches the log and B waits for the barrier holding no DB
// lock — a third commit takes its ticket too — while nothing of B is visible
// yet and A's barrier does not vouch for it.
func TestCommitAppendsWhileNeighbourSyncs(t *testing.T) {
	fs := newParkFS(faultfs.NewMemFS())
	db, err := Open("db", pipelineOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer fs.arm(nil)

	fs.arm(hasSuffix(".log"))
	a := goBatch(db, "a", "1")
	syncA := fs.next(t, ".log")
	db.wal.mu.Lock()
	lsnA := db.wal.appended
	db.wal.mu.Unlock()

	b := goBatch(db, "b", "2")
	awaitTickets(t, db, 2)
	put := make(chan error, 1)
	go func() { put <- db.Put([]byte("c"), []byte("3")) }()
	awaitTickets(t, db, 3)

	db.wal.mu.Lock()
	appended, synced, syncing := db.wal.appended, db.wal.synced, db.wal.syncing
	db.wal.mu.Unlock()
	if !syncing || synced != 0 || appended <= lsnA {
		t.Fatalf("log with A's sync parked: appended %d (A's record ends at %d), synced %d, syncing %v; want B's record appended behind an in-flight barrier",
			appended, lsnA, synced, syncing)
	}
	for _, key := range []string{"a", "b", "c"} {
		if _, err := db.Get([]byte(key)); !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("Get(%q) with A's sync parked = %v, want ErrNotFound (visible before durable)", key, err)
		}
	}
	select {
	case err := <-b:
		t.Fatalf("B returned (%v) on a barrier issued before its record was appended", err)
	case err := <-put:
		t.Fatalf("a Put behind two unapplied batches returned (%v) out of log order", err)
	default:
	}

	fs.arm(nil)
	close(syncA.release)
	mustAllSucceed(t, map[string]<-chan error{"A": a, "B": b, "the Put": put})
	mustGet(t, db, "a", "1")
	mustGet(t, db, "b", "2")
	mustGet(t, db, "c", "3")
}

// TestBarrierSharedByWatermark: a barrier vouches for exactly the records the
// file held when its Sync was issued. Two commits appended while an earlier
// barrier is in flight go out on one barrier between them; a commit appended
// after a barrier was issued pays for its own, even though the in-memory
// filesystem's Sync would have swept it up.
func TestBarrierSharedByWatermark(t *testing.T) {
	t.Run("appended before the barrier was issued", func(t *testing.T) {
		fs := newParkFS(faultfs.NewMemFS())
		db, err := Open("db", pipelineOpts(fs))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		defer fs.arm(nil)

		fs.arm(hasSuffix(".log"))
		z := goBatch(db, "z", "0")
		syncZ := fs.next(t, ".log")
		fs.arm(nil)
		a := goBatch(db, "a", "1")
		b := goBatch(db, "b", "2")
		awaitTickets(t, db, 3)
		close(syncZ.release)
		mustAllSucceed(t, map[string]<-chan error{"Z": z, "A": a, "B": b})
		if st := db.Stats(); st.WALSyncs != 2 || st.WALSharedCommits != 1 || fs.syncCount(".log") != 2 {
			t.Fatalf("three commits, two of them appended during the first's barrier: WALSyncs=%d WALSharedCommits=%d (%d Syncs reached the file), want 2 and 1",
				st.WALSyncs, st.WALSharedCommits, fs.syncCount(".log"))
		}
	})
	t.Run("appended after the barrier was issued", func(t *testing.T) {
		fs := newParkFS(faultfs.NewMemFS())
		db, err := Open("db", pipelineOpts(fs))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		defer fs.arm(nil)

		fs.arm(hasSuffix(".log"))
		a := goBatch(db, "a", "1")
		syncA := fs.next(t, ".log")
		fs.arm(nil)
		b := goBatch(db, "b", "2")
		awaitTickets(t, db, 2)
		close(syncA.release)
		mustAllSucceed(t, map[string]<-chan error{"A": a, "B": b})
		if st := db.Stats(); st.WALSyncs != 2 || st.WALSharedCommits != 0 {
			t.Fatalf("B appended after A's Sync was issued: WALSyncs=%d WALSharedCommits=%d, want 2 and 0 (the watermark is start-of-sync)",
				st.WALSyncs, st.WALSharedCommits)
		}
	})
}

// crashAndReopen cuts the power under db and reopens what survived.
func crashAndReopen(t *testing.T, db *DB, mem *faultfs.MemFS, plan *faultfs.Plan) *DB {
	t.Helper()
	plan.TripCrash()
	db.Close() // the dead process's close; its I/O all fails
	mem.Crash(plan.TornTail())
	re, err := Open("db", faultOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	return re
}

// TestApplyOrderIsLogOrder: writers that share a key must leave the memtable
// holding what a replay of the log would. The crash sweep cannot see this —
// its writers own disjoint keys.
func TestApplyOrderIsLogOrder(t *testing.T) {
	// The later record's writer is ready first: a single Put has no barrier
	// to wait for, so it reaches the memtable's door while the batch logged
	// ahead of it is still syncing.
	t.Run("put behind a syncing batch", func(t *testing.T) {
		mem := faultfs.NewMemFS()
		plan := faultfs.NewPlan(29)
		fs := newParkFS(faultfs.Inject(mem, plan))
		db, err := Open("db", pipelineOpts(fs))
		if err != nil {
			t.Fatal(err)
		}
		defer fs.arm(nil)

		fs.arm(hasSuffix(".log"))
		a := goBatch(db, "k", "first")
		syncA := fs.next(t, ".log")
		fs.arm(nil)
		put := make(chan error, 1)
		go func() { put <- db.Put([]byte("k"), []byte("second")) }()
		spinUntil(t, "the Put queues for its turn", func() bool { return db.turn.waiting.Load() == 1 })
		close(syncA.release)
		if err := mustReturn(t, "A", a); err != nil {
			t.Fatal(err)
		}
		if err := mustReturn(t, "the Put", put); err != nil {
			t.Fatal(err)
		}
		if v, found, _ := db.mem.get([]byte("k")); !found || string(v) != "second" {
			t.Fatalf("memtable holds %q for k, want the later log record", v)
		}
		mustGet(t, db, "k", "second")
		// A later barrier carries the buffered Put to the device with it.
		if err := mustReturn(t, "the closing batch", goBatch(db, "end", "")); err != nil {
			t.Fatal(err)
		}
		mustGet(t, crashAndReopen(t, db, mem, plan), "k", "second")
	})
	// Two batches wait out an earlier barrier together; whichever wakes
	// first leads the next one and is first to the memtable's door. Over the
	// rounds both orders occur, and the later record must win in each.
	t.Run("two batches woken in either order", func(t *testing.T) {
		mem := faultfs.NewMemFS()
		plan := faultfs.NewPlan(31)
		fs := newParkFS(faultfs.Inject(mem, plan))
		db, err := Open("db", pipelineOpts(fs))
		if err != nil {
			t.Fatal(err)
		}
		defer fs.arm(nil)

		const rounds = 64
		key := func(i int) string { return fmt.Sprintf("k-%02d", i) }
		for i := 0; i < rounds; i++ {
			fs.arm(hasSuffix(".log"))
			z := goBatch(db, "z", "")
			syncZ := fs.next(t, ".log")
			fs.arm(nil)
			a := goBatch(db, key(i), "first")
			awaitTickets(t, db, uint64(3*i+2))
			b := goBatch(db, key(i), "second")
			awaitTickets(t, db, uint64(3*i+3))
			close(syncZ.release)
			mustAllSucceed(t, map[string]<-chan error{"Z": z, "A": a, "B": b})
			mustGet(t, db, key(i), "second")
		}
		re := crashAndReopen(t, db, mem, plan)
		for i := 0; i < rounds; i++ {
			mustGet(t, re, key(i), "second")
		}
	})
}

// TestFailedBarrierRetiresItsTicket: a sync that fails for good must not
// strand the commits queued behind it — on the barrier or at the turnstile.
// The failed commit returns the fault, the queued ones kv.ErrDegraded, none
// of them reaches the memtable, and Close still returns.
func TestFailedBarrierRetiresItsTicket(t *testing.T) {
	plan := faultfs.NewPlan(37)
	fs := newParkFS(faultfs.Inject(faultfs.NewMemFS(), plan))
	db, err := Open("db", pipelineOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.arm(nil)

	fs.arm(hasSuffix(".log"))
	a := goBatch(db, "a", "1")
	syncA := fs.next(t, ".log")
	fs.arm(nil)
	b := goBatch(db, "b", "2")
	awaitTickets(t, db, 2)
	put := make(chan error, 1)
	go func() { put <- db.Put([]byte("c"), []byte("3")) }()
	awaitTickets(t, db, 3)

	plan.SetFailWritesAfter(1) // every write-path call from here on fails, permanently
	close(syncA.release)
	if err := mustReturn(t, "A", a); err == nil || errors.Is(err, kv.ErrDegraded) || faultfs.IsTransient(err) {
		t.Fatalf("A = %v, want the permanent fault its Sync hit", err)
	}
	for what, done := range map[string]<-chan error{"B (queued on the barrier)": b, "the Put (queued for its turn)": put} {
		if err := mustReturn(t, what, done); !errors.Is(err, kv.ErrDegraded) {
			t.Fatalf("%s = %v, want kv.ErrDegraded", what, err)
		}
	}
	for _, key := range []string{"a", "b", "c"} {
		if _, err := db.Get([]byte(key)); !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("Get(%q) after the failed barrier = %v, want ErrNotFound (nothing applied)", key, err)
		}
	}
	if st := db.Stats(); st.Degraded != 1 || st.Puts != 0 {
		t.Fatalf("Stats after the failed barrier: Degraded=%d Puts=%d, want 1 and 0", st.Degraded, st.Puts)
	}
	if err := db.Put([]byte("d"), []byte("4")); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("Put on the degraded store = %v, want kv.ErrDegraded", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	mustReturn(t, "Close", closed)
	if db.turn.serving.Load() != 3 {
		t.Fatalf("%d tickets retired, want all 3", db.turn.serving.Load())
	}
}

// TestRotationWaitsForPipeline: a record appended to log generation g belongs
// in memtable g, because g's log is deleted once g's table is durable. Here B
// is appended to generation 1 and still syncing when the memtable fills and C
// comes to rotate it. C must wait for B; if it froze the memtable without B,
// "flush 1, delete log 1, power cut" would lose an acknowledged batch.
func TestRotationWaitsForPipeline(t *testing.T) {
	mem := faultfs.NewMemFS()
	plan := faultfs.NewPlan(41)
	fs := newParkFS(faultfs.Inject(mem, plan))
	opts := faultOpts(fs)
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.arm(nil)

	fs.arm(hasSuffix(".log"))
	a := goBatch(db, "a", strings.Repeat("x", opts.MemtableBytes)) // fills the memtable on its own
	syncA := fs.next(t, ".log")
	b := goBatch(db, "b", "2")
	awaitTickets(t, db, 2)
	close(syncA.release)
	if err := mustReturn(t, "A", a); err != nil {
		t.Fatal(err)
	}
	syncB := fs.next(t, ".log") // A is applied, the memtable is full, B holds ticket 1
	fs.arm(nil)

	c := goBatch(db, "c", "3")
	spinUntil(t, "C waits for the pipeline to empty", func() bool { return db.turn.waiting.Load() == 1 })
	db.mu.RLock()
	gen, frozen := db.walSeq, len(db.imm)
	db.mu.RUnlock()
	if gen != 1 || frozen != 0 {
		t.Fatalf("with B appended to generation 1 and not yet applied: active generation %d, %d frozen memtables; want 1 and 0", gen, frozen)
	}

	close(syncB.release)
	if err := mustReturn(t, "B", b); err != nil {
		t.Fatal(err)
	}
	if err := mustReturn(t, "C", c); err != nil {
		t.Fatal(err)
	}
	spinUntil(t, "generation 1 is flushed and its log removed", func() bool {
		for _, p := range mem.Paths() {
			if p == db.walFile(1) {
				return false
			}
		}
		return true
	})
	re := crashAndReopen(t, db, mem, plan)
	mustGet(t, re, "b", "2")
	mustGet(t, re, "c", "3")
	if _, err := re.Get([]byte("a")); err != nil {
		t.Fatalf("acknowledged batch a lost: %v", err)
	}
}

// TestFlushAndCloseDrainPipeline races Flush, CompactAll and Close against
// two batch writers (run under -race). Each returns at a pipeline-empty
// point; after Close every ticket issued has retired, and every batch that
// was acknowledged is there on reopen.
func TestFlushAndCloseDrainPipeline(t *testing.T) {
	mem := faultfs.NewMemFS()
	db, err := Open("db", faultOpts(faultfs.WithSyncLatency(mem, 20*time.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 2
	acked := make([][]string, writers)
	var commits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			val := bytes.Repeat([]byte{byte(w)}, 200)
			for i := 0; ; i++ {
				key := fmt.Sprintf("w%d-%05d", w, i)
				b := db.NewBatch()
				b.Put([]byte(key), val)
				if err := b.Write(); err != nil {
					if !errors.Is(err, kv.ErrClosed) {
						t.Errorf("writer %d: %v", w, err)
					}
					return
				}
				acked[w] = append(acked[w], key)
				commits.Add(1)
			}
		}()
	}
	for i := int64(1); i <= 20; i++ {
		spinUntil(t, "the writers commit some more", func() bool { return commits.Load() >= 10*i })
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	db.commitMu.Lock()
	issued := db.tickets
	db.commitMu.Unlock()
	if applied := db.turn.serving.Load(); applied != issued || issued == 0 {
		t.Fatalf("after Close: %d tickets issued, %d retired", issued, applied)
	}
	re, err := Open("db", faultOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for w := range acked {
		for _, key := range acked[w] {
			if _, err := re.Get([]byte(key)); err != nil {
				t.Fatalf("acknowledged batch %q: %v", key, err)
			}
		}
	}
}
