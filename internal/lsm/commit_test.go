package lsm

// Tests for the commit pipeline's lock structure (DESIGN.md §18): device
// syncs happen with db.mu released, the WAL skips barriers it does not need,
// and manifest writes happen outside the lock without ever letting a file
// go before the manifest that stops needing it is durable. All of them are
// event-driven: a filesystem wrapper parks a chosen Sync until the test lets
// it go, so "while the sync is in flight" is a state the test holds, not a
// window it hopes to hit.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
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
	// The same counts are readable from Stats: one manifest per install.
	if s := db.Stats(); s.WALSyncs != 2 || s.ManifestWrites != s.FlushCount+s.CompactionCount {
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

// TestDrainReleasesL0Stall: a writer parked in the L0 write stop holds the
// write-pipeline mutex, so Drain must latch draining — the one thing that
// ends this stall, since no compaction is due — before it queues on that
// mutex. Latching after would deadlock here, and in a server would make the
// drain timeout wait out a compaction backlog first.
func TestDrainReleasesL0Stall(t *testing.T) {
	opts := faultOpts(faultfs.NewMemFS())
	opts.L0CompactionTrigger = 100
	opts.L0StallTrigger = 2
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

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
			if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), val); err != nil {
				writer <- err
				return
			}
		}
	}()
	deadline := time.After(10 * time.Second)
	for db.Stats().WriteStalls == 0 {
		select {
		case err := <-writer:
			t.Fatalf("writer stopped before stalling: %v", err)
		case <-deadline:
			t.Fatal("writer never hit the L0 write stop")
		default:
			runtime.Gosched()
		}
	}
	// WriteStalls counts a stall as it begins and nothing but draining ends
	// this one, so the writer is parked (or about to be) holding commitMu.
	drained := make(chan error, 1)
	go func() { drained <- db.Drain() }()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain queued behind a writer parked in the L0 write stop")
	}
	close(stop)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
}

// TestWriteStallsCountedPerCause: a rotation that finds the flush queue full
// and then L0 at its stop trigger is two stalls, as it was when the two
// waits were separate loops.
func TestWriteStallsCountedPerCause(t *testing.T) {
	fs := newParkFS(faultfs.NewMemFS())
	opts := faultOpts(fs)
	opts.DisableWAL = true
	opts.MaxImmutableMemtables = 1
	opts.L0CompactionTrigger = 100
	opts.L0StallTrigger = 1
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer fs.arm(nil)

	// Park the first flush before its table is durable: the queue stays full.
	fs.arm(hasSuffix(".sst"))
	val := bytes.Repeat([]byte{7}, 256)
	writer := make(chan error, 1)
	go func() {
		for i := 0; db.Stats().WriteStalls == 0; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), val); err != nil {
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
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := <-writer; err != nil {
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
