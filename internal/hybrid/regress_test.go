package hybrid

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
	"ethkv/internal/lsm"
	"ethkv/internal/rawdb"
)

// recordingStore wraps a MemStore and logs every write-path entry point, so
// tests can assert how the hybrid dispatcher reaches its backends.
type recordingStore struct {
	kv.Store
	name   string
	events *[]string
}

func (r *recordingStore) Put(key, value []byte) error {
	*r.events = append(*r.events, "direct-put:"+r.name)
	return r.Store.Put(key, value)
}

func (r *recordingStore) Delete(key []byte) error {
	*r.events = append(*r.events, "direct-delete:"+r.name)
	return r.Store.Delete(key)
}

func (r *recordingStore) NewBatch() kv.Batch {
	*r.events = append(*r.events, "newbatch:"+r.name)
	return &recordingBatch{Batch: r.Store.NewBatch(), name: r.name, events: r.events}
}

type recordingBatch struct {
	kv.Batch
	name   string
	events *[]string
}

func (b *recordingBatch) Write() error {
	*b.events = append(*b.events, "commit:"+b.name)
	return b.Batch.Write()
}

// TestBatchUsesPerBackendSubBatches is the regression test for the batch
// routing bug: Write must group ops into one sub-batch per target backend
// and commit the sub-batches in backend order — never replay ops one-by-one
// through the backends' Put/Delete (which loses batch atomicity and WAL
// group commit).
func TestBatchUsesPerBackendSubBatches(t *testing.T) {
	var events []string
	mk := func(name string) kv.Store {
		return &recordingStore{Store: kv.NewMemStore(), name: name, events: &events}
	}
	s := newRouted(t, mk("ordered"), mk("log"), mk("point"))
	defer s.Close()

	b := s.NewBatch()
	// Interleave routes so grouping (not op order) determines the commits.
	b.Put(rawdb.CodeKey(hash(1)), []byte("h1"))            // point
	b.Put(rawdb.TxLookupKey(hash(2)), []byte("l1"))        // log
	b.Put(rawdb.SnapshotAccountKey(hash(3)), []byte("o1")) // ordered
	b.Put(rawdb.TxLookupKey(hash(4)), []byte("l2"))        // log
	b.Delete(rawdb.CodeKey(hash(5)))                       // point
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}

	var commits []string
	for _, e := range events {
		switch {
		case strings.HasPrefix(e, "direct-"):
			t.Fatalf("batch reached a backend through %s instead of a sub-batch", e)
		case strings.HasPrefix(e, "commit:"):
			commits = append(commits, strings.TrimPrefix(e, "commit:"))
		}
	}
	// One commit per touched backend, in backend (fixed route) order.
	want := []string{"ordered", "log", "point"}
	if len(commits) != len(want) {
		t.Fatalf("commits = %v, want one per backend %v", commits, want)
	}
	for i := range want {
		if commits[i] != want[i] {
			t.Fatalf("commit order = %v, want %v", commits, want)
		}
	}

	// And the data must have landed.
	if v, _ := s.Get(rawdb.SnapshotAccountKey(hash(3))); string(v) != "o1" {
		t.Fatal("ordered put lost")
	}
	if v, _ := s.Get(rawdb.TxLookupKey(hash(4))); string(v) != "l2" {
		t.Fatal("log put lost")
	}
}

// countingFS counts writes and syncs against WAL files, through the
// lsm.Options.FS seam.
type countingFS struct {
	faultfs.FS
	walWrites, walSyncs atomic.Int64
}

func (c *countingFS) OpenAppend(path string) (faultfs.File, error) {
	f, err := c.FS.OpenAppend(path)
	if err != nil || !strings.HasPrefix(filepath.Base(path), "wal-") {
		return f, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.fs.walWrites.Add(1)
	return f.File.Write(p)
}

func (f *countingFile) Sync() error {
	f.fs.walSyncs.Add(1)
	return f.File.Sync()
}

// TestBatchSingleWALGroupCommit pins the WAL-level consequence of the
// batch fix: a hybrid batch whose ops target an LSM route must reach that
// LSM as one Batch.Write, producing exactly one WAL emission and one
// durability barrier (group commit) — not a stream of buffered,
// un-synced per-op records.
func TestBatchSingleWALGroupCommit(t *testing.T) {
	cfs := &countingFS{FS: faultfs.NewMemFS()}
	db, err := lsm.Open("waldb", lsm.Options{FS: cfs, MemtableBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := newRouted(t, db, kv.NewMemStore(), kv.NewMemStore())
	defer s.Close()

	b := s.NewBatch()
	for i := 0; i < 8; i++ {
		b.Put(rawdb.SnapshotAccountKey(hash(byte(i+1))), []byte("v"))
	}
	w0, s0 := cfs.walWrites.Load(), cfs.walSyncs.Load()
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	if dw, ds := cfs.walWrites.Load()-w0, cfs.walSyncs.Load()-s0; dw != 1 || ds != 1 {
		t.Fatalf("hybrid batch produced %d WAL writes and %d syncs, want 1 group-commit write and 1 sync", dw, ds)
	}
}

// TestScanTruncatedPrefixSeesAllRoutes is the regression test for the
// iterator routing bug: a scan prefix shorter than any class prefix (or
// empty) classifies as Unknown, and the old code therefore scanned only
// the default backend. The merged iterator must surface log- and
// point-routed keys too.
func TestScanTruncatedPrefixSeesAllRoutes(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 5; i++ {
		s.Put(rawdb.TxLookupKey(hash(byte(i+1))), []byte("l")) // log route, keys start 'l'
	}
	for i := 0; i < 3; i++ {
		s.Put(rawdb.SnapshotAccountKey(hash(byte(i+1))), []byte("a")) // ordered, 'a'
	}
	for i := 0; i < 2; i++ {
		s.Put(rawdb.CodeKey(hash(byte(i+1))), []byte("c")) // point route, 'c'
	}

	count := func(prefix []byte) int {
		it := s.NewIterator(prefix, nil)
		defer it.Release()
		n := 0
		for it.Next() {
			n++
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	// One-byte prefix "l": shorter than the 33-byte TxLookup keys, so it
	// classifies as Unknown — yet every TxLookup key starts with it.
	if n := count([]byte("l")); n != 5 {
		t.Fatalf("scan(%q) saw %d keys, want 5 log-routed keys", "l", n)
	}
	// Empty prefix: the full store, across all three routes.
	if n := count(nil); n != 10 {
		t.Fatalf("scan(nil) saw %d keys, want all 10", n)
	}
	// A class-qualified prefix still sees its class.
	if n := count([]byte("c")); n != 2 {
		t.Fatalf("scan(%q) saw %d keys, want 2 point-routed keys", "c", n)
	}
}

// flushStub is a backend whose Flush is counted and fails on demand.
type flushStub struct {
	kv.Store
	err     error
	flushes int
}

func (f *flushStub) Flush() error {
	f.flushes++
	return f.err
}

// TestFlushAttemptsEveryRoute is the regression test for Flush giving up at
// the first failing route, which left the later backends' writes buffered —
// unlike Drain and Close, which attempt all and report the first error.
func TestFlushAttemptsEveryRoute(t *testing.T) {
	errA, errB := fmt.Errorf("route a is down"), fmt.Errorf("route b is down")
	for _, tc := range []struct {
		name  string
		errs  [3]error
		want  error  // the cause Flush must wrap; nil for success
		route string // the route Flush must name
	}{
		{name: "all succeed"},
		{name: "first fails", errs: [3]error{errA, nil, nil}, want: errA, route: "a"},
		{name: "middle fails", errs: [3]error{nil, errB, nil}, want: errB, route: "b"},
		{name: "two fail, first wins", errs: [3]error{errA, errB, nil}, want: errA, route: "a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stubs := make([]*flushStub, 3)
			backends := make([]Backend, 3)
			for i := range stubs {
				stubs[i] = &flushStub{Store: kv.NewMemStore(), err: tc.errs[i]}
				backends[i] = Backend{Name: string(rune('a' + i)), Store: stubs[i]}
			}
			// A route without a Flush of its own is skipped, not an error.
			backends = append(backends, Backend{Name: "plain", Store: kv.NewMemStore()})
			s, err := NewRouted(backends, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			err = s.Flush()
			if !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
				t.Fatalf("Flush = %v, want cause %v", err, tc.want)
			}
			if err != nil && !strings.Contains(err.Error(), "route "+tc.route+":") {
				t.Fatalf("Flush = %q, want it to name route %s", err, tc.route)
			}
			for i, stub := range stubs {
				if stub.flushes != 1 {
					t.Fatalf("route %s flushed %d times, want once whatever the others did", backends[i].Name, stub.flushes)
				}
			}
		})
	}
}
