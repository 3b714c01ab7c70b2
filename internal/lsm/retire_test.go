package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ethkv/internal/faultfs"
)

// tableHandleFS counts the read handles open on SSTable files.
type tableHandleFS struct {
	faultfs.FS
	open atomic.Int64
}

type countedTableFile struct {
	faultfs.File
	fs     *tableHandleFS
	closed atomic.Bool
}

func (c *tableHandleFS) Open(path string) (faultfs.File, error) {
	f, err := c.FS.Open(path)
	if err != nil || !strings.HasSuffix(path, ".sst") {
		return f, err
	}
	c.open.Add(1)
	return &countedTableFile{File: f, fs: c}, nil
}

func (f *countedTableFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, fmt.Errorf("read of a closed table handle")
	}
	return f.File.ReadAt(p, off)
}

func (f *countedTableFile) Close() error {
	if !f.closed.Swap(true) {
		f.fs.open.Add(-1)
	}
	return f.File.Close()
}

// TestGetDuringTableRetirement spins point readers on keys whose tables a
// writer keeps compacting away (tiny output tables, so every merge retires
// and creates many), while a scanner holds iterators open across those
// retirements. Point reads take no table reference — the version they read
// under db.mu is what keeps a reader open — so this is the test of that
// lifetime rule: no read may fail or see a wrong value, no handle may be
// closed under a reader (the counting FS fails such reads), every live
// table's reader — and no retired one — is open once a full scan has touched
// them all, and Close leaves none.
func TestGetDuringTableRetirement(t *testing.T) {
	fsys := &tableHandleFS{FS: faultfs.NewMemFS()}
	opts := smallOpts()
	opts.FS = fsys
	opts.DisableWAL = true
	opts.CompactionTableBytes = 2 << 10
	opts.BlockCacheBytes = 64 << 10 // blocks come and go too
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 1500
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte(fmt.Sprintf("v%05d", i)), 8) }
	for i := 0; i < keys; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	base := db.Stats().CompactionCount

	stop := make(chan struct{})
	errc := make(chan error, 8)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	// Writer: rewrite the same pairs, so every value stays right while the
	// tables holding it are flushed, merged and retired.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Put(key(i%keys), val(i%keys)); err != nil {
				fail(fmt.Errorf("put: %w", err))
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				v, err := db.Get(key(i))
				if err != nil || !bytes.Equal(v, val(i)) {
					fail(fmt.Errorf("get(%s) = %q, %v", key(i), v, err))
					return
				}
				if ok, err := db.Has(key(i)); err != nil || !ok {
					fail(fmt.Errorf("has(%s) = %v, %v", key(i), ok, err))
					return
				}
				if ok, err := db.Has(append(key(i), '!')); err != nil || ok {
					fail(fmt.Errorf("has(absent) = %v, %v", ok, err))
					return
				}
			}
		}(int64(r))
	}
	// Scanner: open an iterator, let compactions retire the tables under
	// it, then walk it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			it := db.NewIterator([]byte("key-"), nil)
			before := db.Stats().CompactionCount
			for db.Stats().CompactionCount < before+2 {
				select {
				case <-stop:
					it.Release()
					return
				default:
					time.Sleep(time.Millisecond)
				}
			}
			n := 0
			for it.Next() {
				n++
			}
			err := it.Error()
			it.Release()
			if err != nil || n != keys {
				fail(fmt.Errorf("scan across retirements: %d keys, err %v", n, err))
				return
			}
		}
	}()

	deadline := time.After(30 * time.Second)
	for db.Stats().CompactionCount < base+30 {
		select {
		case err := <-errc:
			close(stop)
			wg.Wait()
			t.Fatal(err)
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("only %d compactions in 30s", db.Stats().CompactionCount-base)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, s := range db.LevelSizes() {
		live += s.Tables
	}
	if opened := db.openTables(); opened > live {
		t.Fatalf("%d readers open for %d live tables", opened, live)
	}
	it := db.NewIterator(nil, nil) // touches every live table
	for it.Next() {
	}
	it.Release()
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if live < 8 {
		t.Fatalf("only %d live tables: the workload is not exercising multi-table levels", live)
	}
	if opened := db.openTables(); opened != live {
		t.Fatalf("open-readers gauge %d, want the live table count %d", opened, live)
	}
	// Flush returns once every install is durable; a compaction closes and
	// unlinks its inputs just after that, so give the last one's tail time.
	spinUntil(t, fmt.Sprintf("only the %d live tables' file handles are open (a retired table's handle leaked)", live),
		func() bool { return fsys.open.Load() == int64(live) })
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if opened := db.openTables(); opened != 0 {
		t.Fatalf("open-readers gauge %d after Close", opened)
	}
	if handles := fsys.open.Load(); handles != 0 {
		t.Fatalf("%d table file handles outlive Close", handles)
	}
}

// tableRemoveFailFS refuses to remove SSTable files.
type tableRemoveFailFS struct{ faultfs.FS }

func (f tableRemoveFailFS) Remove(path string) error {
	if strings.HasSuffix(path, ".sst") {
		return fmt.Errorf("remove %s: refused", path)
	}
	return f.FS.Remove(path)
}

// TestOpenRemovesOrphanTables: a table a merge retired but could not unlink
// (retireTables' removal is best-effort) and a manifest write cut short
// before its rename are gone after a reopen, which leaves exactly the
// version's tables on disk.
func TestOpenRemovesOrphanTables(t *testing.T) {
	mem := faultfs.NewMemFS()
	opts := Options{FS: tableRemoveFailFS{mem}, DisableWAL: true, MemtableBytes: 8 << 10}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i%700)), bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	tablesOnDisk := func() []string {
		paths, err := mem.Glob("db/*.sst")
		if err != nil {
			t.Fatal(err)
		}
		return paths
	}
	stale := len(tablesOnDisk())
	if err := faultfs.WriteFileSync(mem, "db/MANIFEST.tmp", []byte("cut short")); err != nil {
		t.Fatal(err)
	}
	opts.FS = mem
	if db, err = Open("db", opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var want []string
	for _, metas := range db.current {
		for _, m := range metas {
			want = append(want, tablePath("db", m.num))
		}
	}
	sort.Strings(want)
	if got := tablesOnDisk(); stale <= len(want) || !slices.Equal(got, want) {
		t.Fatalf("after reopen: tables %v on disk, version names %v (%d before)", got, want, stale)
	}
	if _, err := mem.Open("db/MANIFEST.tmp"); err == nil {
		t.Fatal("a stray MANIFEST.tmp survived the reopen")
	}
}
