package kvnet

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"ethkv/internal/kv"
	"ethkv/internal/lsm"
	"ethkv/internal/obs"
)

// silentOpts returns server options that don't spam test logs: the torn
// frame tests make the server see deliberately corrupt streams.
func silentOpts() ServerOptions {
	return ServerOptions{Logf: func(string, ...any) {}}
}

// startServer serves store on a loopback port for the test's lifetime.
func startServer(t *testing.T, store kv.Store, opts ServerOptions) (string, *Server) {
	t.Helper()
	srv := NewServer(store, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

// dialT dials addr or fails the test.
func dialT(t *testing.T, addr string, opts ClientOptions) *Client {
	t.Helper()
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	return c
}

// TestCoalescingHappens drives many concurrent writers through one client
// and checks ops actually shared frames — the mechanism the serving layer
// exists for, asserted at the client's own transport counters.
func TestCoalescingHappens(t *testing.T) {
	store := kv.NewMemStore()
	addr, srv := startServer(t, store, silentOpts())
	c := dialT(t, addr, ClientOptions{Conns: 1, Window: 1})
	defer c.Close()

	const workers = 32
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := []byte(fmt.Sprintf("w%02d-%04d", w, i))
				if err := c.Put(key, key); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	ns := c.NetStats()
	if ns.OpsSent != workers*perWorker {
		t.Fatalf("ops sent = %d, want %d", ns.OpsSent, workers*perWorker)
	}
	if ns.MeanBatch() < 2 {
		t.Fatalf("mean batch = %.2f; 32 concurrent writers over window=1 must coalesce", ns.MeanBatch())
	}
	// The server must have observed multi-op frames too.
	if srv.metrics.coalescedOps.Load() == 0 {
		t.Fatal("server saw no coalesced ops")
	}
	if got := store.Len(); got != workers*perWorker {
		t.Fatalf("store holds %d keys, want %d", got, workers*perWorker)
	}
}

// TestAtomicBatchOverNetwork checks kv.Batch semantics survive the wire:
// all-or-nothing application and replayability.
func TestAtomicBatchOverNetwork(t *testing.T) {
	store := kv.NewMemStore()
	addr, _ := startServer(t, store, silentOpts())
	c := dialT(t, addr, ClientOptions{})
	defer c.Close()

	if err := c.Put([]byte("victim"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	b := c.NewBatch()
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), bytes.Repeat([]byte("z"), 4096))
	b.Delete([]byte("victim"))
	if err := b.Write(); err != nil {
		t.Fatalf("batch write: %v", err)
	}
	if v, err := c.Get([]byte("b")); err != nil || len(v) != 4096 {
		t.Fatalf("Get(b) = %d bytes, %v", len(v), err)
	}
	if ok, _ := c.Has([]byte("victim")); ok {
		t.Fatal("batched delete lost over the wire")
	}
}

// TestRemoteStats checks the Stats opcode round-trips the server store's
// counters.
func TestRemoteStats(t *testing.T) {
	db, err := lsm.Open(filepath.Join(t.TempDir(), "lsm"), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	addr, _ := startServer(t, db, silentOpts())
	c := dialT(t, addr, ClientOptions{})
	defer c.Close()

	for i := 0; i < 50; i++ {
		if err := c.Put([]byte(fmt.Sprintf("s%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get([]byte("s001")); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Puts != 50 {
		t.Fatalf("remote stats puts = %d, want 50", st.Puts)
	}
	if st.Gets == 0 {
		t.Fatal("remote stats gets = 0")
	}
}

// TestServerMetricsExported checks the serving metrics land in a caller
// registry in Prometheus-scrapable form.
func TestServerMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	store := kv.NewMemStore()
	opts := silentOpts()
	opts.Registry = reg
	addr, _ := startServer(t, store, opts)
	c := dialT(t, addr, ClientOptions{})
	defer c.Close()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Put([]byte(fmt.Sprintf("m%d-%d", w, i)), []byte("v"))
			}
		}(w)
	}
	wg.Wait()

	snap := reg.Snapshot()
	if snap.Counters["ethkv_server_frames_total"] == 0 {
		t.Fatal("no frames counted")
	}
	h, ok := snap.Histograms[obs.Name("ethkv_server_op_latency_ns", "op", "put")]
	if !ok || h.Count != 800 {
		t.Fatalf("put latency histogram count = %d, want 800", h.Count)
	}
	if _, ok := snap.Histograms["ethkv_server_batch_ops"]; !ok {
		t.Fatal("batch size histogram missing")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("ethkv_server_op_latency_ns_bucket")) {
		t.Fatal("prometheus exposition missing server latency buckets")
	}
}

// TestScanSurfacesServerIteratorError mirrors the PR 4 scan-truncation
// discipline across the wire: a backend iterator that dies mid-scan must
// reach the network client as Error(), never as a clean short scan. The
// failure lands on the third page, after two clean ones.
func TestScanSurfacesServerIteratorError(t *testing.T) {
	const keys, failAfter = 2000, 1200
	if failAfter/iterPageOps != 2 {
		t.Fatalf("failAfter %d no longer falls on page 3 of %d entries", failAfter, iterPageOps)
	}
	inner := kv.NewMemStore()
	for i := 0; i < keys; i++ {
		inner.Put([]byte(fmt.Sprintf("e/%04d", i)), []byte("v"))
	}
	store := &faultyScanStore{Store: inner, failAt: []byte(fmt.Sprintf("e/%04d", failAfter))}
	addr, _ := startServer(t, store, silentOpts())
	c := dialT(t, addr, ClientOptions{})
	defer c.Close()

	it := c.NewIterator([]byte("e/"), nil)
	defer it.Release()
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Error(); err == nil {
		t.Fatalf("scan over faulty backend: %d keys and Error() == nil", n)
	}
	if n != failAfter {
		t.Fatalf("scan delivered %d keys before the error, want the %d clean ones", n, failAfter)
	}
}

// faultyScanStore yields iterators that fail on reaching the key failAt.
// Every page opens its own iterator, so the fault sits at a key, not after
// a count of one iterator's entries.
type faultyScanStore struct {
	kv.Store
	failAt []byte
}

func (f *faultyScanStore) NewIterator(prefix, start []byte) kv.Iterator {
	return &faultyIterator{Iterator: f.Store.NewIterator(prefix, start), failAt: f.failAt}
}

type faultyIterator struct {
	kv.Iterator
	failAt []byte
	failed bool
}

func (it *faultyIterator) Next() bool {
	if it.failed || !it.Iterator.Next() {
		return false
	}
	it.failed = bytes.Compare(it.Key(), it.failAt) >= 0
	return !it.failed
}

func (it *faultyIterator) Error() error {
	if it.failed {
		return errors.New("injected mid-scan corruption")
	}
	return it.Iterator.Error()
}

// countingStore counts the backend iterators open at once.
type countingStore struct {
	kv.Store
	open atomic.Int64
}

func (s *countingStore) NewIterator(prefix, start []byte) kv.Iterator {
	s.open.Add(1)
	return &countedIterator{Iterator: s.Store.NewIterator(prefix, start), open: &s.open}
}

type countedIterator struct {
	kv.Iterator
	open     *atomic.Int64
	released bool
}

func (it *countedIterator) Release() {
	if !it.released {
		it.released = true
		it.open.Add(-1)
	}
	it.Iterator.Release()
}

// TestScanHoldsNoIteratorBetweenPages: a served scan pins no backend
// iterator between its requests. A client that takes one key of a
// many-page scan and never releases it leaves the store with none open.
func TestScanHoldsNoIteratorBetweenPages(t *testing.T) {
	store := &countingStore{Store: kv.NewMemStore()}
	for i := 0; i < 3*int(iterPageOps); i++ {
		store.Put([]byte(fmt.Sprintf("k/%05d", i)), []byte("v"))
	}
	addr, _ := startServer(t, store, silentOpts())
	c := dialT(t, addr, ClientOptions{})
	defer c.Close()

	it := c.NewIterator(nil, nil)
	if !it.Next() {
		t.Fatalf("scan of a filled store is empty: %v", it.Error())
	}
	if n := store.open.Load(); n != 0 {
		t.Fatalf("%d backend iterators open after one page of an unreleased scan, want 0", n)
	}
	it.Release()
}

// setPageOps makes the client's scan pages n entries long until the test
// ends.
func setPageOps(t *testing.T, n uint64) {
	old := iterPageOps
	iterPageOps = n
	t.Cleanup(func() { iterPageOps = old })
}

// collect drains it, failing the test on a scan error.
func collect(t *testing.T, it kv.Iterator) []string {
	t.Helper()
	defer it.Release()
	var pairs []string
	for it.Next() {
		pairs = append(pairs, fmt.Sprintf("%q=%q", it.Key(), it.Value()))
	}
	if err := it.Error(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return pairs
}

// TestScanPageBoundaries: a served scan resumes each page at the key right
// after the last one, so it equals the local scan wherever its pages end.
// Pages of 1, 2 and 3 entries end on every key of a store whose keys are
// prefixes of one another and end in 0x00 or 0xFF — the keys a resume rule
// built on a prefix successor or a truncated key would skip or repeat — in
// memory and in an LSM with tables beneath its memtable.
func TestScanPageBoundaries(t *testing.T) {
	keys := []string{
		"a", "a\x00", "a\x00\x00", "a\x00\xff", "a\x01", "a\xff", "a\xff\x00", "a\xff\xff",
		"ab", "ab\xff", "b", "b\x00", "b\xff", "\xff", "\xff\x00", "\xff\xff", "\xff\xff\xff",
	}
	db, err := lsm.Open(filepath.Join(t.TempDir(), "lsm"), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, store := range []kv.Store{kv.NewMemStore(), db} {
		for i, k := range keys {
			store.Put([]byte(k), []byte{byte(i)})
			if i == len(keys)/2 {
				if err := kv.Flush(store); err != nil {
					t.Fatal(err)
				}
			}
		}
		addr, _ := startServer(t, store, silentOpts())
		c := dialT(t, addr, ClientOptions{})
		for _, scan := range []struct{ prefix, start string }{
			{"", ""}, {"a", ""}, {"a", "\x00"}, {"a", "\xff"}, {"ab", ""}, {"\xff", "\xff"}, {"b", "\x00\x00"},
		} {
			want := collect(t, store.NewIterator([]byte(scan.prefix), []byte(scan.start)))
			for _, pageOps := range []uint64{1, 2, 3} {
				setPageOps(t, pageOps)
				frames := c.NetStats().FramesSent
				got := collect(t, c.NewIterator([]byte(scan.prefix), []byte(scan.start)))
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%T scan %q from %q in pages of %d:\n got %v\nwant %v", store, scan.prefix, scan.start, pageOps, got, want)
				}
				if pages := c.NetStats().FramesSent - frames; pages != uint64(len(want))/pageOps+1 {
					t.Fatalf("%T scan %q from %q: %d pages of %d for %d keys", store, scan.prefix, scan.start, pages, pageOps, len(want))
				}
			}
		}
		c.Close()
	}
}

// TestScanPagesAcrossConcurrentWrites: each page of a served scan is its own
// view, and the resume rule keeps the views consistent. While a writer puts
// and deletes keys between the stable ones, a many-page scan returns keys in
// strictly ascending order, none twice, and every stable key.
func TestScanPagesAcrossConcurrentWrites(t *testing.T) {
	db, err := lsm.Open(filepath.Join(t.TempDir(), "lsm"), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const stable = 400
	for i := 0; i < stable; i++ {
		db.Put([]byte(fmt.Sprintf("s/%04d", i)), []byte("stable"))
	}
	addr, _ := startServer(t, db, silentOpts())
	c := dialT(t, addr, ClientOptions{})
	defer c.Close()

	stop, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			k := []byte(fmt.Sprintf("s/%04d-%d", i%stable, i%3))
			if i%2 == 0 {
				db.Put(k, []byte("churn"))
			} else {
				db.Delete(k)
			}
			select {
			case <-stop:
				return
			case started <- struct{}{}:
			default:
			}
		}
	}()
	<-started // the writer runs before the scan begins and until it ends
	setPageOps(t, 7)
	it := c.NewIterator([]byte("s/"), nil)
	var got []string
	for it.Next() {
		got = append(got, string(it.Key()))
	}
	err = it.Error()
	it.Release()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if pages := len(got) / 7; pages < 3 {
		t.Fatalf("the scan took %d pages, want at least 3", pages)
	}
	seen := 0
	for i, k := range got {
		if i > 0 && k <= got[i-1] {
			t.Fatalf("key %q after %q: not strictly ascending", k, got[i-1])
		}
		if len(k) == len("s/0000") {
			if want := fmt.Sprintf("s/%04d", seen); k != want {
				t.Fatalf("stable key %q where %q belongs", k, want)
			}
			seen++
		}
	}
	if seen != stable {
		t.Fatalf("scan returned %d of %d stable keys", seen, stable)
	}
}
