package kvnet

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
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
// reach the network client as Error(), never as a clean short scan.
func TestScanSurfacesServerIteratorError(t *testing.T) {
	inner := kv.NewMemStore()
	for i := 0; i < 100; i++ {
		inner.Put([]byte(fmt.Sprintf("e/%03d", i)), []byte("v"))
	}
	store := &faultyScanStore{Store: inner, failAfter: 40}
	addr, _ := startServer(t, store, silentOpts())
	c := dialT(t, addr, ClientOptions{IterPageOps: 16})
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
	if n >= 100 {
		t.Fatalf("scan returned all %d keys from a faulty backend", n)
	}
}

// faultyScanStore yields iterators that error out after failAfter entries.
type faultyScanStore struct {
	kv.Store
	failAfter int
}

func (f *faultyScanStore) NewIterator(prefix, start []byte) kv.Iterator {
	return &faultyIterator{Iterator: f.Store.NewIterator(prefix, start), limit: f.failAfter}
}

type faultyIterator struct {
	kv.Iterator
	n     int
	limit int
}

func (it *faultyIterator) Next() bool {
	if it.n >= it.limit {
		return false
	}
	it.n++
	return it.Iterator.Next()
}

func (it *faultyIterator) Error() error {
	if it.n >= it.limit {
		return errors.New("injected mid-scan corruption")
	}
	return it.Iterator.Error()
}
