package hybrid

import (
	"errors"
	"fmt"
	"testing"

	"ethkv/internal/flatstore"
	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// Backend indices of the test layout built by newRouted.
const (
	routeOrdered = iota // the default: scan classes and everything unrouted
	routeLog            // TxLookup, BlockBody, BlockReceipts
	routePoint          // trie nodes and code
)

// newRouted assembles a three-route hybrid over the given stores.
func newRouted(tb testing.TB, ordered, log, point kv.Store) *Store {
	tb.Helper()
	s, err := NewRouted([]Backend{
		{Name: "ordered", Store: ordered},
		{Name: "log", Store: log},
		{Name: "point", Store: point},
	}, map[rawdb.Class]int{
		rawdb.ClassTxLookup:        routeLog,
		rawdb.ClassBlockBody:       routeLog,
		rawdb.ClassBlockReceipts:   routeLog,
		rawdb.ClassTrieNodeAccount: routePoint,
		rawdb.ClassTrieNodeStorage: routePoint,
		rawdb.ClassCode:            routePoint,
	}, routeOrdered)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// newTestStore builds a hybrid over memstore/flat/flat backends.
func newTestStore(t *testing.T) *Store {
	t.Helper()
	open := func() kv.Store {
		fs, err := flatstore.Open(t.TempDir(), flatstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	s := newRouted(t, kv.NewMemStore(), open(), open())
	t.Cleanup(func() { s.Close() })
	return s
}

func hash(b byte) rawdb.Hash {
	var h rawdb.Hash
	for i := range h {
		h[i] = b
	}
	return h
}

func TestRoutingDispatch(t *testing.T) {
	s := newTestStore(t)
	// One key per route.
	orderedKey := rawdb.SnapshotAccountKey(hash(1)) // ordered
	logKey := rawdb.TxLookupKey(hash(2))            // log
	pointKey := rawdb.CodeKey(hash(3))              // point

	for _, key := range [][]byte{orderedKey, logKey, pointKey} {
		if err := s.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		v, err := s.Get(key)
		if err != nil || string(v) != "v" {
			t.Fatalf("Get(%x) = %q, %v", key[:4], v, err)
		}
	}
	// Verify physical placement: ordered backend holds only the ordered key.
	ordered := s.backends[routeOrdered].Store
	if ok, _ := ordered.Has(orderedKey); !ok {
		t.Fatal("ordered key not in ordered backend")
	}
	if ok, _ := ordered.Has(logKey); ok {
		t.Fatal("log key leaked into ordered backend")
	}
	if ok, _ := s.backends[routeLog].Store.Has(logKey); !ok {
		t.Fatal("log key not in log backend")
	}
	if ok, _ := s.backends[routePoint].Store.Has(pointKey); !ok {
		t.Fatal("point key not in point backend")
	}
}

func TestDeleteRouting(t *testing.T) {
	s := newTestStore(t)
	key := rawdb.TxLookupKey(hash(9))
	s.Put(key, []byte("1"))
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
}

func TestOrderedScan(t *testing.T) {
	s := newTestStore(t)
	acct := hash(1)
	for i := 0; i < 10; i++ {
		s.Put(rawdb.SnapshotStorageKey(acct, hash(byte(i+10))), []byte{byte(i)})
	}
	it := s.NewIterator(rawdb.SnapshotStoragePrefix(acct), nil)
	defer it.Release()
	n := 0
	var last []byte
	for it.Next() {
		if last != nil && string(it.Key()) <= string(last) {
			t.Fatal("ordered route scan out of order")
		}
		last = append(last[:0], it.Key()...)
		n++
	}
	if n != 10 {
		t.Fatalf("scan saw %d keys", n)
	}
}

func TestBatchRouting(t *testing.T) {
	s := newTestStore(t)
	b := s.NewBatch()
	b.Put(rawdb.TxLookupKey(hash(1)), []byte("l"))
	b.Put(rawdb.CodeKey(hash(2)), []byte("h"))
	b.Delete(rawdb.TxLookupKey(hash(1)))
	if b.ValueSize() == 0 {
		t.Fatal("ValueSize")
	}
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Has(rawdb.TxLookupKey(hash(1))); ok {
		t.Fatal("batched delete lost")
	}
	if v, _ := s.Get(rawdb.CodeKey(hash(2))); string(v) != "h" {
		t.Fatal("batched put lost")
	}
	// Replay into a memstore.
	ms := kv.NewMemStore()
	defer ms.Close()
	if err := b.Replay(ms); err != nil {
		t.Fatal(err)
	}
}

func TestStatsMerge(t *testing.T) {
	s := newTestStore(t)
	s.Put(rawdb.CodeKey(hash(1)), []byte("abc"))
	s.Put(rawdb.TxLookupKey(hash(2)), []byte("d"))
	s.Get(rawdb.CodeKey(hash(1)))
	st := s.Stats()
	if st.Puts != 2 || st.Gets != 1 {
		t.Fatalf("merged stats: %+v", st)
	}
	per := s.BackendStats()
	if per["point"].Puts != 1 || per["log"].Puts != 1 {
		t.Fatalf("per-backend stats: %+v", per)
	}
}

func TestReplay(t *testing.T) {
	s := newTestStore(t)
	var ops []trace.Op
	// Write, read, delete a log-routed key; write a point-routed key; scan.
	lk := rawdb.TxLookupKey(hash(1))
	ck := rawdb.CodeKey(hash(2))
	ops = append(ops,
		trace.Op{Type: trace.OpWrite, Class: rawdb.ClassTxLookup, Key: lk, ValueSize: 4},
		trace.Op{Type: trace.OpRead, Class: rawdb.ClassTxLookup, Key: lk},
		trace.Op{Type: trace.OpDelete, Class: rawdb.ClassTxLookup, Key: lk},
		trace.Op{Type: trace.OpWrite, Class: rawdb.ClassCode, Key: ck, ValueSize: 6000},
		trace.Op{Type: trace.OpScan, Class: rawdb.ClassSnapshotAccount, Key: []byte("a")},
		trace.Op{Type: trace.OpRead, Class: rawdb.ClassCode, Key: ck, Hit: true}, // skipped
	)
	res, err := Replay(s, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 5 {
		t.Fatalf("replayed %d ops, want 5 (hit skipped)", res.Ops)
	}
	if res.Reads != 1 || res.Writes != 2 || res.Deletes != 1 || res.Scans != 1 {
		t.Fatalf("replay counters: %+v", res)
	}
	// The code key must exist with the synthesized size.
	v, err := s.Get(ck)
	if err != nil || len(v) != 6000 {
		t.Fatalf("code after replay: %d bytes, %v", len(v), err)
	}
}

func TestReplayMissingReadTolerated(t *testing.T) {
	s := newTestStore(t)
	ops := []trace.Op{
		{Type: trace.OpRead, Class: rawdb.ClassCode, Key: rawdb.CodeKey(hash(1))},
	}
	if _, err := Replay(s, ops); err != nil {
		t.Fatalf("read of absent key must be tolerated: %v", err)
	}
}

func BenchmarkHybridPut(b *testing.B) {
	s := newRouted(b, kv.NewMemStore(), kv.NewMemStore(), kv.NewMemStore())
	defer s.Close()
	val := make([]byte, 70)
	var h rawdb.Hash
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			h[j] = byte(i >> (8 * j))
		}
		s.Put(rawdb.TxLookupKey(h), val[:4])
		s.Put(rawdb.StorageTrieNodeKey(h, []byte{1, 2, 3}), val)
	}
	_ = fmt.Sprint()
}
