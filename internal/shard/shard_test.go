package shard_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ethkv/internal/backends"
	"ethkv/internal/kv"
	"ethkv/internal/lsm"
	"ethkv/internal/shard"
	"ethkv/internal/storetest"
)

// TestShardRouterLSMConformance runs storetest's rows for routers over LSM
// children built by the backends factory. Their CorruptScan damages exactly
// ONE shard's tables: the merged iterator must latch that shard's
// corruption, never serve the surviving shards' keys as a clean short scan.
func TestShardRouterLSMConformance(t *testing.T) { runShardRows(t, "lsm") }

// TestShardRouterFlatConformance runs the rows over flat single-seek
// children. CorruptScan damages one shard's value log in place: the live
// router's resident index still points at the damaged extents, so the
// per-record crc on the read path must latch the merged iterator's error.
func TestShardRouterFlatConformance(t *testing.T) { runShardRows(t, "flat") }

func runShardRows(t *testing.T, kind string) {
	for _, shards := range []int{1, 2, 3, 4, 5, 7} {
		name := fmt.Sprintf("shards=%d", shards)
		t.Run(name, func(t *testing.T) { storetest.Run(t, name+"/"+kind) })
	}
}

// applyWorkload drives a seeded mixed workload — single puts and deletes,
// atomic batches, overwrites — against a store. The op stream depends only
// on the seed, never on the store, so any two stores fed the same seed
// must end up byte-identical.
func applyWorkload(t *testing.T, s kv.Store, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1: // atomic batch spanning many shards
			b := s.NewBatch()
			for j, m := 0, 1+rng.Intn(8); j < m; j++ {
				k := []byte(fmt.Sprintf("eq/%04d", rng.Intn(800)))
				if rng.Intn(4) == 0 {
					b.Delete(k)
				} else {
					b.Put(k, []byte(fmt.Sprintf("bv-%d-%d", i, j)))
				}
			}
			if err := b.Write(); err != nil {
				t.Fatal(err)
			}
		case 2: // single delete
			if err := s.Delete([]byte(fmt.Sprintf("eq/%04d", rng.Intn(800)))); err != nil {
				t.Fatal(err)
			}
		default:
			k := []byte(fmt.Sprintf("eq/%04d", rng.Intn(800)))
			if err := s.Put(k, []byte(fmt.Sprintf("v-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// stateDigest fingerprints a store's full contents order-independently
// (same construction as replaybench's census digest): XOR of per-pair
// SHA-256, so shard interleaving cannot affect the fingerprint.
func stateDigest(t *testing.T, s kv.Store) ([sha256.Size]byte, int) {
	t.Helper()
	var digest [sha256.Size]byte
	pairs := 0
	it := s.NewIterator(nil, nil)
	defer it.Release()
	var lenBuf [8]byte
	for it.Next() {
		h := sha256.New()
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(it.Key())))
		h.Write(lenBuf[:])
		h.Write(it.Key())
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(it.Value())))
		h.Write(lenBuf[:])
		h.Write(it.Value())
		for i, b := range h.Sum(nil) {
			digest[i] ^= b
		}
		pairs++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	return digest, pairs
}

// TestShardEquivalence replays the identical seeded workload through a
// 1-shard and an 8-shard router (memory and LSM children) and requires
// byte-identical final state: sharding must change performance, never
// results.
func TestShardEquivalence(t *testing.T) {
	build := func(t *testing.T, kind string, shards int) kv.Store {
		if kind == "mem" {
			return newMemRouter(t, shards)
		}
		s, err := backends.Open(kind, t.TempDir(), backends.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	for _, kind := range []string{"mem", "lsm"} {
		t.Run(kind+"/hash", func(t *testing.T) {
			one := build(t, kind, 1)
			eight := build(t, kind, 8)
			applyWorkload(t, one, 99, 3000)
			applyWorkload(t, eight, 99, 3000)
			d1, n1 := stateDigest(t, one)
			d8, n8 := stateDigest(t, eight)
			if n1 != n8 || d1 != d8 {
				t.Fatalf("1-shard and 8-shard state diverged: %d pairs %x vs %d pairs %x",
					n1, d1, n8, d8)
			}
			if n1 == 0 {
				t.Fatal("workload produced an empty store; equivalence is vacuous")
			}
		})
	}
}

// TestShardRoutingDeterministic pins the routing function: two router
// instances over the same shard count must agree on every key, and every
// key must land in exactly one shard of a total partition.
func TestShardRoutingDeterministic(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16} {
		a := newMemRouter(t, n)
		b := newMemRouter(t, n)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			key := make([]byte, 1+rng.Intn(64))
			rng.Read(key)
			sa, sb := a.ChildOf(key), b.ChildOf(key)
			if sa != sb {
				t.Fatalf("n=%d: instances disagree on %x: %d vs %d", n, key, sa, sb)
			}
			if sa < 0 || sa >= n {
				t.Fatalf("n=%d: shard %d out of range for %x", n, sa, key)
			}
		}
	}
}

func newMemRouter(t *testing.T, n int) *shard.Router {
	t.Helper()
	children := make([]kv.Store, n)
	for i := range children {
		children[i] = kv.NewMemStore()
	}
	r, err := shard.New(children, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestShardStatsAggregation checks Stats() merges every child's counters
// and ShardStats exposes the per-shard distribution.
func TestShardStatsAggregation(t *testing.T) {
	s, err := backends.Open("lsm", t.TempDir(), backends.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := s.(*shard.Router)
	const puts = 400
	for i := 0; i < puts; i++ {
		if err := r.Put([]byte(fmt.Sprintf("st/%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < puts; i++ {
		if _, err := r.Get([]byte(fmt.Sprintf("st/%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	total := r.Stats()
	if total.Puts != puts || total.Gets != puts {
		t.Fatalf("aggregated stats: puts=%d gets=%d, want %d each", total.Puts, total.Gets, puts)
	}
	var sum uint64
	nonEmpty := 0
	for _, st := range r.ShardStats() {
		sum += st.Puts
		if st.Puts > 0 {
			nonEmpty++
		}
	}
	if sum != puts {
		t.Fatalf("per-shard puts sum to %d, want %d", sum, puts)
	}
	if nonEmpty < 2 {
		t.Fatalf("hash partition left %d/4 shards loaded; expected spread", nonEmpty)
	}
}

// failBatchStore wraps a store so its batches fail at Write — the
// instrument for pinning the cross-shard commit ordering discipline.
type failBatchStore struct {
	kv.Store
	err error
}

func (f *failBatchStore) NewBatch() kv.Batch { return &failBatch{err: f.err} }

type failBatch struct {
	err  error
	size int
}

func (b *failBatch) Put(k, v []byte) error  { b.size += len(k) + len(v); return nil }
func (b *failBatch) Delete(k []byte) error  { b.size += len(k); return nil }
func (b *failBatch) ValueSize() int         { return b.size }
func (b *failBatch) Write() error           { return b.err }
func (b *failBatch) Reset()                 { b.size = 0 }
func (b *failBatch) Replay(kv.Writer) error { return nil }

// TestShardBatchCommitOrdering pins the documented discipline: sub-batches
// commit in ascending shard order, so when shard i's commit fails, shards
// < i are committed and shards >= i are untouched — never an arbitrary
// subset.
func TestShardBatchCommitOrdering(t *testing.T) {
	boom := errors.New("injected commit failure")
	children := []kv.Store{
		kv.NewMemStore(),
		&failBatchStore{Store: kv.NewMemStore(), err: boom},
		kv.NewMemStore(),
	}
	r, err := shard.New(children, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Find one key per shard.
	keyFor := func(want int) []byte {
		for i := 0; ; i++ {
			k := []byte(fmt.Sprintf("ord/%d", i))
			if r.ChildOf(k) == want {
				return k
			}
		}
	}
	k0, k1, k2 := keyFor(0), keyFor(1), keyFor(2)

	b := r.NewBatch()
	b.Put(k0, []byte("zero"))
	b.Put(k1, []byte("one"))
	b.Put(k2, []byte("two"))
	if err := b.Write(); !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want injected failure", err)
	}
	if ok, _ := children[0].Has(k0); !ok {
		t.Fatal("shard 0 (before the failure) lost its committed sub-batch")
	}
	if ok, _ := children[2].Has(k2); ok {
		t.Fatal("shard 2 (after the failure) committed out of order")
	}
}

// TestShardBatchReplayOrder checks Replay preserves the caller's insertion
// order, not the per-shard commit grouping: a put-then-delete of the same
// key must replay as absent, whatever shards the neighbours map to.
func TestShardBatchReplayOrder(t *testing.T) {
	r := newMemRouter(t, 4)
	b := r.NewBatch()
	for i := 0; i < 40; i++ {
		b.Put([]byte(fmt.Sprintf("rp/%02d", i)), []byte("first"))
	}
	b.Delete([]byte("rp/07"))
	b.Put([]byte("rp/07"), []byte("resurrected"))
	b.Put([]byte("rp/09"), []byte("second"))
	b.Delete([]byte("rp/09"))

	mirror := kv.NewMemStore()
	defer mirror.Close()
	if err := b.Replay(mirror); err != nil {
		t.Fatal(err)
	}
	if v, _ := mirror.Get([]byte("rp/07")); string(v) != "resurrected" {
		t.Fatalf("rp/07 replayed as %q, want delete-then-put order preserved", v)
	}
	if ok, _ := mirror.Has([]byte("rp/09")); ok {
		t.Fatal("rp/09 replayed present; put-then-delete order lost")
	}
}

// TestShardMergedScanOrdered checks the merged iterator yields a globally
// ascending stream over LSM children and honours prefix+start bounds.
func TestShardMergedScanOrdered(t *testing.T) {
	children := make([]kv.Store, 5)
	for i := range children {
		db, err := lsm.Open(t.TempDir(), lsm.Options{MemtableBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		children[i] = db
	}
	r, err := shard.New(children, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 500; i++ {
		if err := r.Put([]byte(fmt.Sprintf("so/%03d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	it := r.NewIterator([]byte("so/"), []byte("100"))
	defer it.Release()
	var last []byte
	n := 0
	for it.Next() {
		if last != nil && bytes.Compare(it.Key(), last) <= 0 {
			t.Fatalf("merged scan not ascending: %q after %q", it.Key(), last)
		}
		last = append(last[:0], it.Key()...)
		n++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Fatalf("scan from so/100 saw %d keys, want 400", n)
	}
}
