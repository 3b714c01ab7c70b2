package shard_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ethkv/internal/backends"
	"ethkv/internal/kv"
	"ethkv/internal/kv/kvtest"
	"ethkv/internal/lsm"
	"ethkv/internal/shard"
)

// stompBytes overwrites n bytes of the file at off with 0xFF.
func stompBytes(t *testing.T, path string, off, n int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off+n > len(raw) {
		t.Fatalf("file %s too short to corrupt (%d bytes)", path, len(raw))
	}
	for i := 0; i < n; i++ {
		raw[off+i] = 0xFF
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// reopenRouter closes a sharded store and reopens it from the same
// directory tree — the persistence path a sharded database restart takes.
func reopenRouter(t *testing.T, s kv.Store, kind, dir string, shards int) kv.Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := backends.Open(kind, dir, backends.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	return re
}

// TestShardRouterLSMConformance runs the full kv.Store contract —
// including ConcurrentReaders, RandomizedModel, ReopenPersistence, and
// CorruptScan — against the router at shard counts 1, 2, and 7 over LSM
// children built by the backends factory. CorruptScan damages exactly ONE
// shard's tables: the merged iterator must latch that shard's corruption,
// never serve the surviving shards' keys as a clean short scan.
func TestShardRouterLSMConformance(t *testing.T) {
	for _, shards := range []int{1, 2, 7} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var lastDir string
			kvtest.Run(t, func(t *testing.T) kv.Store {
				lastDir = t.TempDir()
				s, err := backends.Open("lsm", lastDir, backends.Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}, kvtest.Options{
				Reopen: func(t *testing.T, s kv.Store) kv.Store {
					return reopenRouter(t, s, "lsm", lastDir, shards)
				},
				CorruptScan: func(t *testing.T, s kv.Store) kv.Store {
					// Settle the memtables into tables, then break the
					// entry framing of one shard's first data block. The
					// other shards stay pristine.
					if err := s.(interface{ Flush() error }).Flush(); err != nil {
						t.Fatal(err)
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					glob := filepath.Join(lastDir, "lsm", "*.sst")
					if shards > 1 {
						glob = filepath.Join(lastDir, "shard-00", "lsm", "*.sst")
					}
					tables, err := filepath.Glob(glob)
					if err != nil || len(tables) == 0 {
						t.Fatalf("no tables to corrupt in %s (err=%v)", glob, err)
					}
					for _, p := range tables {
						stompBytes(t, p, 1, 10)
					}
					re, err := backends.Open("lsm", lastDir, backends.Options{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { re.Close() })
					return re
				},
			})
		})
	}
}

// TestShardRouterFlatConformance runs the same contract over flat
// single-seek children. CorruptScan damages one shard's value log in
// place: the live router's resident index still points at the damaged
// extents, so the per-record crc on the lazy read path must latch the
// merged iterator's error.
func TestShardRouterFlatConformance(t *testing.T) {
	for _, shards := range []int{1, 2, 7} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var lastDir string
			kvtest.Run(t, func(t *testing.T) kv.Store {
				lastDir = t.TempDir()
				s, err := backends.Open("flat", lastDir, backends.Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}, kvtest.Options{
				Reopen: func(t *testing.T, s kv.Store) kv.Store {
					return reopenRouter(t, s, "flat", lastDir, shards)
				},
				CorruptScan: func(t *testing.T, s kv.Store) kv.Store {
					glob := filepath.Join(lastDir, "flat", "flat-*.log")
					if shards > 1 {
						glob = filepath.Join(lastDir, "shard-00", "flat", "flat-*.log")
					}
					logs, err := filepath.Glob(glob)
					if err != nil || len(logs) == 0 {
						t.Fatalf("no entry file to corrupt in %s (err=%v)", glob, err)
					}
					stompBytes(t, logs[0], 1000, 64)
					return s
				},
			})
		})
	}
}

// TestShardRouterClassModeConformance reruns the contract in class mode.
// The conformance keys carry no Ethereum schema, so they ride the hash
// fallback — proving the fallback alone satisfies the full contract.
func TestShardRouterClassModeConformance(t *testing.T) {
	kvtest.Run(t, func(t *testing.T) kv.Store {
		s, err := backends.Open("lsm", t.TempDir(), backends.Options{
			Shards: 5, ShardMode: "class",
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}, kvtest.Options{})
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
// 1-shard and an 8-shard router (hash and class modes, memory and LSM
// children) and requires byte-identical final state: sharding must change
// performance, never results.
func TestShardEquivalence(t *testing.T) {
	build := func(t *testing.T, kind string, shards int, mode string) kv.Store {
		if kind == "mem" {
			children := make([]kv.Store, shards)
			for i := range children {
				children[i] = kv.NewMemStore()
			}
			m, err := shard.ParseMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			r, err := shard.New(children, shard.Options{Mode: m})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		}
		s, err := backends.Open(kind, t.TempDir(), backends.Options{Shards: shards, ShardMode: mode})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	for _, tc := range []struct {
		kind, mode string
	}{
		{"mem", "hash"}, {"mem", "class"}, {"lsm", "hash"},
	} {
		tc := tc
		t.Run(tc.kind+"/"+tc.mode, func(t *testing.T) {
			one := build(t, tc.kind, 1, tc.mode)
			eight := build(t, tc.kind, 8, tc.mode)
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
// instances with the same configuration must agree on every key, and
// every key must land in exactly one shard of a total partition.
func TestShardRoutingDeterministic(t *testing.T) {
	for _, mode := range []shard.Mode{shard.ModeHash, shard.ModeClass} {
		for _, n := range []int{1, 2, 7, 16} {
			a := newMemRouter(t, n, mode)
			b := newMemRouter(t, n, mode)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 2000; i++ {
				key := make([]byte, 1+rng.Intn(64))
				rng.Read(key)
				sa, sb := a.ShardOf(key), b.ShardOf(key)
				if sa != sb {
					t.Fatalf("mode=%v n=%d: instances disagree on %x: %d vs %d", mode, n, key, sa, sb)
				}
				if sa < 0 || sa >= n {
					t.Fatalf("mode=%v n=%d: shard %d out of range for %x", mode, n, sa, key)
				}
			}
		}
	}
}

func newMemRouter(t *testing.T, n int, mode shard.Mode) *shard.Router {
	t.Helper()
	children := make([]kv.Store, n)
	for i := range children {
		children[i] = kv.NewMemStore()
	}
	r, err := shard.New(children, shard.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestShardClassModeColocatesClasses checks the point of class mode: every
// key of one storage class routes to the same shard, so a class-confined
// range scan reads from exactly one child.
func TestShardClassModeColocatesClasses(t *testing.T) {
	r := newMemRouter(t, 7, shard.ModeClass)
	classKey := func(class byte, n, length int) []byte {
		k := make([]byte, length)
		k[0] = class
		binary.BigEndian.PutUint64(k[1:9], uint64(n))
		return k
	}
	// Snapshot accounts ('a' + 32-byte hash) and storage trie nodes
	// ('O' + >=32 bytes) are distinct classes with many keys each.
	for _, tc := range []struct {
		name   string
		class  byte
		length int
	}{
		{"SnapshotAccount", 'a', 33},
		{"TrieNodeStorage", 'O', 65},
		{"Code", 'c', 33},
	} {
		want := r.ShardOf(classKey(tc.class, 0, tc.length))
		for i := 1; i < 200; i++ {
			if got := r.ShardOf(classKey(tc.class, i, tc.length)); got != want {
				t.Fatalf("%s key %d routed to shard %d, class lives on %d", tc.name, i, got, want)
			}
		}
	}
	// And a class scan is served from one shard: insert snapshot accounts,
	// then check only the owning child holds them.
	owner := r.ShardOf(classKey('a', 0, 33))
	for i := 0; i < 100; i++ {
		if err := r.Put(classKey('a', i, 33), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < r.Shards(); s++ {
		it := r.Child(s).NewIterator([]byte{'a'}, nil)
		n := 0
		for it.Next() {
			n++
		}
		it.Release()
		if s == owner && n != 100 {
			t.Fatalf("owning shard %d holds %d/100 snapshot accounts", s, n)
		}
		if s != owner && n != 0 {
			t.Fatalf("shard %d holds %d snapshot accounts that belong on shard %d", s, n, owner)
		}
	}
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
			if r.ShardOf(k) == want {
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
	r := newMemRouter(t, 4, shard.ModeHash)
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
