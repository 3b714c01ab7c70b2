package cache

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"ethkv/internal/rawdb"
)

func TestLRUBasic(t *testing.T) {
	c := NewLRU(1024)
	if _, ok := c.Get([]byte("missing")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Add([]byte("k"), []byte("v"))
	v, ok := c.Get([]byte("k"))
	if !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	c.Add([]byte("k"), []byte("v2"))
	if v, _ := c.Get([]byte("k")); string(v) != "v2" {
		t.Fatalf("overwrite: %q", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Remove([]byte("k"))
	if _, ok := c.Get([]byte("k")); ok {
		t.Fatal("key survived Remove")
	}
	if c.Size() != 0 {
		t.Fatalf("Size = %d after removal", c.Size())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Budget for roughly 3 entries of 10 bytes each.
	c := NewLRU(33)
	c.Add([]byte("aaaaa"), []byte("11111")) // 10 bytes
	c.Add([]byte("bbbbb"), []byte("22222"))
	c.Add([]byte("ccccc"), []byte("33333"))
	// Touch a to make b the LRU victim.
	c.Get([]byte("aaaaa"))
	c.Add([]byte("ddddd"), []byte("44444"))
	if _, ok := c.Get([]byte("bbbbb")); ok {
		t.Fatal("LRU victim not evicted")
	}
	for _, k := range []string{"aaaaa", "ccccc", "ddddd"} {
		if !c.Contains([]byte(k)) {
			t.Fatalf("%s evicted wrongly", k)
		}
	}
}

func TestLRUBudgetInvariant(t *testing.T) {
	f := func(ops []struct {
		Key uint8
		Val []byte
	}) bool {
		c := NewLRU(512)
		for _, op := range ops {
			c.Add([]byte{op.Key}, op.Val)
			if c.Size() > c.capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLRUOversizedValueRejected(t *testing.T) {
	c := NewLRU(16)
	c.Add([]byte("k"), bytes.Repeat([]byte{1}, 100))
	if c.Len() != 0 {
		t.Fatal("oversized value admitted")
	}
}

func TestLRUHitRate(t *testing.T) {
	c := NewLRU(1024)
	c.Add([]byte("k"), []byte("v"))
	c.Get([]byte("k"))
	c.Get([]byte("k"))
	c.Get([]byte("absent"))
	if got := c.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("HitRate = %v, want 2/3", got)
	}
}

func TestManagerClassIsolation(t *testing.T) {
	m := NewManager(1 << 20)
	m.Add(rawdb.ClassTrieNodeAccount, []byte("k"), []byte("account"))
	m.Add(rawdb.ClassTrieNodeStorage, []byte("k"), []byte("storage"))
	v, ok := m.Get(rawdb.ClassTrieNodeAccount, []byte("k"))
	if !ok || string(v) != "account" {
		t.Fatalf("account cache: %q, %v", v, ok)
	}
	v, ok = m.Get(rawdb.ClassTrieNodeStorage, []byte("k"))
	if !ok || string(v) != "storage" {
		t.Fatalf("storage cache: %q, %v", v, ok)
	}
	m.Remove(rawdb.ClassTrieNodeAccount, []byte("k"))
	if _, ok := m.Get(rawdb.ClassTrieNodeAccount, []byte("k")); ok {
		t.Fatal("Remove missed")
	}
	if _, ok := m.Get(rawdb.ClassTrieNodeStorage, []byte("k")); !ok {
		t.Fatal("Remove hit the wrong class")
	}
}

func TestManagerResidual(t *testing.T) {
	m := NewManager(1 << 20)
	// TxLookup has no dedicated share: lands in the residual cache.
	m.Add(rawdb.ClassTxLookup, []byte("tx"), []byte("1"))
	if _, ok := m.Get(rawdb.ClassTxLookup, []byte("tx")); !ok {
		t.Fatal("residual cache lost entry")
	}
	stats := m.Stats()
	if len(stats) != len(shares)+1 {
		t.Fatalf("Stats rows = %d", len(stats))
	}
}

// TestManagerCustomShares: each class's cache holds its share of the budget,
// so an entry that fits one class's share can be too large for another's.
func TestManagerCustomShares(t *testing.T) {
	m := NewManager(10000) // code: 5% = 500 bytes; storage trie: 30% = 3000
	m.Add(rawdb.ClassCode, []byte("c"), bytes.Repeat([]byte{1}, 400))
	if _, ok := m.Get(rawdb.ClassCode, []byte("c")); !ok {
		t.Fatal("code cache refused an entry within its share")
	}
	big := bytes.Repeat([]byte{2}, 600)
	m.Add(rawdb.ClassCode, []byte("d"), big)
	if _, ok := m.Get(rawdb.ClassCode, []byte("d")); ok {
		t.Fatal("code cache admitted an entry larger than its share")
	}
	m.Add(rawdb.ClassTrieNodeStorage, []byte("d"), big)
	if _, ok := m.Get(rawdb.ClassTrieNodeStorage, []byte("d")); !ok {
		t.Fatal("storage-trie cache refused an entry within its share")
	}
}

// TestCorrelationCachePrefetch: after observing A,B adjacently twice, a
// read of A must prefetch B.
func TestCorrelationCachePrefetch(t *testing.T) {
	backing := map[string][]byte{
		"A": []byte("va"), "B": []byte("vb"), "C": []byte("vc"),
	}
	loads := 0
	cc := NewCorrelationCache(1<<16, func(key []byte) ([]byte, bool) {
		loads++
		v, ok := backing[string(key)]
		return v, ok
	})
	// Teach the correlation A->B by simulating the demand stream.
	for i := 0; i < 3; i++ {
		if _, ok := cc.Get([]byte("A")); !ok {
			cc.Add([]byte("A"), backing["A"])
		}
		if _, ok := cc.Get([]byte("B")); !ok {
			cc.Add([]byte("B"), backing["B"])
		}
	}
	// While both stay resident no prefetch is needed. Drop B, then a read
	// of A must pull B back in ahead of demand.
	cc.lru.Remove([]byte("B"))
	if _, ok := cc.Get([]byte("A")); !ok {
		t.Fatal("A should be resident")
	}
	issued, _ := cc.PrefetchStats()
	if issued == 0 {
		t.Fatal("no prefetches issued after learning A-B adjacency")
	}
	// The prefetched B must now be a cache hit, counted as a prefetch hit.
	if _, ok := cc.Get([]byte("B")); !ok {
		t.Fatal("prefetched companion B not resident")
	}
	if _, hit := cc.PrefetchStats(); hit == 0 {
		t.Fatal("prefetch hit not accounted")
	}
	if loads == 0 {
		t.Fatal("loader never invoked")
	}
}

// TestCorrelationCacheBeatsLRUOnCorrelatedStream: the headline design
// claim. A stream of correlated pairs under cache pressure must hit more
// often with prefetching than with plain LRU.
func TestCorrelationCacheBeatsLRUOnCorrelatedStream(t *testing.T) {
	// Working set larger than cache: every key pair (k, k') is accessed
	// adjacently, cycling through many pairs.
	backing := map[string][]byte{}
	npairs := 64
	val := bytes.Repeat([]byte{1}, 100)
	for i := 0; i < npairs; i++ {
		backing[fmt.Sprintf("x%03d", i)] = val
		backing[fmt.Sprintf("y%03d", i)] = val
	}
	capacity := 30 * 104 // ~30 entries: far below the 128-key working set

	runLRU := func() float64 {
		c := NewLRU(capacity)
		for round := 0; round < 20; round++ {
			for i := 0; i < npairs; i++ {
				for _, p := range []string{"x", "y"} {
					k := []byte(fmt.Sprintf("%s%03d", p, i))
					if _, ok := c.Get(k); !ok {
						c.Add(k, backing[string(k)])
					}
				}
			}
		}
		return c.HitRate()
	}
	runCorr := func() float64 {
		c := NewCorrelationCache(capacity, func(key []byte) ([]byte, bool) {
			v, ok := backing[string(key)]
			return v, ok
		})
		for round := 0; round < 20; round++ {
			for i := 0; i < npairs; i++ {
				for _, p := range []string{"x", "y"} {
					k := []byte(fmt.Sprintf("%s%03d", p, i))
					if _, ok := c.Get(k); !ok {
						c.Add(k, backing[string(k)])
					}
				}
			}
		}
		return c.HitRate()
	}
	lru, corr := runLRU(), runCorr()
	if corr <= lru {
		t.Fatalf("correlation cache (%.3f) did not beat LRU (%.3f) on a correlated stream", corr, lru)
	}
}

func TestCorrelationCacheCoEviction(t *testing.T) {
	backing := map[string][]byte{"A": []byte("va"), "B": []byte("vb")}
	cc := NewCorrelationCache(1<<16, func(key []byte) ([]byte, bool) {
		v, ok := backing[string(key)]
		return v, ok
	})
	for i := 0; i < 3; i++ {
		cc.Add([]byte("A"), backing["A"])
		cc.Get([]byte("A"))
		cc.Add([]byte("B"), backing["B"])
		cc.Get([]byte("B"))
	}
	// A read of A should have prefetched B by now (if B was evicted).
	cc.Remove([]byte("A"))
	// B must be gone too if it was resident only via prefetch. Demand-added
	// entries stay. We assert no panic and that A is gone.
	if _, ok := cc.Get([]byte("A")); ok {
		t.Fatal("A survived Remove")
	}
}

func TestCorrelationCacheNilLoader(t *testing.T) {
	cc := NewCorrelationCache(1024, nil)
	cc.Add([]byte("k"), []byte("v"))
	if v, ok := cc.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatal("basic get through nil-loader cache failed")
	}
	if cc.lru.Len() != 1 {
		t.Fatal("lru.Len")
	}
}

func BenchmarkLRUGetHit(b *testing.B) {
	c := NewLRU(1 << 20)
	for i := 0; i < 1000; i++ {
		c.Add([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte{1}, 64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get([]byte(fmt.Sprintf("key-%04d", i%1000)))
	}
}

func BenchmarkCorrelationCacheGet(b *testing.B) {
	backing := map[string][]byte{}
	for i := 0; i < 1000; i++ {
		backing[fmt.Sprintf("key-%04d", i)] = bytes.Repeat([]byte{1}, 64)
	}
	c := NewCorrelationCache(1<<20, func(key []byte) ([]byte, bool) {
		v, ok := backing[string(key)]
		return v, ok
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i%1000))
		if _, ok := c.Get(k); !ok {
			c.Add(k, backing[string(k)])
		}
	}
}

// TestCorrelationCacheCompanionBound: the per-key learner state must stay
// bounded, evicting the weakest companion when full.
func TestCorrelationCacheCompanionBound(t *testing.T) {
	cc := NewCorrelationCache(1<<16, nil)
	// Interleave "hub" with 20 distinct partners, twice each so all pass
	// the min-count rule.
	for round := 0; round < 2; round++ {
		for i := 0; i < 20; i++ {
			cc.Get([]byte("hub"))
			cc.Get([]byte(fmt.Sprintf("partner-%02d", i)))
		}
	}
	if got := len(cc.assoc["hub"]); got > cc.maxCompanions {
		t.Fatalf("hub holds %d companions, cap %d", got, cc.maxCompanions)
	}
}
