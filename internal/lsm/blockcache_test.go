package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
)

// rawBlock wraps payload as an unindexed block: enough for the cache, which
// only stores blocks and charges their size.
func rawBlock(payload []byte) *block { return &block{data: payload} }

func TestBlockCacheBasics(t *testing.T) {
	c := newBlockCache(64 << 10)
	if _, ok := c.get(1, 0); ok {
		t.Fatal("hit on empty cache")
	}
	blk := rawBlock([]byte("block-zero-payload"))
	c.put(1, 0, blk)
	got, ok := c.get(1, 0)
	if !ok || got != blk {
		t.Fatalf("get = %v, %v", got, ok)
	}
	if h, m, _ := c.counters(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}
	c.dropTable(1)
	if _, ok := c.get(1, 0); ok {
		t.Fatal("hit after dropTable")
	}
	if _, _, ev := c.counters(); ev != 0 {
		t.Fatal("dropTable counted as eviction")
	}
	if c.usedBytes() != 0 {
		t.Fatalf("usedBytes %d after dropTable", c.usedBytes())
	}
}

func TestBlockCacheNilIsInert(t *testing.T) {
	var c *blockCache
	if c := newBlockCache(0); c != nil {
		t.Fatal("zero capacity should disable the cache")
	}
	c.put(1, 0, rawBlock([]byte("x")))
	if _, ok := c.get(1, 0); ok {
		t.Fatal("nil cache returned a hit")
	}
	c.dropTable(1)
	c.addPinned(100)
	if c.usedBytes() != 0 || c.capacityBytes() != 0 || c.pinnedBytes() != 0 {
		t.Fatal("nil cache reports nonzero sizes")
	}
	if h, m, ev := c.counters(); h != 0 || m != 0 || ev != 0 {
		t.Fatal("nil cache reports nonzero counters")
	}
}

// TestBlockCacheBudgetBound inserts 4x the cache capacity in blocks smaller
// than one shard's share and checks the byte budget holds throughout — with
// the offset index counted: each block here carries 16 offsets (64 bytes).
func TestBlockCacheBudgetBound(t *testing.T) {
	capacity := int64(1 << 20)
	c := newBlockCache(capacity)
	blk := &block{data: make([]byte, 4<<10), offsets: make([]uint32, 16)}
	if blk.size() != 4<<10+64 {
		t.Fatalf("block charged %d bytes, want payload + 4 per offset", blk.size())
	}
	for i := 0; i < 1024; i++ {
		c.put(uint64(i%8), i, blk)
		if used := c.usedBytes(); used > capacity {
			t.Fatalf("insert %d: usedBytes %d exceeds capacity %d", i, used, capacity)
		}
	}
	if _, _, ev := c.counters(); ev == 0 {
		t.Fatal("4x overcommit evicted nothing")
	}
}

// TestBlockCacheOversizedEntries covers blocks bigger than a shard's share:
// each shard retains at most one oversized entry, so total usage stays
// bounded even when the budget is absurdly small.
func TestBlockCacheOversizedEntries(t *testing.T) {
	c := newBlockCache(4 << 10) // 256 B/shard, far below one block
	blk := rawBlock(make([]byte, 4<<10))
	for i := 0; i < 256; i++ {
		c.put(uint64(i), 0, blk)
		if _, ok := c.get(uint64(i), 0); !ok {
			t.Fatalf("block %d evicted by its own insert", i)
		}
	}
	bound := int64(cacheShardCount) * blk.size()
	if used := c.usedBytes(); used > bound {
		t.Fatalf("usedBytes %d exceeds oversized bound %d", used, bound)
	}
}

// sameShardBlocks returns n block indexes of table 1 that share a cache
// shard, so a test can fill one shard deterministically.
func sameShardBlocks(c *blockCache, n int) []int {
	home := c.shard(cacheKey{table: 1, block: 0})
	var idx []int
	for b := 0; len(idx) < n; b++ {
		if c.shard(cacheKey{table: 1, block: b}) == home {
			idx = append(idx, b)
		}
	}
	return idx
}

// TestBlockCacheSecondChance pins the replacement policy: eviction takes the
// oldest entry that has not been hit since it was queued or last passed
// over; a hit buys an entry exactly one pass, and writes nothing once the
// flag is set.
func TestBlockCacheSecondChance(t *testing.T) {
	const blockBytes = 1 << 10
	c := newBlockCache(cacheShardCount * 3 * blockBytes) // three blocks per shard
	idx := sameShardBlocks(c, 6)
	put := func(i int) { c.put(1, idx[i], rawBlock(make([]byte, blockBytes))) }
	cached := func(i int) bool {
		s := c.shard(cacheKey{table: 1, block: idx[i]})
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.table[cacheKey{table: 1, block: idx[i]}]
		return ok
	}
	put(0)
	put(1)
	put(2)
	// Hit the oldest twice: the second hit finds the flag already set.
	c.get(1, idx[0])
	c.get(1, idx[0])
	put(3) // over budget: 0 is referenced and passed over, 1 goes
	if !cached(0) || cached(1) || !cached(2) || !cached(3) {
		t.Fatalf("after first eviction: cached = %v %v %v %v, want 0, 2, 3",
			cached(0), cached(1), cached(2), cached(3))
	}
	// 0 spent its chance: with no further hit it is now behind 2 and 3 only
	// in age, and goes after them in queue order — 2 first.
	put(4)
	if !cached(0) || cached(2) || !cached(3) || !cached(4) {
		t.Fatalf("after second eviction: cached = %v %v %v %v, want 0, 3, 4",
			cached(0), cached(2), cached(3), cached(4))
	}
	put(5)
	if cached(3) || !cached(0) || !cached(4) || !cached(5) {
		t.Fatalf("after third eviction: cached = %v %v %v %v, want 0, 4, 5",
			cached(3), cached(0), cached(4), cached(5))
	}
	// Unreferenced since it was requeued, 0 is now the oldest and goes.
	put(1)
	if cached(0) {
		t.Fatal("entry kept after its second chance was spent")
	}
	if _, _, ev := c.counters(); ev != 4 {
		t.Fatalf("evictions = %d, want 4", ev)
	}
}

// TestBlockCacheCountsOncePerLookup checks the meaning of the hit and miss
// counters, which lsm.block_cache_hit_rate and lsm.phys_reads_per_get are
// computed from: every block lookup counts exactly one hit or one miss,
// whether it comes from a point read or a cache-aware scan, and an insert
// counts neither.
func TestBlockCacheCountsOncePerLookup(t *testing.T) {
	c := newBlockCache(1 << 20)
	var hits, misses uint64
	check := func(what string) {
		t.Helper()
		if h, m, _ := c.counters(); h != hits || m != misses {
			t.Fatalf("%s: hits=%d misses=%d, want %d/%d", what, h, m, hits, misses)
		}
	}
	c.get(1, 0)
	misses++
	check("cold get")
	c.put(1, 0, rawBlock([]byte("payload")))
	check("put")
	for i := 0; i < 3; i++ {
		c.get(1, 0)
		hits++
	}
	check("warm gets")

	// Through a table: 3 data blocks, each point read looks up one block.
	m := faultfs.NewMemFS()
	var ents []entry
	for i := 0; i < 150; i++ {
		ents = append(ents, entry{key: []byte(fmt.Sprintf("key-%04d", i)), value: make([]byte, 64)})
	}
	meta, err := writeTable(m, "d", 7, 0, ents)
	if err != nil {
		t.Fatal(err)
	}
	r, err := openTable(m, "d", meta, c, retryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.unref()
	if len(r.index) != 3 {
		t.Fatalf("table has %d blocks, want 3", len(r.index))
	}
	for pass := 0; pass < 2; pass++ {
		for _, e := range ents {
			if _, found, _, _, err := r.probe(e.key); err != nil || !found {
				t.Fatalf("probe(%q): found=%v err=%v", e.key, found, err)
			}
		}
	}
	misses += 3                     // first touch of each block
	hits += uint64(2*len(ents)) - 3 // every other lookup
	check("point reads")
	// A bloom negative never reaches the cache.
	if _, found, _, _, _ := r.probe([]byte("absent")); found {
		t.Fatal("absent key found")
	}
	check("bloom negative")
	// A cache-aware scan looks each block up once; the bypass walk never.
	for it := r.iterator(nil, true); it.next(); {
	}
	hits += 3
	check("cached scan")
	for it := r.iterator(nil, false); it.next(); {
	}
	check("bypass scan")
}

// TestTableFormatV1Compat pins what the store does with the format it no
// longer reads. A v2 table is served. The same table with v1's footer magic
// (the format without section checksums) and a valid footer checksum is
// refused as errTableCorrupt with an error naming the retired format, by the
// reader and by Open of a store whose manifest names the table: a store of
// v1 tables fails to open, it is never served as an empty one.
func TestTableFormatV1Compat(t *testing.T) {
	const magicV1 = 0x657468_6b760001
	var ents []entry
	for i := 0; i < 500; i++ {
		ents = append(ents, entry{
			key:   []byte(fmt.Sprintf("key-%04d", i)),
			value: []byte(fmt.Sprintf("value-%04d", i)),
		})
	}
	t.Run("v2", func(t *testing.T) {
		dir := t.TempDir()
		meta, err := writeTable(faultfs.OS, dir, 1, 0, ents)
		if err != nil {
			t.Fatal(err)
		}
		r, err := openTable(faultfs.OS, dir, meta, nil, retryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.unref()
		for _, e := range ents {
			v, found, deleted, _, err := r.probe(e.key)
			if err != nil || !found || deleted || !bytes.Equal(v, e.value) {
				t.Fatalf("get(%q) = %q found=%v deleted=%v err=%v", e.key, v, found, deleted, err)
			}
		}
		it := r.iterator(nil, true)
		n := 0
		for it.next() {
			if !bytes.Equal(it.cur.key, ents[n].key) {
				t.Fatalf("scan entry %d = %q, want %q", n, it.cur.key, ents[n].key)
			}
			n++
		}
		if it.err != nil || n != len(ents) {
			t.Fatalf("scan: %d entries, err=%v", n, it.err)
		}
	})
	t.Run("v1", func(t *testing.T) {
		refused := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, errTableCorrupt) || !strings.Contains(err.Error(), "retired table format v1") {
				t.Fatalf("%s: err=%v, want errTableCorrupt naming the retired format v1", what, err)
			}
		}
		toV1 := func(fsys faultfs.FS, path string) {
			t.Helper()
			img, err := fsys.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(img[len(img)-8:], magicV1)
			resealFooter(img)
			if err := faultfs.WriteFileSync(fsys, path, img); err != nil {
				t.Fatal(err)
			}
		}

		m := faultfs.NewMemFS()
		meta, err := writeTable(m, "d", 1, 0, ents)
		if err != nil {
			t.Fatal(err)
		}
		toV1(m, tablePath("d", 1))
		_, err = openTable(m, "d", meta, nil, retryPolicy{})
		refused("openTable", err)

		// A store whose every table is v1.
		opts := smallOpts()
		opts.FS = faultfs.NewMemFS()
		db, err := Open("db", opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if err := db.Put(e.key, e.value); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		tables, err := opts.FS.Glob("db/*.sst")
		if err != nil || len(tables) == 0 {
			t.Fatalf("no tables to rewrite (err=%v)", err)
		}
		for _, p := range tables {
			toV1(opts.FS, p)
		}
		db, err = Open("db", opts)
		if err == nil {
			n := len(dumpDB(t, db))
			db.Close()
			t.Fatalf("Open of a store of v1 tables succeeded, serving %d of %d keys", n, len(ents))
		}
		refused("Open", err)
		if !strings.Contains(err.Error(), ".sst") {
			t.Fatalf("Open: err=%v does not name the refused table", err)
		}
	})
}

// TestBlockCacheStatsThroughDB checks the whole wiring: misses on first
// contact, hits on repeat reads, pinned index+bloom bytes, and bloom
// negative short-circuits, all visible through kv.Stats.
func TestBlockCacheStatsThroughDB(t *testing.T) {
	opts := smallOpts()
	opts.BlockCacheBytes = 1 << 20
	db := openTestDB(t, opts)
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < 300; i += 10 {
			if _, err := db.Get([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := db.Stats()
	if st.BlockCacheMisses == 0 {
		t.Fatal("no cache misses after cold reads")
	}
	if st.BlockCacheHits == 0 {
		t.Fatal("no cache hits after repeat reads")
	}
	if st.BlockCachePinnedBytes == 0 {
		t.Fatal("no pinned index/bloom bytes with open tables")
	}
	// Absent keys inside the table's key range (so the range check cannot
	// exclude them): the bloom filter should short-circuit nearly all.
	for i := 0; i < 50; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("key-%04d-absent", i))); err != kv.ErrNotFound {
			t.Fatalf("absent get: %v", err)
		}
	}
	if st = db.Stats(); st.BloomNegatives == 0 {
		t.Fatal("bloom short-circuited no absent lookups")
	}
}

// TestReadTransientFaultsRetried injects transient read faults underneath
// the demand-paged read path and checks the store's retry policy absorbs
// them: every read succeeds and the retry counter moves.
func TestReadTransientFaultsRetried(t *testing.T) {
	mem := faultfs.NewMemFS()
	plan := faultfs.NewPlan(7)
	opts := smallOpts()
	opts.FS = faultfs.Inject(mem, plan)
	opts.DisableWAL = true
	opts.BlockCacheBytes = -1 // no cache: every read touches the faulty FS
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	plan.SetReadTransientProb(0.05)
	for i := 0; i < 300; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil {
			t.Fatalf("get under read faults: %v", err)
		}
		if want := fmt.Sprintf("val-%04d", i); string(v) != want {
			t.Fatalf("get = %q, want %q", v, want)
		}
	}
	plan.SetReadTransientProb(0)
	if st := db.Stats(); st.IORetries == 0 {
		t.Fatal("no retries recorded under 5% transient read faults")
	}
}

// TestConcurrentReadsDuringCompactionTinyCache races point reads and scans
// against a writer that keeps the flush/compaction machinery busy, with a
// cache small enough that blocks are evicted constantly. Run under -race
// this exercises reader refcounts vs. table removal and shared cache slices.
func TestConcurrentReadsDuringCompactionTinyCache(t *testing.T) {
	opts := smallOpts()
	opts.BlockCacheBytes = 8 << 10
	db := openTestDB(t, opts)
	const stable = 2000 // ~50 data blocks of stable keys vs an 8 KiB cache
	val := func(i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("val-%04d-", i)), 10)
	}
	for i := 0; i < stable; i++ {
		if err := db.Put([]byte(fmt.Sprintf("stable-%04d", i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	// Writer: churn a disjoint key space to drive flushes and compactions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := []byte(fmt.Sprintf("churn-%06d", i%2000))
			if err := db.Put(k, bytes.Repeat([]byte{byte(i)}, 128)); err != nil {
				errc <- err
				return
			}
		}
	}()
	// Readers: stable keys must stay readable with the right values.
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
				i := rng.Intn(stable)
				v, err := db.Get([]byte(fmt.Sprintf("stable-%04d", i)))
				if err != nil {
					errc <- fmt.Errorf("reader get: %w", err)
					return
				}
				if !bytes.Equal(v, val(i)) {
					errc <- fmt.Errorf("reader got %q for stable-%04d", v, i)
					return
				}
			}
		}(int64(r))
	}
	// Scanner: iterate the stable prefix repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			it := db.NewIterator([]byte("stable-"), nil)
			n := 0
			for it.Next() {
				n++
			}
			err := it.Error()
			it.Release()
			if err != nil {
				errc <- fmt.Errorf("scan: %w", err)
				return
			}
			if n != stable {
				errc <- fmt.Errorf("scan saw %d stable keys, want %d", n, stable)
				return
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if st := db.Stats(); st.BlockCacheEvictions == 0 {
		t.Fatalf("tiny cache evicted nothing (hits=%d misses=%d)", st.BlockCacheHits, st.BlockCacheMisses)
	}
}
