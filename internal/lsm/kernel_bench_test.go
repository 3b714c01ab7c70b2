package lsm

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
)

// Micro-benchmarks of the LSM's kernels on faultfs.MemFS, so they time CPU,
// allocation and cache-line traffic, not a device: the background write
// path's three (k-way merge, table encode+write, a whole range compaction)
// and the point-read path's two (a Get on fully cached data, the search of
// one block). BenchmarkCommitParallel is the exception: it times the durable
// commit path against a modeled barrier, because what it measures is how many
// commits one barrier carries. `make bench-kernels` runs them at -cpu 1,2;
// `make check` runs each once so they cannot rot. The write-path ones use only
// what the slice-based writer's tests used too, and BenchmarkGetCached and
// BenchmarkCommitParallel only the store's exported calls, so the same
// functions measure earlier commits; CHANGES.md records both sides.

// benchEntries returns n ascending entries whose keys are drawn from
// [0, n*stride) with the given stride offset, ~100 bytes each — the trace's
// typical pair size.
func benchEntries(rng *rand.Rand, n, stride, offset int) (ents []entry, dataBytes int) {
	for i := 0; i < n; i++ {
		e := entry{
			key:   []byte(fmt.Sprintf("key-%010d-%022d", i*stride+offset, i)),
			value: make([]byte, 40+rng.Intn(50)),
		}
		rng.Read(e.value)
		dataBytes += len(e.key) + len(e.value)
		ents = append(ents, e)
	}
	return ents, dataBytes
}

// benchTables writes k tables of perTable entries each into a fresh MemFS.
// Table i takes every k-th key starting at i, except that one key in ten is
// shared with the next table, so the merge sees interleaved runs with
// duplicates like overlapping L0 files.
func benchTables(b *testing.B, k, perTable, level int) (*faultfs.MemFS, []tableMeta, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(k)))
	m := faultfs.NewMemFS()
	var metas []tableMeta
	total := 0
	for i := 0; i < k; i++ {
		ents, n := benchEntries(rng, perTable, k, i)
		for j := 0; j < len(ents); j += 10 {
			if i+1 < k {
				ents[j].key = []byte(fmt.Sprintf("key-%010d-%022d", j*k+i+1, j))
			}
		}
		meta, err := writeTable(m, "d", uint64(i+1), level, ents)
		if err != nil {
			b.Fatal(err)
		}
		metas = append(metas, meta)
		total += n
	}
	return m, metas, total
}

func BenchmarkMergeIterator(b *testing.B) {
	for _, k := range []int{2, 8, 17} { // 17 sources: L0 at its stop trigger plus one L1 run
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			m, metas, total := benchTables(b, k, 40000/k, 0)
			readers := make([]*tableReader, k)
			for i, meta := range metas {
				r, err := openTable(m, "d", meta, nil, noRetry)
				if err != nil {
					b.Fatal(err)
				}
				defer r.unref()
				readers[i] = r
			}
			b.SetBytes(int64(total))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sources := make([]source, k)
				for j, r := range readers {
					sources[j] = newTableSourceBypass(r)
				}
				merged := newMergeIterator(sources)
				n := 0
				for merged.next() {
					n += len(merged.entry().key)
				}
				if merged.err() != nil || n == 0 {
					b.Fatalf("merge: %d key bytes, err %v", n, merged.err())
				}
				for _, s := range sources {
					s.(*tableSource).close() // as compactRange does; no such call before §19
				}
			}
		})
	}
}

func BenchmarkTableWrite(b *testing.B) {
	ents, total := benchEntries(rand.New(rand.NewSource(1)), 20000, 1, 0)
	m := faultfs.NewMemFS()
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := writeTable(m, "d", 1, 1, ents); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompactRange merges four overlapping 1 MiB L0 tables into an
// L1 run — the factory geometry's commonest job — and writes the result.
func BenchmarkCompactRange(b *testing.B) {
	m, metas, total := benchTables(b, 4, 10400, 0)
	db := &DB{dir: "d", fs: m, opts: Options{FS: m}.withDefaults()}
	db.next.Store(100)
	plan := compactionPlan{level: 0, dst: 1, srcMetas: metas}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := db.compactRange(plan)
		if err != nil || len(out) == 0 {
			b.Fatalf("compactRange: %d tables, err %v", len(out), err)
		}
		for _, meta := range out {
			if err := m.Remove(tablePath("d", meta.num)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGetCached times DB.Get from every P at once on a store whose
// blocks are all cached — the state readscan_stack_local runs in — so what is
// left is the path itself: locks, counters, filter probes, block search. The
// store has the factory geometry (1 MiB memtables, 4 MiB L1) and is read
// as the preload left it, L0 tables included, so a Get probes more than one
// table. hit draws present keys; absent draws keys that sort between present
// ones, which reach the filters of every overlapping table. The difference
// between -cpu 1 and -cpu 2 is what the readers cost each other.
func BenchmarkGetCached(b *testing.B) {
	const n = 120000
	m := faultfs.NewMemFS()
	db, err := Open("db", Options{
		FS: m, DisableWAL: true,
		MemtableBytes: 1 << 20, LevelBaseBytes: 4 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(1))
	present := make([][]byte, n)
	absent := make([][]byte, n)
	for i := range present {
		present[i] = []byte(fmt.Sprintf("key-%032x", rng.Uint64()))
		absent[i] = append(append([]byte(nil), present[i]...), '+')
		v := make([]byte, 40+rng.Intn(50))
		rng.Read(v)
		if err := db.Put(present[i], v); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	for _, k := range present { // fill the cache
		if _, err := db.Get(k); err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range []struct {
		name string
		keys [][]byte
		want error
	}{{"hit", present, nil}, {"absent", absent, kv.ErrNotFound}} {
		b.Run(mode.name, func(b *testing.B) {
			var seed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					if _, err := db.Get(mode.keys[rng.Intn(n)]); err != mode.want {
						b.Errorf("Get: %v, want %v", err, mode.want)
						return
					}
				}
			})
		})
	}
}

// BenchmarkBlockSearch times the lookup of one key in one 4 KiB block of
// trace-sized pairs: binary is the indexed search point reads use
// (block.search, index already built, as on a cache hit), linear the
// decode-and-compare walk they used before.
func BenchmarkBlockSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ents, _ := benchEntries(rng, 64, 1, 0)
	n := 0
	for size := 0; size < targetBlock; n++ { // the writer's cut rule
		size += len(ents[n].key) + len(ents[n].value) + 3
	}
	payload := encodeBlock(ents[:n])
	keys := make([][]byte, n)
	for i, j := range rng.Perm(n) { // not in block order: no help from the branch predictor
		keys[i] = ents[j].key
	}
	blk, err := parseBlock(payload)
	if err != nil || len(blk.offsets) != n {
		b.Fatalf("parseBlock: %d entries of %d, err %v", len(blk.offsets), n, err)
	}
	var sink int
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, found, _ := blk.search(keys[i%len(keys)])
			if !found {
				b.Fatal("key not found")
			}
			sink += len(v)
		}
	})
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, found, _, err := linearSearch(payload, keys[i%len(keys)])
			if err != nil || !found {
				b.Fatalf("linearSearch: found=%v err=%v", found, err)
			}
			sink += len(v)
		}
	})
	_ = sink
}

// BenchmarkCommitParallel commits ~100 KiB batches (100 pairs of 1 KiB, so
// the barrier and not the skiplist prices a commit) from 1, 2 and 8
// closed-loop writers into a WAL-on store whose every Sync costs 200 µs. One
// writer pays one barrier per commit; concurrent writers should ride each
// other's (syncs/commit well under 1), and MB/s shows what that buys.
func BenchmarkCommitParallel(b *testing.B) {
	const pairs, valueBytes, keySets = 100, 1000, 64
	for _, writers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("%dwriters", writers), func(b *testing.B) {
			fsys := faultfs.WithSyncLatency(faultfs.NewMemFS(), 200*time.Microsecond)
			db, err := Open("db", Options{FS: fsys})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			value := make([]byte, valueBytes)
			rand.New(rand.NewSource(1)).Read(value)
			keys := make([][]byte, writers*keySets*pairs)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("key-%020d", i))
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.SetBytes(pairs * int64(len(keys[0])+valueBytes))
			syncsBefore := db.Stats().WALSyncs
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				mine := keys[w*keySets*pairs:][:keySets*pairs]
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := next.Add(1); n <= int64(b.N); n = next.Add(1) {
						batch := db.NewBatch()
						for _, key := range mine[int(n%keySets)*pairs:][:pairs] {
							batch.Put(key, value)
						}
						if err := batch.Write(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(db.Stats().WALSyncs-syncsBefore)/float64(b.N), "syncs/commit")
		})
	}
}
