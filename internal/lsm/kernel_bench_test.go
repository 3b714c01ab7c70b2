package lsm

import (
	"fmt"
	"math/rand"
	"testing"

	"ethkv/internal/faultfs"
)

// Micro-benchmarks of the background write path's three kernels — k-way
// merge, table encode+write, and a whole range compaction — on faultfs.MemFS,
// so they time CPU and allocation, not a device. They use only what the
// slice-based writer's tests used too (writeTable, newMergeIterator,
// compactRange), so the same file — less the tableSource.close calls —
// measures the commit before the streaming path; CHANGES.md records both
// sides.

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
				r, err := openTable(m, "d", meta, nil, nil, noRetry)
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
					sources[j] = newTableSourceBypass(r, nil)
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

// BenchmarkCompactRange merges four overlapping 256 KiB L0 tables into an
// L1 run — the factory geometry's commonest job — and writes the result.
func BenchmarkCompactRange(b *testing.B) {
	m, metas, total := benchTables(b, 4, 2600, 0)
	db := &DB{dir: "d", fs: m, opts: Options{FS: m}.withDefaults(), open: map[uint64]*tableReader{}}
	db.next.Store(100)
	plan := compactionPlan{level: 0, dst: 1, srcMetas: metas}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := db.compactRange(plan, nil, nil)
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
