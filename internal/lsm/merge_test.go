package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ethkv/internal/faultfs"
)

// sliceSource is a source over an in-memory entry slice that optionally
// stops with failErr once its entries are spent — the shape of a table
// iterator that hits a damaged block after a clean prefix.
type sliceSource struct {
	ents    []entry
	failErr error
}

func (s *sliceSource) peek() (entry, bool) {
	if len(s.ents) == 0 {
		return entry{}, false
	}
	return s.ents[0], true
}

func (s *sliceSource) advance() { s.ents = s.ents[1:] }

func (s *sliceSource) err() error {
	if len(s.ents) == 0 {
		return s.failErr
	}
	return nil
}

// mergeReference is the sort-based model of mergeIterator: every entry of
// every source, ordered by (key, source index), first of each key wins.
func mergeReference(sources [][]entry) []entry {
	type tagged struct {
		entry
		src int
	}
	var all []tagged
	for i, ents := range sources {
		for _, e := range ents {
			all = append(all, tagged{e, i})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if c := bytes.Compare(all[i].key, all[j].key); c != 0 {
			return c < 0
		}
		return all[i].src < all[j].src
	})
	var out []entry
	for i, t := range all {
		if i == 0 || !bytes.Equal(t.key, all[i-1].key) {
			out = append(out, t.entry)
		}
	}
	return out
}

// randomSources draws k ascending entry runs over a small key space, so keys
// repeat across sources; some runs are empty, and values name their source so
// a wrong winner is visible.
func randomSources(rng *rand.Rand, k int) [][]entry {
	sources := make([][]entry, k)
	for i := range sources {
		if rng.Intn(5) == 0 {
			continue // empty source
		}
		n := 1 + rng.Intn(60)
		keys := map[int]bool{}
		for len(keys) < n {
			keys[rng.Intn(150)] = true
		}
		for key := range keys {
			e := entry{key: []byte(fmt.Sprintf("key-%04d", key))}
			if rng.Intn(4) == 0 {
				e.tombstone = true
			} else {
				e.value = []byte(fmt.Sprintf("s%d-k%d", i, key))
			}
			sources[i] = append(sources[i], e)
		}
		sort.Slice(sources[i], func(a, b int) bool {
			return bytes.Compare(sources[i][a].key, sources[i][b].key) < 0
		})
	}
	return sources
}

func drainMerge(m *mergeIterator) []entry {
	var got []entry
	for m.next() {
		got = append(got, m.entry())
	}
	return got
}

func sameEntries(a, b []entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].key, b[i].key) || !bytes.Equal(a[i].value, b[i].value) ||
			a[i].tombstone != b[i].tombstone {
			return false
		}
	}
	return true
}

// TestMergeIteratorModel checks the heap merge against the sort-based model
// for 1..20 sources with duplicate keys, tombstones and empty sources, and
// that a source failing after a clean prefix poisons the merge after exactly
// the entries that precede the damage: every merged key up to the failing
// source's last good key, nothing beyond, and the source's own error.
func TestMergeIteratorModel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 40; round++ {
		for k := 1; k <= 20; k++ {
			data := randomSources(rng, k)
			asSources := func(failing, keep int, failErr error) []source {
				out := make([]source, k)
				for i, ents := range data {
					s := &sliceSource{ents: ents}
					if i == failing {
						s.ents, s.failErr = ents[:keep], failErr
					}
					out[i] = s
				}
				return out
			}

			m := newMergeIterator(asSources(-1, 0, nil))
			want := mergeReference(data)
			if got := drainMerge(m); !sameEntries(got, want) || m.err() != nil {
				t.Fatalf("round %d k=%d: merge yielded %d entries (err %v), model %d",
					round, k, len(got), m.err(), len(want))
			}
			if m.next() {
				t.Fatalf("round %d k=%d: next after exhaustion", round, k)
			}

			// Source j keeps its first `keep` entries, then fails.
			j := rng.Intn(k)
			keep := 0
			if len(data[j]) > 0 {
				keep = rng.Intn(len(data[j]) + 1)
			}
			failErr := fmt.Errorf("source %d damaged", j)
			m = newMergeIterator(asSources(j, keep, failErr))
			var prefix []entry
			if keep > 0 {
				last := data[j][keep-1].key
				for _, e := range want {
					if bytes.Compare(e.key, last) <= 0 {
						prefix = append(prefix, e)
					}
				}
			}
			if got := drainMerge(m); !sameEntries(got, prefix) {
				t.Fatalf("round %d k=%d: source %d failing after %d entries: merge yielded %d, want %d",
					round, k, j, keep, len(got), len(prefix))
			}
			if !errors.Is(m.err(), failErr) {
				t.Fatalf("round %d k=%d: err = %v, want %v", round, k, m.err(), failErr)
			}
			if m.next() {
				t.Fatalf("round %d k=%d: next after a latched error", round, k)
			}
		}
	}
}

// TestReadaheadReuseKeepsEntryValid walks a table spanning several readahead
// spans and checks the source contract the merge relies on: after each
// advance the previous entry still reads as it did when it was current, even
// across the block boundaries where the iterator alternates between its two
// decode buffers and the span boundaries where it refills its span buffer.
// Run under -race.
func TestReadaheadReuseKeepsEntryValid(t *testing.T) {
	// ~1.1 MiB of entries: five 256 KiB spans.
	var ents []entry
	for i := 0; i < 4000; i++ {
		ents = append(ents, entry{
			key:   []byte(fmt.Sprintf("key-%06d", i)),
			value: bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 140),
		})
	}
	m := faultfs.NewMemFS()
	meta, err := writeTable(m, "d", 1, 0, ents)
	if err != nil {
		t.Fatal(err)
	}
	r, err := openTable(m, "d", meta, nil, retryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.unref()

	s := newRunSource([]*tableReader{r}, nil, false)
	var prev entry
	spans, lastFirst := 0, -1
	for i := 0; ; i++ {
		cur, ok := s.peek()
		if i > 0 {
			want := ents[i-1]
			if !bytes.Equal(prev.key, want.key) || !bytes.Equal(prev.value, want.value) {
				t.Fatalf("entry %d changed under the advance that followed it (span %d)", i-1, spans)
			}
		}
		if !ok {
			if i != len(ents) || s.err() != nil {
				t.Fatalf("walk ended after %d/%d entries, err %v", i, len(ents), s.err())
			}
			break
		}
		if s.cur.raFirst != lastFirst {
			spans, lastFirst = spans+1, s.cur.raFirst
		}
		prev = cur
		s.advance()
	}
	if spans < 4 {
		t.Fatalf("walk crossed %d span boundaries, want >= 3", spans-1)
	}
	if s.cur.span == nil || s.cur.bufs[0] == nil || s.cur.bufs[1] == nil {
		t.Fatal("a multi-block walk should hold its span buffer and both decode buffers")
	}
	s.close()
	if _, ok := s.peek(); ok || s.cur.next() || s.cur.span != nil || s.cur.bufs[0] != nil || s.cur.bufs[1] != nil {
		t.Fatal("closed source still yields entries or holds pooled buffers")
	}
}

// TestRunSourceWalksOneTableAtATime: a run source yields its tables' entries
// in order, starts a table's walk only when the walk reaches it, names the
// table each handed-out entry came from (last, which resolves blob handles)
// and keeps an exhausted table's last entry intact across the advance that
// follows it even while other walks churn the buffer pools.
func TestRunSourceWalksOneTableAtATime(t *testing.T) {
	m := faultfs.NewMemFS()
	var (
		want   []entry
		tables []*tableReader
	)
	for n := 0; n < 4; n++ {
		var ents []entry
		for i := 0; i < 50; i++ {
			ents = append(ents, entry{
				key:   []byte(fmt.Sprintf("key-%d-%03d", n, i)),
				value: bytes.Repeat([]byte{byte(n), byte(i)}, 20),
			})
		}
		meta, err := writeTable(m, "d", uint64(n+1), 1, ents)
		if err != nil {
			t.Fatal(err)
		}
		r, err := openTable(m, "d", meta, nil, retryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.unref()
		want, tables = append(want, ents...), append(tables, r)
	}
	s := newRunSource(tables, nil, false)
	var prev entry
	for i := 0; ; i++ {
		if i > 0 && (!bytes.Equal(prev.key, want[i-1].key) || !bytes.Equal(prev.value, want[i-1].value)) {
			t.Fatalf("entry %d changed under the advance that followed it", i-1)
		}
		cur, ok := s.peek()
		if !ok {
			if i != len(want) || s.err() != nil {
				t.Fatalf("walk ended after %d/%d entries, err %v", i, len(want), s.err())
			}
			break
		}
		if left := len(tables) - 1 - i/50; len(s.tables) != left {
			t.Fatalf("at entry %d: %d tables unstarted, want %d", i, len(s.tables), left)
		}
		prev = cur
		s.advance()
		if s.last.t != tables[i/50] {
			t.Fatalf("entry %d handed out from table %06d, run names %06d", i, tables[i/50].meta.num, s.last.t.meta.num)
		}
		// Another walk takes pooled buffers and overwrites them.
		span, blk := spanBufferPool.Get().(*[]byte), blockPool.Get().(*block)
		for _, buf := range [][]byte{*span, blk.data[:cap(blk.data)]} {
			for j := range buf {
				buf[j] = 0xAA
			}
		}
		spanBufferPool.Put(span)
		blockPool.Put(blk)
	}
	s.close()
	var read int
	for _, r := range tables {
		read += int(r.index[len(r.index)-1].offset + r.index[len(r.index)-1].length)
	}
	if s.read != read || s.cur.span != nil || s.last.span != nil {
		t.Fatalf("closed run read %d bytes (want %d), or holds a span buffer", s.read, read)
	}
}
