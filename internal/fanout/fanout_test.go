package fanout_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"ethkv/internal/fanout"
	"ethkv/internal/kv"
	"ethkv/internal/kv/kvtest"
)

// byHash is a total, deterministic pick over n children.
func byHash(n int) func([]byte) int {
	return func(key []byte) int {
		h := fnv.New32a()
		h.Write(key)
		return int(h.Sum32() % uint32(n))
	}
}

// newCore builds a Core over children, labelled "child 00", "child 01", …
func newCore(children []kv.Store, pick func([]byte) int) *fanout.Core {
	names := make([]string, len(children))
	for i := range names {
		names[i] = fmt.Sprintf("%02d", i)
	}
	return fanout.New("child", names, children, pick, nil)
}

func memChildren(n int) []kv.Store {
	out := make([]kv.Store, n)
	for i := range out {
		out[i] = kv.NewMemStore()
	}
	return out
}

func TestCoreConformance(t *testing.T) {
	kvtest.Run(t, func(t *testing.T) kv.Store {
		c := newCore(memChildren(3), byHash(3))
		t.Cleanup(func() { c.Close() })
		return c
	}, kvtest.Options{})
}

type pair struct{ key, value string }

// collect drains it.
func collect(t *testing.T, it kv.Iterator) []pair {
	t.Helper()
	defer it.Release()
	var out []pair
	for it.Next() {
		out = append(out, pair{string(it.Key()), string(it.Value())})
	}
	if err := it.Error(); err != nil {
		t.Fatalf("scan failed: %v", err)
	}
	return out
}

// TestMergeAgainstModel checks the k-way merge against "collect, sort,
// dedup" over seeded random children: disjoint keys, the anomalous case of
// one key held by several children (the lowest child's value must surface,
// once), empty children, and prefix/start bounds.
func TestMergeAgainstModel(t *testing.T) {
	for _, k := range []int{1, 2, 5, 16} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(k)))
			children := memChildren(k)
			held := make(map[string]pair) // key -> pair of the lowest child holding it
			for i, child := range children {
				if k > 1 && rng.Intn(4) == 0 {
					continue // an empty child
				}
				for n := rng.Intn(60); n > 0; n-- {
					// A small key space so children collide on keys.
					key := fmt.Sprintf("%c/%03d", "ab"[rng.Intn(2)], rng.Intn(150))
					p := pair{key, fmt.Sprintf("child%d:%s", i, key)}
					if err := child.Put([]byte(p.key), []byte(p.value)); err != nil {
						t.Fatal(err)
					}
					if _, dup := held[key]; !dup {
						held[key] = p
					}
				}
			}
			c := newCore(children, byHash(k))
			for _, bounds := range [][2]string{{"", ""}, {"a/", ""}, {"b/", "075"}, {"", "a/1"}, {"c/", ""}} {
				prefix, start := bounds[0], bounds[1]
				var want []pair
				for key, p := range held {
					if len(key) >= len(prefix) && key[:len(prefix)] == prefix && key >= prefix+start {
						want = append(want, p)
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i].key < want[j].key })
				got := collect(t, c.NewIterator([]byte(prefix), []byte(start)))
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("k=%d seed=%d prefix=%q start=%q:\n got %v\nwant %v", k, seed, prefix, start, got, want)
				}
			}
			c.Close()
		}
	}
}

// scriptStore is a child whose scans replay a fixed pair list in list order
// — sorted or not — through one key and one value buffer that every Next
// scribbles over and refills in place, as an iterator that recycles its
// buffers is entitled to.
type scriptStore struct {
	kv.Store
	pairs []pair
}

func (s *scriptStore) NewIterator(prefix, start []byte) kv.Iterator {
	return &scriptIterator{pairs: s.pairs, at: -1}
}

type scriptIterator struct {
	pairs      []pair
	at         int
	key, value []byte
}

func (it *scriptIterator) Next() bool {
	for i := range it.key {
		it.key[i] = '!'
	}
	for i := range it.value {
		it.value[i] = '!'
	}
	if it.at+1 >= len(it.pairs) {
		return false
	}
	it.at++
	it.key = append(it.key[:0], it.pairs[it.at].key...)
	it.value = append(it.value[:0], it.pairs[it.at].value...)
	return true
}

func (it *scriptIterator) Key() []byte   { return it.key }
func (it *scriptIterator) Value() []byte { return it.value }
func (it *scriptIterator) Release()      {}
func (it *scriptIterator) Error() error  { return nil }

// TestMergeOverRecyclingChildren is the case a copy-free merge gets wrong if
// it advances a child early: the merged Key/Value alias the children's
// buffers, so they must stay intact until the following merged Next even
// though every child overwrites its buffers on its own Next.
func TestMergeOverRecyclingChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k, perChild = 5, 200
	children := make([]kv.Store, k)
	var want []pair
	for i := range children {
		s := &scriptStore{}
		for j := 0; j < perChild; j++ {
			// Same-length keys and values: a recycled buffer holds a
			// plausible-looking wrong pair, not an obviously short one.
			p := pair{fmt.Sprintf("key/%05d", j*k+i), fmt.Sprintf("val/%05d", rng.Intn(100000))}
			s.pairs = append(s.pairs, p)
			want = append(want, p)
		}
		children[i] = s
	}
	sort.Slice(want, func(i, j int) bool { return want[i].key < want[j].key })

	it := newCore(children, byHash(k)).NewIterator(nil, nil)
	defer it.Release()
	for n, w := range want {
		if !it.Next() {
			t.Fatalf("merge stopped after %d of %d pairs: %v", n, len(want), it.Error())
		}
		// Read twice with other work in between: nothing but the next
		// merged Next may disturb the current pair.
		key, value := it.Key(), it.Value()
		if string(key) != w.key || string(value) != w.value {
			t.Fatalf("pair %d = %q=%q, want %q=%q", n, key, value, w.key, w.value)
		}
		if string(it.Key()) != w.key || string(it.Value()) != w.value {
			t.Fatalf("pair %d changed between reads: %q=%q", n, it.Key(), it.Value())
		}
	}
	if it.Next() || it.Key() != nil || it.Value() != nil {
		t.Fatalf("exhausted merge still has a pair: %q=%q", it.Key(), it.Value())
	}
}

// TestMergeOverUnorderedChildren: even children that break kv.Iterator's
// ascending-order promise yield every pair exactly once through the merge —
// a misbehaving child costs order, never data.
func TestMergeOverUnorderedChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k = 4
	children := make([]kv.Store, k)
	want := make(map[string]string)
	for i := range children {
		s := &scriptStore{}
		for j := 0; j < 100; j++ {
			p := pair{fmt.Sprintf("u/%d/%03d", i, j), fmt.Sprint(rng.Int())}
			s.pairs = append(s.pairs, p)
			want[p.key] = p.value
		}
		rng.Shuffle(len(s.pairs), func(a, b int) { s.pairs[a], s.pairs[b] = s.pairs[b], s.pairs[a] })
		children[i] = s
	}
	got := collect(t, newCore(children, byHash(k)).NewIterator(nil, nil))
	if len(got) != len(want) {
		t.Fatalf("merge yielded %d pairs, want %d", len(got), len(want))
	}
	for _, p := range got {
		if v, ok := want[p.key]; !ok || v != p.value {
			t.Fatalf("pair %q=%q missing from the children, or yielded twice", p.key, p.value)
		}
		delete(want, p.key)
	}
}

// failWriteStore is a child whose batches fail at Write.
type failWriteStore struct {
	kv.Store
	err error
}

func (s *failWriteStore) NewBatch() kv.Batch { return &failWriteBatch{err: s.err} }

type failWriteBatch struct {
	kv.OpBatch
	err error
}

func (b *failWriteBatch) Write() error { return b.err }

// TestSplitBatch pins the cross-child rule: sub-batches commit in ascending
// child index, so a failure at child i leaves children < i committed and
// children >= i untouched; and Replay keeps the caller's op order, not the
// per-child grouping.
func TestSplitBatch(t *testing.T) {
	const k, failing = 5, 2
	boom := errors.New("injected commit failure")
	children := memChildren(k)
	children[failing] = &failWriteStore{Store: children[failing], err: boom}
	pick := byHash(k)
	c := newCore(children, pick)
	defer c.Close()

	b := c.NewBatch()
	var ops []string
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("sb/%03d", i))
		if i%7 == 3 {
			b.Delete(key)
			ops = append(ops, "del "+string(key))
		} else {
			b.Put(key, []byte("v"))
			ops = append(ops, "put "+string(key))
		}
	}
	var replayed recorder
	if err := b.Replay(&replayed); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(replayed.ops) != fmt.Sprint(ops) {
		t.Fatal("Replay did not keep insertion order")
	}

	err := b.Write()
	if !errors.Is(err, boom) || err.Error() != "child 02: "+boom.Error() {
		t.Fatalf("Write = %v, want the injected failure named after child 02", err)
	}
	for i := 0; i < 200; i++ {
		if i%7 == 3 {
			continue
		}
		key := []byte(fmt.Sprintf("sb/%03d", i))
		at := pick(key)
		if ok, _ := children[at].Has(key); ok != (at < failing) {
			t.Fatalf("key %s on child %d: present=%v after a failure at child %d", key, at, ok, failing)
		}
	}
}

type recorder struct{ ops []string }

func (r *recorder) Put(key, _ []byte) error { r.ops = append(r.ops, "put "+string(key)); return nil }
func (r *recorder) Delete(key []byte) error { r.ops = append(r.ops, "del "+string(key)); return nil }

// BenchmarkFanoutMerge measures the merged scan over k ordered children:
// pairs/s, and no allocation per pair once the iterator is built.
func BenchmarkFanoutMerge(b *testing.B) {
	for _, k := range []int{2, 5, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			const pairs = 1 << 16
			children := make([]kv.Store, k)
			value := bytes.Repeat([]byte{'v'}, 64)
			for i := range children {
				s := &scriptStore{}
				for j := i; j < pairs; j += k {
					s.pairs = append(s.pairs, pair{fmt.Sprintf("bench/key/%08d", j), string(value)})
				}
				children[i] = s
			}
			c := newCore(children, byHash(k))
			b.ReportAllocs()
			b.ResetTimer()
			it := c.NewIterator(nil, nil)
			for i := 0; i < b.N; i++ {
				if !it.Next() {
					it.Release()
					it = c.NewIterator(nil, nil)
				}
			}
			it.Release()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}
