// Package kvtest holds the targeted kv.Store contract checks: point ops,
// empty values, batches, prefix scans, value isolation, concurrent readers,
// use after Close and — for stores with durable state — corruption surfacing
// through a scan. The model-based checks (a seeded workload verified live,
// across a reopen and across a crash) and the table of store compositions
// that runs both are internal/storetest, so behavioural divergence between
// store designs — the thing the ablations measure on purpose — never
// includes accidental semantic differences.
package kvtest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ethkv/internal/kv"
)

// Options unlocks the checks that need a backend's cooperation.
type Options struct {
	// CorruptScan injects corruption into the store's durable state and
	// returns the store to scan (usually a reopen over the damaged files).
	// Backends that set it unlock the scan-surfaces-corruption check: a
	// scan over the returned store must report a non-nil Error() rather
	// than a silently truncated result. Pure in-memory backends, which
	// have no durable state to damage, leave it nil.
	CorruptScan func(t *testing.T, s kv.Store) kv.Store
}

// Factory builds a fresh empty store for one subtest.
type Factory func(t *testing.T) kv.Store

// Run executes the contract checks against stores built by factory.
func Run(t *testing.T, factory Factory, opts Options) {
	t.Run("PutGetDelete", func(t *testing.T) { testPutGetDelete(t, factory) })
	t.Run("EmptyAndAbsent", func(t *testing.T) { testEmptyAndAbsent(t, factory) })
	t.Run("Overwrite", func(t *testing.T) { testOverwrite(t, factory) })
	t.Run("ValueIsolation", func(t *testing.T) { testValueIsolation(t, factory) })
	t.Run("Batch", func(t *testing.T) { testBatch(t, factory) })
	t.Run("BatchReset", func(t *testing.T) { testBatchReset(t, factory) })
	t.Run("IteratorPrefix", func(t *testing.T) { testIteratorPrefix(t, factory) })
	t.Run("EmptyValueRoundTrip", func(t *testing.T) { testEmptyValueRoundTrip(t, factory) })
	t.Run("LargeValues", func(t *testing.T) { testLargeValues(t, factory) })
	t.Run("ConcurrentReaders", func(t *testing.T) { testConcurrentReaders(t, factory) })
	t.Run("UseAfterClose", func(t *testing.T) { testUseAfterClose(t, factory) })
	if opts.CorruptScan != nil {
		t.Run("CorruptScanError", func(t *testing.T) { testCorruptScanError(t, factory, opts) })
	}
}

func testPutGetDelete(t *testing.T, factory Factory) {
	s := factory(t)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, err := s.Get([]byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	ok, err := s.Has([]byte("k"))
	if err != nil || !ok {
		t.Fatalf("Has = %v, %v", ok, err)
	}
	if err := s.Delete([]byte("k")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get([]byte("k")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	// Deleting an absent key must not error.
	if err := s.Delete([]byte("k")); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

func testEmptyAndAbsent(t *testing.T, factory Factory) {
	s := factory(t)
	if _, err := s.Get([]byte("absent")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("absent Get: %v", err)
	}
	if ok, err := s.Has([]byte("absent")); err != nil || ok {
		t.Fatalf("absent Has: %v, %v", ok, err)
	}
	// Empty values are legal and distinct from absence.
	if err := s.Put([]byte("empty"), nil); err != nil {
		t.Fatalf("Put empty: %v", err)
	}
	v, err := s.Get([]byte("empty"))
	if err != nil || len(v) != 0 {
		t.Fatalf("Get empty = %q, %v", v, err)
	}
	if ok, _ := s.Has([]byte("empty")); !ok {
		t.Fatal("empty value reported absent")
	}
}

// testLargeValues: values of 1–8 KiB — the sizes an LSM separates into blob
// files — round-trip through puts, a batch of overwrites and deletes, Get
// and a scan, before and after a flush, in numbers that fill the write
// buffer of small configurations.
func testLargeValues(t *testing.T, factory Factory) {
	s := factory(t)
	value := func(i, gen int) []byte {
		v := bytes.Repeat([]byte{byte('a' + (i+gen)%26)}, 1<<10+(i*523)%(7<<10))
		copy(v, fmt.Sprintf("%d/%d/", gen, i))
		return v
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("big-%03d", i)) }
	want := map[string][]byte{}
	for i := 0; i < 64; i++ {
		if err := s.Put(key(i), value(i, 0)); err != nil {
			t.Fatal(err)
		}
		want[string(key(i))] = value(i, 0)
	}
	b := s.NewBatch()
	for i := 0; i < 64; i += 2 {
		b.Put(key(i), value(i, 1))
		want[string(key(i))] = value(i, 1)
	}
	for i := 1; i < 64; i += 8 {
		b.Delete(key(i))
		delete(want, string(key(i)))
	}
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for i := 0; i < 64; i++ {
			v, err := s.Get(key(i))
			w, ok := want[string(key(i))]
			if ok && (err != nil || !bytes.Equal(v, w)) || !ok && !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("%s: Get(%s) = %d bytes, %v; want %d bytes (present %v)", when, key(i), len(v), err, len(w), ok)
			}
		}
		it := s.NewIterator([]byte("big-"), nil)
		defer it.Release()
		n := 0
		for it.Next() {
			if w, ok := want[string(it.Key())]; !ok || !bytes.Equal(it.Value(), w) {
				t.Fatalf("%s: scan %s = %d bytes, want %d (present %v)", when, it.Key(), len(it.Value()), len(w), ok)
			}
			n++
		}
		if err := it.Error(); err != nil || n != len(want) {
			t.Fatalf("%s: scan %d of %d pairs, err %v", when, n, len(want), err)
		}
	}
	check("live")
	if err := kv.Flush(s); err != nil {
		t.Fatal(err)
	}
	check("flushed")
}

func testOverwrite(t *testing.T, factory Factory) {
	s := factory(t)
	s.Put([]byte("k"), []byte("first"))
	s.Put([]byte("k"), []byte("second"))
	v, err := s.Get([]byte("k"))
	if err != nil || string(v) != "second" {
		t.Fatalf("overwrite: %q, %v", v, err)
	}
	// Shrinking overwrite.
	s.Put([]byte("k"), []byte("x"))
	if v, _ := s.Get([]byte("k")); string(v) != "x" {
		t.Fatalf("shrinking overwrite: %q", v)
	}
}

func testValueIsolation(t *testing.T, factory Factory) {
	s := factory(t)
	buf := []byte("mutable")
	s.Put([]byte("k"), buf)
	buf[0] = 'X'
	v, _ := s.Get([]byte("k"))
	if string(v) != "mutable" {
		t.Fatalf("store aliased caller's buffer: %q", v)
	}
	s.Delete([]byte("k"))

	// The read side: whatever Get and an iterator hand out is the caller's
	// to scribble on and to append to. Enough data that small-buffer
	// configurations serve part of it from their files and caches, and a
	// flush where the store has one, so shared cache payloads and read
	// buffers are what is being handed out.
	want := map[string]string{}
	for i := 0; i < 96; i++ {
		k := fmt.Sprintf("iso-%03d", i)
		want[k] = fmt.Sprintf("value-%03d-%s", i, bytes.Repeat([]byte{byte('a' + i%26)}, 90))
		if err := s.Put([]byte(k), []byte(want[k])); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := kv.Flush(s); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] ^= 0xFF
		}
		_ = append(b, "appended past the end"...)
	}
	for pass := 0; pass < 3; pass++ {
		for k, wv := range want {
			v, err := s.Get([]byte(k))
			if err != nil || string(v) != wv {
				t.Fatalf("pass %d: Get(%s) = %q, %v after earlier results were modified", pass, k, v, err)
			}
			scribble(v)
		}
		it := s.NewIterator([]byte("iso-"), nil)
		n := 0
		for it.Next() {
			k, v := it.Key(), it.Value()
			if wv, ok := want[string(k)]; !ok || string(v) != wv {
				t.Fatalf("pass %d: scan yielded %q = %q after earlier results were modified", pass, k, v)
			}
			n++
			scribble(k)
			scribble(v)
		}
		err := it.Error()
		it.Release()
		if err != nil || n != len(want) {
			t.Fatalf("pass %d: scan yielded %d of %d pairs, err %v", pass, n, len(want), err)
		}
	}
}

func testBatch(t *testing.T, factory Factory) {
	s := factory(t)
	s.Put([]byte("victim"), []byte("x"))
	b := s.NewBatch()
	b.Put([]byte("b1"), []byte("v1"))
	b.Put([]byte("b2"), []byte("v2"))
	b.Delete([]byte("victim"))
	if b.ValueSize() <= 0 {
		t.Fatal("ValueSize not accumulating")
	}
	if err := b.Write(); err != nil {
		t.Fatalf("batch Write: %v", err)
	}
	for _, k := range []string{"b1", "b2"} {
		if _, err := s.Get([]byte(k)); err != nil {
			t.Fatalf("batched %s missing: %v", k, err)
		}
	}
	if ok, _ := s.Has([]byte("victim")); ok {
		t.Fatal("batched delete lost")
	}
	// Replay must mirror the batch into any writer.
	mirror := kv.NewMemStore()
	defer mirror.Close()
	if err := b.Replay(mirror); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if v, _ := mirror.Get([]byte("b1")); string(v) != "v1" {
		t.Fatal("replay diverged")
	}
}

func testBatchReset(t *testing.T, factory Factory) {
	s := factory(t)
	b := s.NewBatch()
	b.Put([]byte("gone"), []byte("1"))
	b.Reset()
	if b.ValueSize() != 0 {
		t.Fatal("Reset kept size")
	}
	b.Put([]byte("kept"), []byte("2"))
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Has([]byte("gone")); ok {
		t.Fatal("reset op applied")
	}
	if ok, _ := s.Has([]byte("kept")); !ok {
		t.Fatal("post-reset op lost")
	}
}

func testIteratorPrefix(t *testing.T, factory Factory) {
	s := factory(t)
	for i := 0; i < 20; i++ {
		s.Put([]byte(fmt.Sprintf("p/%02d", i)), []byte{byte(i)})
	}
	s.Put([]byte("q/other"), []byte("x"))

	it := s.NewIterator([]byte("p/"), nil)
	defer it.Release()
	seen := map[string]bool{}
	var last []byte
	for it.Next() {
		key := it.Key()
		if !bytes.HasPrefix(key, []byte("p/")) {
			t.Fatalf("iterator escaped prefix: %q", key)
		}
		if last != nil && bytes.Compare(key, last) <= 0 {
			t.Fatalf("keys not strictly ascending: %q after %q", key, last)
		}
		last = append(last[:0], key...)
		seen[string(key)] = true
	}
	if err := it.Error(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	if len(seen) != 20 {
		t.Fatalf("iterator saw %d keys, want 20", len(seen))
	}
}

// testEmptyValueRoundTrip pins the empty-value-vs-absent-key distinction
// through every surface: point reads, batches, and scans.
func testEmptyValueRoundTrip(t *testing.T, factory Factory) {
	s := factory(t)
	b := s.NewBatch()
	b.Put([]byte("e/batch"), nil)
	b.Put([]byte("e/full"), []byte("data"))
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("e/direct"), []byte{}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"e/batch", "e/direct"} {
		v, err := s.Get([]byte(k))
		if err != nil || len(v) != 0 {
			t.Fatalf("Get(%s) = %q, %v; want empty, nil", k, v, err)
		}
		if ok, err := s.Has([]byte(k)); err != nil || !ok {
			t.Fatalf("Has(%s) = %v, %v; empty value reported absent", k, ok, err)
		}
	}
	it := s.NewIterator([]byte("e/"), nil)
	defer it.Release()
	got := map[string]int{}
	for it.Next() {
		got[string(it.Key())] = len(it.Value())
	}
	if len(got) != 3 {
		t.Fatalf("scan saw %d keys, want 3 (empty values must scan)", len(got))
	}
	if got["e/batch"] != 0 || got["e/direct"] != 0 || got["e/full"] != 4 {
		t.Fatalf("scan value lengths: %v", got)
	}
	// An empty value deleted is absent again.
	if err := s.Delete([]byte("e/batch")); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Has([]byte("e/batch")); ok {
		t.Fatal("deleted empty-value key still present")
	}
}

// testConcurrentReaders hammers point reads while a writer mutates disjoint
// and overlapping keys. Run under -race this is the suite's data-race
// detector for the read path; semantically, readers must only ever observe
// a version some Put actually wrote.
func testConcurrentReaders(t *testing.T, factory Factory) {
	s := factory(t)
	const keys = 64
	for i := 0; i < keys; i++ {
		if err := s.Put(conKey(i), []byte("gen-0")); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 5)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				k := conKey(rng.Intn(keys))
				v, err := s.Get(k)
				if err != nil {
					errc <- fmt.Errorf("concurrent Get(%s): %w", k, err)
					return
				}
				if !bytes.HasPrefix(v, []byte("gen-")) {
					errc <- fmt.Errorf("Get(%s) observed torn value %q", k, v)
					return
				}
				if _, err := s.Has(k); err != nil {
					errc <- fmt.Errorf("concurrent Has(%s): %w", k, err)
					return
				}
			}
		}(r)
	}
	for gen := 1; gen <= 30; gen++ {
		for i := 0; i < keys; i++ {
			if err := s.Put(conKey(i), []byte(fmt.Sprintf("gen-%d", gen))); err != nil {
				t.Fatalf("writer gen %d: %v", gen, err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func conKey(i int) []byte { return []byte(fmt.Sprintf("c/%03d", i)) }

// testUseAfterClose: a closed store refuses every operation with
// kv.ErrClosed — no answers served from what it still holds in memory, no
// write that lands before failing, no scan that yields.
func testUseAfterClose(t *testing.T, factory Factory) {
	s := factory(t)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	refused := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, kv.ErrClosed) {
			t.Errorf("%s after Close = %v, want kv.ErrClosed", op, err)
		}
	}
	_, err := s.Get([]byte("k"))
	refused("Get", err)
	_, err = s.Has([]byte("k"))
	refused("Has", err)
	refused("Put", s.Put([]byte("k2"), []byte("v")))
	refused("Delete", s.Delete([]byte("k")))
	b := s.NewBatch()
	b.Put([]byte("k3"), []byte("v"))
	refused("Batch.Write", b.Write())
	it := s.NewIterator(nil, nil)
	defer it.Release()
	if it.Next() {
		t.Errorf("scan after Close yielded %q", it.Key())
	}
	refused("NewIterator(...).Error()", it.Error())
}

// testCorruptScanError writes enough data to reach durable storage, lets the
// backend damage it (CorruptScan), and asserts a full scan over the damaged
// store reports the corruption through Error(). The silent alternative — a
// clean-looking scan that stops early — is the bug class this check pins:
// callers like state sync and pruning treat a short scan as "no more keys".
func testCorruptScanError(t *testing.T, factory Factory, opts Options) {
	s := factory(t)
	const total = 2000
	for i := 0; i < total; i++ {
		k := []byte(fmt.Sprintf("cs/%05d", i))
		if err := s.Put(k, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}

	s = opts.CorruptScan(t, s)

	it := s.NewIterator([]byte("cs/"), nil)
	defer it.Release()
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Error(); err == nil {
		t.Fatalf("scan over corrupted store: %d/%d keys and Error() == nil; corruption was swallowed", n, total)
	} else {
		t.Logf("scan surfaced corruption after %d/%d keys: %v", n, total, err)
	}
	if n >= total {
		t.Fatalf("scan returned all %d keys from a corrupted store", n)
	}
}

// FailScans wraps s so that every scan of it stops with err after yielding
// `after` pairs — the stub for checking that a wrapper latches and names a
// child's mid-scan failure instead of serving a clean-looking short result.
func FailScans(s kv.Store, after int, err error) kv.Store {
	return &failScanStore{Store: s, after: after, err: err}
}

type failScanStore struct {
	kv.Store
	after int
	err   error
}

func (s *failScanStore) NewIterator(prefix, start []byte) kv.Iterator {
	return &failingIterator{Iterator: s.Store.NewIterator(prefix, start), left: s.after, err: s.err}
}

type failingIterator struct {
	kv.Iterator
	left int // pairs still to yield before failing
	err  error
}

func (it *failingIterator) Next() bool {
	if it.left == 0 {
		return false
	}
	it.left--
	return it.Iterator.Next()
}

func (it *failingIterator) Error() error {
	if it.left == 0 {
		return it.err
	}
	return it.Iterator.Error()
}
