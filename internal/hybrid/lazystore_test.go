package hybrid

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ethkv/internal/kv"
)

func newLazy(t *testing.T) (*LazyStore, *kv.MemStore) {
	t.Helper()
	indexed := kv.NewMemStore()
	s := NewLazyStore(indexed)
	t.Cleanup(func() { s.Close() })
	return s, indexed
}

func TestLazyWriteStaysStaged(t *testing.T) {
	s, indexed := newLazy(t)
	s.Put([]byte("never-read"), []byte("v"))
	if s.StagedCount() != 1 {
		t.Fatalf("StagedCount = %d", s.StagedCount())
	}
	// The indexed store must not have paid for the write.
	if ok, _ := indexed.Has([]byte("never-read")); ok {
		t.Fatal("unread key reached the indexed store")
	}
	if s.Promotions() != 0 {
		t.Fatal("promotion without a read")
	}
}

func TestLazyReadPromotes(t *testing.T) {
	s, indexed := newLazy(t)
	s.Put([]byte("hot"), []byte("value"))
	v, err := s.Get([]byte("hot"))
	if err != nil || string(v) != "value" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if s.Promotions() != 1 || s.StagedCount() != 0 {
		t.Fatalf("promotions=%d staged=%d", s.Promotions(), s.StagedCount())
	}
	if ok, _ := indexed.Has([]byte("hot")); !ok {
		t.Fatal("read key not promoted to the indexed store")
	}
	// Second read comes from the indexed store.
	v, err = s.Get([]byte("hot"))
	if err != nil || string(v) != "value" {
		t.Fatalf("second Get = %q, %v", v, err)
	}
	if s.Promotions() != 1 {
		t.Fatal("double promotion")
	}
}

func TestLazyOverwriteShadowsPromoted(t *testing.T) {
	s, _ := newLazy(t)
	s.Put([]byte("k"), []byte("v1"))
	s.Get([]byte("k")) // promote v1
	s.Put([]byte("k"), []byte("v2"))
	v, err := s.Get([]byte("k"))
	if err != nil || string(v) != "v2" {
		t.Fatalf("stale promoted value served: %q, %v", v, err)
	}
}

func TestLazyDelete(t *testing.T) {
	s, _ := newLazy(t)
	s.Put([]byte("staged"), []byte("1"))
	s.Put([]byte("promoted"), []byte("2"))
	s.Get([]byte("promoted"))
	s.Delete([]byte("staged"))
	s.Delete([]byte("promoted"))
	for _, k := range []string{"staged", "promoted"} {
		if _, err := s.Get([]byte(k)); !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("%s survived delete: %v", k, err)
		}
	}
}

func TestLazyHasDoesNotPromote(t *testing.T) {
	s, _ := newLazy(t)
	s.Put([]byte("k"), []byte("v"))
	ok, err := s.Has([]byte("k"))
	if err != nil || !ok {
		t.Fatalf("Has = %v, %v", ok, err)
	}
	if s.Promotions() != 0 {
		t.Fatal("Has promoted")
	}
}

func TestLazyIteratorPromotesPrefix(t *testing.T) {
	s, _ := newLazy(t)
	for i := 0; i < 5; i++ {
		s.Put([]byte(fmt.Sprintf("p%d", i)), []byte("v"))
	}
	s.Put([]byte("q0"), []byte("other"))
	it := s.NewIterator([]byte("p"), nil)
	defer it.Release()
	n := 0
	for it.Next() {
		n++
	}
	if n != 5 {
		t.Fatalf("scan saw %d keys, want 5", n)
	}
	// q0 must remain staged.
	if s.StagedCount() != 1 {
		t.Fatalf("staged = %d after prefix scan", s.StagedCount())
	}
}

// failPutStore is an indexed tier whose next Put fails.
type failPutStore struct {
	kv.Store
	err error
}

func (f *failPutStore) Put(key, value []byte) error {
	if err := f.err; err != nil {
		f.err = nil
		return err
	}
	return f.Store.Put(key, value)
}

// TestLazyScanSurfacesFailedPromotion: a staged pair that cannot be promoted
// stays staged, and the scan that would have omitted it fails instead of
// looking complete; once the indexed tier recovers, the scan sees it.
func TestLazyScanSurfacesFailedPromotion(t *testing.T) {
	boom := errors.New("indexed tier is down")
	s := NewLazyStore(&failPutStore{Store: kv.NewMemStore(), err: boom})
	defer s.Close()
	for i := 0; i < 3; i++ {
		s.Put([]byte(fmt.Sprintf("p%d", i)), []byte("v"))
	}
	it := s.NewIterator([]byte("p"), nil)
	if it.Next() {
		t.Fatalf("scan yielded %q past a failed promotion", it.Key())
	}
	if err := it.Error(); !errors.Is(err, boom) {
		t.Fatalf("Error() = %v, want the promotion failure", err)
	}
	it.Release()
	if s.StagedCount() == 0 {
		t.Fatal("the pair whose promotion failed is no longer staged")
	}

	it = s.NewIterator([]byte("p"), nil)
	defer it.Release()
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Error(); err != nil || n != 3 {
		t.Fatalf("scan after recovery saw %d keys (err %v), want 3", n, err)
	}
}

func TestLazyBatch(t *testing.T) {
	s, _ := newLazy(t)
	b := s.NewBatch()
	b.Put([]byte("k1"), []byte("v1"))
	b.Put([]byte("k2"), []byte("v2"))
	b.Delete([]byte("k1"))
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Has([]byte("k1")); ok {
		t.Fatal("batched delete lost")
	}
	if v, _ := s.Get([]byte("k2")); string(v) != "v2" {
		t.Fatal("batched put lost")
	}
	ms := kv.NewMemStore()
	if err := b.Replay(ms); err != nil {
		t.Fatal(err)
	}
}

func TestLazyModelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s, _ := newLazy(t)
	model := map[string]string{}
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(200))
		switch rng.Intn(10) {
		case 0, 1:
			s.Delete([]byte(k))
			delete(model, k)
		case 2, 3, 4:
			// Read path (promotes).
			v, err := s.Get([]byte(k))
			want, present := model[k]
			if present && (err != nil || string(v) != want) {
				t.Fatalf("Get(%s) = %q, %v; want %q", k, v, err, want)
			}
			if !present && !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("Get(absent %s) = %v", k, err)
			}
		default:
			v := fmt.Sprintf("val-%d", i)
			s.Put([]byte(k), []byte(v))
			model[k] = v
		}
	}
	for k, want := range model {
		v, err := s.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("final Get(%s) = %q, %v; want %q", k, v, err, want)
		}
	}
}

// TestLazySavesIndexWorkOnWriteOnlyWorkload is Finding 3's claim: a
// write-heavy, rarely-read workload should leave most pairs unindexed.
func TestLazySavesIndexWorkOnWriteOnlyWorkload(t *testing.T) {
	s, indexed := newLazy(t)
	for i := 0; i < 10000; i++ {
		s.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("payload"))
	}
	// Read only 5%.
	for i := 0; i < 10000; i += 20 {
		s.Get([]byte(fmt.Sprintf("key-%05d", i)))
	}
	if got := indexed.Len(); got != 500 {
		t.Fatalf("indexed store holds %d keys; only the 500 read keys should promote", got)
	}
	if s.StagedCount() != 9500 {
		t.Fatalf("staged = %d, want 9500", s.StagedCount())
	}
	if s.Promotions() != 500 {
		t.Fatalf("promotions = %d", s.Promotions())
	}
}

func TestLazyStats(t *testing.T) {
	s, _ := newLazy(t)
	s.Put([]byte("abc"), []byte("defgh"))
	s.Get([]byte("abc"))
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.LogicalBytesWritten != 8 || st.LogicalBytesRead != 5 {
		t.Fatalf("byte accounting: %+v", st)
	}
}
