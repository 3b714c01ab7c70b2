package kv

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestMemStoreBasic(t *testing.T) {
	s := NewMemStore()
	defer s.Close()

	if _, err := s.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: want ErrNotFound, got %v", err)
	}
	if err := s.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get([]byte("a"))
	if err != nil || string(v) != "1" {
		t.Fatalf("Get a = %q, %v", v, err)
	}
	ok, err := s.Has([]byte("a"))
	if err != nil || !ok {
		t.Fatalf("Has a = %v, %v", ok, err)
	}
	if err := s.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Has([]byte("a")); ok {
		t.Fatal("key survived Delete")
	}
	// Deleting absent keys is not an error.
	if err := s.Delete([]byte("a")); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

func TestMemStoreValueIsolation(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	val := []byte("mutable")
	s.Put([]byte("k"), val)
	val[0] = 'X' // caller mutates its buffer after Put
	got, _ := s.Get([]byte("k"))
	if string(got) != "mutable" {
		t.Fatalf("store aliased caller buffer: %q", got)
	}
	got[0] = 'Y' // caller mutates the returned buffer
	got2, _ := s.Get([]byte("k"))
	if string(got2) != "mutable" {
		t.Fatalf("Get returned aliased buffer: %q", got2)
	}
}

func TestMemStoreIterator(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	for _, k := range []string{"b1", "a2", "a1", "c3", "a3"} {
		s.Put([]byte(k), []byte("v"+k))
	}
	it := s.NewIterator([]byte("a"), nil)
	defer it.Release()
	var got []string
	for it.Next() {
		got = append(got, string(it.Key()))
		if want := "v" + string(it.Key()); string(it.Value()) != want {
			t.Errorf("value for %s = %q, want %q", it.Key(), it.Value(), want)
		}
	}
	want := []string{"a1", "a2", "a3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("prefix scan = %v, want %v", got, want)
	}
	if it.Error() != nil {
		t.Fatal(it.Error())
	}
}

func TestMemStoreIteratorStart(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Put([]byte(fmt.Sprintf("p%d", i)), []byte{byte(i)})
	}
	it := s.NewIterator([]byte("p"), []byte("5"))
	defer it.Release()
	var n int
	for it.Next() {
		if bytes.Compare(it.Key(), []byte("p5")) < 0 {
			t.Errorf("iterator returned key %q below start", it.Key())
		}
		n++
	}
	if n != 5 {
		t.Fatalf("got %d keys from start, want 5", n)
	}
}

// TestMemStoreIteratorFilter checks NewIterator's key selection against a
// brute-force filter, on the edges the first-byte reject must not skip.
func TestMemStoreIteratorFilter(t *testing.T) {
	keys := []string{"", "a", "ab", "abc", "abd", "abcd", "ax", "b", "ba", "h", "h\x00", "h\x00\x01", "hz"}
	s := NewMemStore()
	defer s.Close()
	for _, k := range keys {
		s.Put([]byte(k), []byte("v"+k))
	}
	for _, tc := range []struct {
		name          string
		prefix, start []byte
	}{
		{"nil prefix, nil start", nil, nil},
		{"empty key stored, empty prefix", []byte{}, nil},
		{"key shorter than prefix", []byte("abcde"), nil},
		{"key equal to prefix", []byte("abc"), nil},
		{"keys sharing only the first byte", []byte("ab"), nil},
		{"nil prefix with start", nil, []byte("ab")},
		{"prefix plus start", []byte("ab"), []byte("c")},
		{"prefix plus start past every key", []byte("h"), []byte("zz")},
		{"binary prefix", []byte("h\x00"), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lower := append(append([]byte{}, tc.prefix...), tc.start...)
			var want []string
			for _, k := range keys {
				if bytes.HasPrefix([]byte(k), tc.prefix) && bytes.Compare([]byte(k), lower) >= 0 {
					want = append(want, k)
				}
			}
			sort.Strings(want)
			it := s.NewIterator(tc.prefix, tc.start)
			defer it.Release()
			var got []string
			for it.Next() {
				got = append(got, string(it.Key()))
			}
			if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
				t.Fatalf("NewIterator(%q, %q) = %q, want %q", tc.prefix, tc.start, got, want)
			}
		})
	}
}

func TestMemStoreIteratorBeforeNext(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	s.Put([]byte("k"), []byte("v"))
	it := s.NewIterator(nil, nil)
	defer it.Release()
	if it.Key() != nil || it.Value() != nil {
		t.Fatal("Key/Value before Next must be nil")
	}
}

func TestBatchWrite(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	s.Put([]byte("stale"), []byte("x"))

	b := s.NewBatch()
	b.Put([]byte("k1"), []byte("v1"))
	b.Put([]byte("k2"), []byte("v2"))
	b.Delete([]byte("stale"))
	if b.ValueSize() == 0 {
		t.Fatal("ValueSize should grow with pending ops")
	}
	// Nothing applied before Write.
	if ok, _ := s.Has([]byte("k1")); ok {
		t.Fatal("batch applied before Write")
	}
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get([]byte("k1")); string(v) != "v1" {
		t.Fatalf("k1 = %q", v)
	}
	if ok, _ := s.Has([]byte("stale")); ok {
		t.Fatal("stale survived batch delete")
	}

	b.Reset()
	if b.ValueSize() != 0 {
		t.Fatal("Reset did not clear size")
	}
}

func TestBatchReplay(t *testing.T) {
	src := NewMemStore()
	defer src.Close()
	b := src.NewBatch()
	b.Put([]byte("k"), []byte("v"))
	b.Delete([]byte("gone"))

	dst := NewMemStore()
	defer dst.Close()
	dst.Put([]byte("gone"), []byte("x"))
	if err := b.Replay(dst); err != nil {
		t.Fatal(err)
	}
	if v, _ := dst.Get([]byte("k")); string(v) != "v" {
		t.Fatalf("replayed k = %q", v)
	}
	if ok, _ := dst.Has([]byte("gone")); ok {
		t.Fatal("replay did not delete")
	}
}

func TestClosedStore(t *testing.T) {
	s := NewMemStore()
	s.Close()
	if _, err := s.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after close: %v", err)
	}
	if err := s.Put([]byte("k"), nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close: %v", err)
	}
	if err := s.Delete([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after close: %v", err)
	}
	b := s.NewBatch()
	b.Put([]byte("k"), []byte("v"))
	if err := b.Write(); !errors.Is(err, ErrClosed) {
		t.Errorf("batch Write after close: %v", err)
	}
}

func TestStatsAmplification(t *testing.T) {
	s := Stats{LogicalBytesWritten: 100, PhysicalBytesWrite: 450,
		LogicalBytesRead: 10, PhysicalBytesRead: 25}
	if got := s.WriteAmplification(); got != 4.5 {
		t.Errorf("WriteAmplification = %v, want 4.5", got)
	}
	if got := s.ReadAmplification(); got != 2.5 {
		t.Errorf("ReadAmplification = %v, want 2.5", got)
	}
	var zero Stats
	if zero.WriteAmplification() != 0 || zero.ReadAmplification() != 0 {
		t.Error("zero stats must yield zero amplification")
	}
}

// TestMemStoreModelProperty drives the store with random op sequences and
// compares against a plain map model.
func TestMemStoreModelProperty(t *testing.T) {
	type op struct {
		Key    uint8
		Value  []byte
		Delete bool
	}
	f := func(ops []op) bool {
		s := NewMemStore()
		defer s.Close()
		model := map[string][]byte{}
		for _, o := range ops {
			k := []byte{o.Key}
			if o.Delete {
				s.Delete(k)
				delete(model, string(k))
			} else {
				s.Put(k, o.Value)
				model[string(k)] = append([]byte{}, o.Value...)
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for k, want := range model {
			got, err := s.Get([]byte(k))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("g%d-%d", g, i))
				s.Put(k, k)
				s.Get(k)
				it := s.NewIterator([]byte("g"), nil)
				it.Next()
				it.Release()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// TestStatsMergeCoversEveryField walks kv.Stats with reflection and proves
// Merge carries every counter — the regression guard for the bug class
// where a new Stats field is silently dropped by aggregating wrappers
// (hybrid, lazystore) because a hand-written merge never learned about it.
func TestStatsMergeCoversEveryField(t *testing.T) {
	var src Stats
	sv := reflect.ValueOf(&src).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetUint(1)
	}
	var dst Stats
	dst.Merge(src)
	dv := reflect.ValueOf(dst)
	for i := 0; i < dv.NumField(); i++ {
		if dv.Field(i).Uint() != 1 {
			t.Errorf("Stats.Merge drops field %s", dv.Type().Field(i).Name)
		}
	}
	// MergePhysical must cover exactly the fields Merge covers minus the
	// logical client-side counters.
	logical := map[string]bool{
		"Gets": true, "Puts": true, "Deletes": true, "Scans": true,
		"LogicalBytesRead": true, "LogicalBytesWritten": true,
	}
	var phys Stats
	phys.MergePhysical(src)
	pv := reflect.ValueOf(phys)
	for i := 0; i < pv.NumField(); i++ {
		name := pv.Type().Field(i).Name
		want := uint64(1)
		if logical[name] {
			want = 0
		}
		if pv.Field(i).Uint() != want {
			t.Errorf("Stats.MergePhysical field %s = %d, want %d", name, pv.Field(i).Uint(), want)
		}
	}
	// Merging two nonzero Stats, in either order, sums every counter
	// except the two high-water marks, which take the max.
	peak := map[string]bool{"MaxConcurrentCompactions": true, "CompactionDebtPeak": true}
	fill := func(v uint64) Stats {
		var s Stats
		rv := reflect.ValueOf(&s).Elem()
		for i := 0; i < rv.NumField(); i++ {
			rv.Field(i).SetUint(v)
		}
		return s
	}
	for _, order := range [][2]uint64{{3, 5}, {5, 3}} {
		got := fill(order[0])
		got.Merge(fill(order[1]))
		gv := reflect.ValueOf(got)
		for i := 0; i < gv.NumField(); i++ {
			name := gv.Type().Field(i).Name
			want := uint64(8)
			if peak[name] {
				want = 5
			}
			if gv.Field(i).Uint() != want {
				t.Errorf("merging %d into %d: %s = %d, want %d", order[1], order[0], name, gv.Field(i).Uint(), want)
			}
		}
	}
}
