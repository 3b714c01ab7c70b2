package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestMemStoreIteratorMatchesBruteForce checks the partitioned store's
// scans and Len against a plain map model filtered and sorted by brute
// force, over random keys whose first bytes crowd the partition edges (the
// empty key, 0x00, 0xff) and after overwrites and deletes made through Put,
// Delete and a batch.
func TestMemStoreIteratorMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte{0x00, 0x01, 'h', 'x', 0xfe, 0xff}
	randKey := func(maxLen int) []byte {
		k := make([]byte, rng.Intn(maxLen+1))
		for i := range k {
			k[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return k
	}
	s := NewMemStore()
	defer s.Close()
	model := map[string][]byte{}
	checkLen := func(stage string) {
		t.Helper()
		if got := s.Len(); got != len(model) {
			t.Fatalf("after %s: Len = %d, want %d", stage, got, len(model))
		}
	}

	// Put, with overwrites: the key space is small enough to repeat keys.
	for i := 0; i < 600; i++ {
		k, v := randKey(4), []byte(fmt.Sprintf("put%d", i))
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[string(k)] = v
	}
	if err := s.Put(nil, []byte("empty")); err != nil {
		t.Fatal(err)
	}
	model[""] = []byte("empty")
	checkLen("puts")

	// Delete, present and absent keys alike.
	for i := 0; i < 150; i++ {
		k := randKey(4)
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(model, string(k))
	}
	checkLen("deletes")

	// One batch mixing both, where a later op on a key overrides an
	// earlier one; the empty key goes out and comes back.
	b := s.NewBatch()
	for i := 0; i < 300; i++ {
		k := randKey(4)
		if rng.Intn(3) == 0 {
			b.Delete(k)
			delete(model, string(k))
		} else {
			v := []byte(fmt.Sprintf("batch%d", i))
			b.Put(k, v)
			model[string(k)] = v
		}
	}
	b.Delete(nil)
	b.Put(nil, []byte("empty again"))
	model[""] = []byte("empty again")
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	checkLen("batch")

	scan := func(prefix, start []byte) {
		t.Helper()
		lower := append(append([]byte{}, prefix...), start...)
		var want []string
		for k := range model {
			if bytes.HasPrefix([]byte(k), prefix) && bytes.Compare([]byte(k), lower) >= 0 {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		it := s.NewIterator(prefix, start)
		defer it.Release()
		var got []string
		for it.Next() {
			k := string(it.Key())
			got = append(got, k)
			if !bytes.Equal(it.Value(), model[k]) {
				t.Fatalf("NewIterator(%q, %q): value of %q = %q, want %q", prefix, start, k, it.Value(), model[k])
			}
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
			t.Fatalf("NewIterator(%q, %q) = %q, want %q", prefix, start, got, want)
		}
	}
	longest := []byte{}
	for k := range model {
		if len(k) > len(longest) {
			longest = []byte(k)
		}
	}
	for _, tc := range []struct {
		name          string
		prefix, start []byte
	}{
		{"everything", nil, nil},
		{"empty prefix", []byte{}, nil},
		{"first byte 0x00", []byte{0x00}, nil},
		{"first byte 0xff", []byte{0xff}, nil},
		{"nil prefix, start in another partition", nil, []byte{'h', 'x'}},
		{"nil prefix, start between partitions", nil, []byte{0x80}},
		{"nil prefix, start 0x00", nil, []byte{0x00}},
		{"prefix longer than every key", append(append([]byte{}, longest...), 0x00), nil},
		{"start past the last key", nil, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
		{"prefix with start past its keys", []byte{'h'}, []byte{0xff, 0xff, 0xff, 0xff}},
		{"prefix absent from the store", []byte{0x02}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) { scan(tc.prefix, tc.start) })
	}
	for i := 0; i < 500; i++ {
		var prefix, start []byte
		if rng.Intn(4) > 0 {
			prefix = randKey(3)
		}
		if rng.Intn(2) == 0 {
			start = randKey(3)
		}
		scan(prefix, start)
	}
}

// TestMemStoreConcurrentReadsAndWrites runs Get, Has and NewIterator
// against Put and Batch.Write. Readers probe every partition, most of which
// no writer ever touches: a read path that created a partition under the
// read lock would race with the other readers (caught under -race), and
// leave a partition the check at the end finds.
func TestMemStoreConcurrentReadsAndWrites(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	const writers, readers, rounds, readRounds = 2, 4, 200, 20
	written := func(w int) byte { return 'a' + byte(w) } // each writer's one first byte
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := s.NewBatch()
			for i := 0; i < rounds; i++ {
				k := []byte{written(w), byte(i)}
				if err := s.Put(k, k); err != nil {
					t.Error(err)
					return
				}
				b.Reset()
				b.Put(append(k, 'b'), k)
				b.Delete(k)
				if err := b.Write(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readRounds; i++ {
				for fb := 0; fb < 256; fb += 1 + r {
					k := []byte{byte(fb), byte(i)}
					if _, err := s.Get(k); err != nil && err != ErrNotFound {
						t.Error(err)
						return
					}
					if _, err := s.Has(k[:i%2]); err != nil {
						t.Error(err)
						return
					}
					it := s.NewIterator(k[:1], nil)
					for it.Next() {
					}
					it.Release()
					it = s.NewIterator(nil, k)
					it.Next()
					it.Release()
				}
			}
		}(r)
	}
	wg.Wait()

	if got, want := s.Len(), writers*rounds; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for i, p := range s.parts {
		touched := false
		for w := 0; w < writers; w++ {
			touched = touched || i == part([]byte{written(w)})
		}
		if p != nil && !touched {
			t.Errorf("partition %d exists, but only readers touched it", i)
		}
	}
}

// BenchmarkMemStorePrefixScan times an h-prefix scan returning 10 keys —
// the freezer migration's per-block scan — beside 0 and 200k keys of other
// classes. With one map per first byte the other classes cost nothing.
func BenchmarkMemStorePrefixScan(b *testing.B) {
	for _, others := range []int{0, 200_000} {
		b.Run(fmt.Sprintf("others=%d", others), func(b *testing.B) {
			s := NewMemStore()
			defer s.Close()
			key := make([]byte, 41)
			for i := 0; i < 10; i++ {
				key[0] = 'h'
				binary.BigEndian.PutUint64(key[1:], uint64(i))
				s.Put(key, key[:8])
			}
			classes := []byte("aABcloOSt") // every class but h
			for i := 0; i < others; i++ {
				key[0] = classes[i%len(classes)]
				binary.BigEndian.PutUint64(key[1:], uint64(i))
				s.Put(key, key[:8])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := s.NewIterator([]byte("h"), nil)
				n := 0
				for it.Next() {
					n++
				}
				it.Release()
				if n != 10 {
					b.Fatalf("scan returned %d keys, want 10", n)
				}
			}
		})
	}
}
