package shard_test

import (
	"bytes"
	"fmt"
	"testing"

	"ethkv/internal/kv"
	"ethkv/internal/shard"
)

// FuzzShardRouting feeds arbitrary key material through the router and
// checks the three properties sharding stands on:
//
//  1. Determinism: two router instances with the same configuration route
//     every key to the same shard.
//  2. Total, disjoint partition: after inserting through the router, each
//     key is present in exactly one child — the one ChildOf names.
//  3. Merge fidelity: a merged scan returns exactly the oracle's key set —
//     no drops, no duplicates — for full scans and for prefix scans.
func FuzzShardRouting(f *testing.F) {
	f.Add([]byte("hello\x00world\x01akey\x02Okey"), uint8(3))
	f.Add([]byte{'a', 1, 2, 3, 0xFF, 'O', 9, 9}, uint8(7))
	f.Add([]byte(""), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, nShards uint8) {
		n := int(nShards%16) + 1
		build := func() *shard.Router {
			children := make([]kv.Store, n)
			for i := range children {
				children[i] = kv.NewMemStore()
			}
			r, err := shard.New(children, shard.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		ra, rb := build(), build()
		defer ra.Close()
		defer rb.Close()

		// Chop the fuzz payload into variable-length keys: the byte at the
		// cursor picks the next key's length, so the corpus explores both
		// short schema-like keys and long hash-like ones.
		var keys [][]byte
		for off := 0; off < len(data); {
			kl := int(data[off])%40 + 1
			off++
			end := off + kl
			if end > len(data) {
				end = len(data)
			}
			if end > off {
				keys = append(keys, data[off:end])
			}
			off = end
		}

		oracle := kv.NewMemStore()
		defer oracle.Close()
		for i, k := range keys {
			sa, sb := ra.ChildOf(k), rb.ChildOf(k)
			if sa != sb {
				t.Fatalf("routing nondeterministic for %x: %d vs %d", k, sa, sb)
			}
			if sa < 0 || sa >= n {
				t.Fatalf("shard %d out of range [0,%d) for %x", sa, n, k)
			}
			v := []byte(fmt.Sprintf("v%d", i))
			if err := ra.Put(k, v); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}

		// Partition check: each distinct key lives in exactly one child.
		for _, k := range keys {
			owner := ra.ChildOf(k)
			holders := 0
			for s := 0; s < ra.Shards(); s++ {
				ok, err := ra.Child(s).Has(k)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					holders++
					if s != owner {
						t.Fatalf("key %x held by shard %d, routed to %d", k, s, owner)
					}
				}
			}
			if holders != 1 {
				t.Fatalf("key %x held by %d shards, want exactly 1", k, holders)
			}
		}

		// Merge fidelity versus the single-store oracle.
		checkScan := func(prefix []byte) {
			want := map[string]string{}
			oit := oracle.NewIterator(prefix, nil)
			for oit.Next() {
				want[string(oit.Key())] = string(oit.Value())
			}
			oit.Release()

			got := map[string]string{}
			it := ra.NewIterator(prefix, nil)
			var last []byte
			for it.Next() {
				if last != nil && bytes.Compare(it.Key(), last) <= 0 {
					t.Fatalf("merged scan(%x) not strictly ascending: %x after %x", prefix, it.Key(), last)
				}
				last = append(last[:0], it.Key()...)
				if _, dup := got[string(it.Key())]; dup {
					t.Fatalf("merged scan(%x) yielded %x twice", prefix, it.Key())
				}
				got[string(it.Key())] = string(it.Value())
			}
			if err := it.Error(); err != nil {
				t.Fatal(err)
			}
			it.Release()
			if len(got) != len(want) {
				t.Fatalf("merged scan(%x) saw %d keys, oracle has %d", prefix, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("merged scan(%x)[%x] = %q, oracle %q", prefix, k, got[k], v)
				}
			}
		}
		checkScan(nil)
		if len(keys) > 0 {
			checkScan(keys[0][:1])
		}
	})
}
