package shard_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ethkv/internal/hybrid"
	"ethkv/internal/kv"
	"ethkv/internal/kv/kvtest"
	"ethkv/internal/rawdb"
	"ethkv/internal/shard"
)

// TestMergedScanErrorNamesTheChild: a child whose scan fails at entry j
// latches the merged scan — Next goes false and stays false, nothing past
// the failure is yielded — and Error names the failing child by what it is
// (a route name, a shard number), not by its position among the scan's
// candidates.
func TestMergedScanErrorNamesTheChild(t *testing.T) {
	boom := errors.New("injected scan failure")
	var h rawdb.Hash
	codeKey := func(i int) []byte { h[0], h[1] = byte(i>>8), byte(i); return rawdb.CodeKey(h) }

	// built is a store one of whose children fails its scans after a given
	// number of pairs, loaded with keys.
	type built struct {
		store  kv.Store
		prefix []byte                // the scan to run
		keys   [][]byte              // what it would yield, in order, were it to finish
		owner  func(key []byte) bool // whether the failing child holds key
	}
	cases := []struct {
		name  string
		label string
		build func(after int) built
	}{
		{
			// Routes a (default), b, c; a Code-prefix scan visits only a
			// and c, so c is candidate 1 but backend 2 — and "route c".
			name: "hybrid 3 routes", label: "route c: ",
			build: func(after int) built {
				a, b, c := kv.NewMemStore(), kv.NewMemStore(), kv.NewMemStore()
				s, err := hybrid.NewRouted([]hybrid.Backend{
					{Name: "a", Store: a}, {Name: "b", Store: b},
					{Name: "c", Store: kvtest.FailScans(c, after, boom)},
				}, map[rawdb.Class]int{rawdb.ClassTxLookup: 1, rawdb.ClassCode: 2}, 0)
				if err != nil {
					t.Fatal(err)
				}
				out := built{store: s, prefix: codeKey(0)[:1]}
				for i := 0; i < 40; i++ {
					key := codeKey(i)
					// Odd keys are planted on the default route, which a
					// scan must also visit, so the merge has two live
					// children to interleave.
					if i%2 == 1 {
						a.Put(key, []byte("v"))
					} else {
						s.Put(key, []byte("v"))
					}
					out.keys = append(out.keys, key)
				}
				out.owner = func(key []byte) bool { ok, _ := c.Has(key); return ok }
				return out
			},
		},
		{
			name: "router 4 shards", label: "shard 02: ",
			build: func(after int) built {
				children := []kv.Store{kv.NewMemStore(), kv.NewMemStore(), kv.NewMemStore(), kv.NewMemStore()}
				failing := children[2]
				children[2] = kvtest.FailScans(failing, after, boom)
				r, err := shard.New(children, shard.Options{})
				if err != nil {
					t.Fatal(err)
				}
				out := built{store: r, prefix: []byte("se/")}
				for i := 0; i < 80; i++ {
					key := []byte(fmt.Sprintf("se/%03d", i))
					r.Put(key, []byte("v"))
					out.keys = append(out.keys, key)
				}
				out.owner = func(key []byte) bool { ok, _ := failing.Has(key); return ok }
				return out
			},
		},
	}
	for _, tc := range cases {
		for _, after := range []int{0, 1, 5} {
			t.Run(fmt.Sprintf("%s/fail at %d", tc.name, after), func(t *testing.T) {
				b := tc.build(after)
				defer b.store.Close()
				// The scan must yield exactly the keys up to the failing
				// child's last good one: the merge only learns of the
				// failure when it steps that child past it.
				var want []string
				owned := 0
				for _, key := range b.keys {
					if after == 0 {
						break
					}
					want = append(want, string(key))
					if b.owner(key) {
						if owned++; owned == after {
							break
						}
					}
				}
				it := b.store.NewIterator(b.prefix, nil)
				var got []string
				for it.Next() {
					got = append(got, string(it.Key()))
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("scan yielded %d keys, want the %d before the failure", len(got), len(want))
				}
				for i := 0; i < 2; i++ {
					if it.Next() {
						t.Fatalf("Next came back true after the failure, yielding %x", it.Key())
					}
					err := it.Error()
					if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), tc.label) {
						t.Fatalf("Error() = %v, want the injected failure under %q", err, tc.label)
					}
					it.Release() // idempotent, and keeps the latched error
				}
			})
		}
	}
}
