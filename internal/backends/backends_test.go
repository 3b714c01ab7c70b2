package backends_test

import (
	"strings"
	"testing"

	"ethkv/internal/backends"
	"ethkv/internal/kv"
	"ethkv/internal/obs"
	"ethkv/internal/policy"
	"ethkv/internal/rawdb"
	"ethkv/internal/storetest"
)

// TestHybridConformance runs storetest's row for the factory's hybrid kind —
// including the reopen ending, the check that would have caught the
// in-memory log route (log-routed classes vanishing on reopen).
func TestHybridConformance(t *testing.T)        { storetest.Run(t, "hybrid") }
func TestPolicyHybridConformance(t *testing.T)  { storetest.Run(t, "hybrid/derived") }
func TestShardedHybridConformance(t *testing.T) { storetest.Run(t, "shards=3/hybrid") }

// TestLazyKindRejected: the lazy kind kept its staged writes in memory, so a
// key written and never read was gone after Close and reopen. It is not a
// factory kind; hybrid.LazyStore stays Finding 3's in-memory ablation.
func TestLazyKindRejected(t *testing.T) {
	s, err := backends.Open("lazy", t.TempDir(), backends.Options{})
	if err == nil {
		s.Close()
		t.Fatal(`Open("lazy") succeeded`)
	}
	if !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf(`Open("lazy") = %v, want an unknown-backend error`, err)
	}
}

// TestHybridClassKeysSurviveReopen is the targeted regression for the
// durability bug: log-routed classes (TxLookup, BlockBody, BlockReceipts)
// must survive a close/reopen cycle of the factory's hybrid kind, exactly
// like the ordered- and point-routed classes.
func TestHybridClassKeysSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := backends.Open("hybrid", dir, backends.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var h rawdb.Hash
	h[0] = 7
	keys := map[string][]byte{
		"TxLookup (flat route)":      rawdb.TxLookupKey(h),
		"BlockBody (flat route)":     rawdb.BlockBodyKey(1, h),
		"BlockReceipts (flat route)": rawdb.BlockReceiptsKey(1, h),
		"Code (flat route)":          rawdb.CodeKey(h),
		"TrieNodeAccount (flat)":     rawdb.AccountTrieNodeKey([]byte{1, 2}),
		"SnapshotAccount (ordered)":  rawdb.SnapshotAccountKey(h),
		"LastHeader (singleton)":     rawdb.LastHeaderKey(),
	}
	for name, key := range keys {
		if err := s.Put(key, []byte(name)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := backends.Open("hybrid", dir, backends.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for name, key := range keys {
		v, err := re.Get(key)
		if err != nil {
			t.Errorf("%s vanished on reopen: %v", name, err)
			continue
		}
		if string(v) != name {
			t.Errorf("%s corrupted on reopen: %q", name, v)
		}
	}
}

// TestReopenUnderOtherRoutesRefused is the regression for a reopen that
// silently hid data: a hybrid opened only the routes its policy names, so
// reopening a directory under a policy lacking one of its route directories
// made every key stored there vanish from Get and scans. The open must fail
// and name the stray directory.
func TestReopenUnderOtherRoutesRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := backends.Open("hybrid", dir, backends.Options{Policy: storetest.DerivedPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	var h rawdb.Hash
	h[0] = 9
	if err := s.Put(rawdb.TxLookupKey(h), []byte("v")); err != nil { // the lsm-compact route
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := backends.Open("hybrid", dir, backends.Options{Policy: backends.DefaultHybridPolicy()})
	if err == nil {
		_, getErr := re.Get(rawdb.TxLookupKey(h))
		re.Close()
		t.Fatalf("reopen under a policy without route lsm-compact succeeded (Get: %v)", getErr)
	}
	if !strings.Contains(err.Error(), "lsm-compact") {
		t.Fatalf("reopen error %q does not name the stray directory lsm-compact", err)
	}
}

func TestPolicyUnknownOptionRejected(t *testing.T) {
	p := &policy.Policy{
		Default: "o",
		Routes: map[string]policy.Spec{
			"o": {Kind: "lsm", Options: map[string]int64{"memtable_gb": 1}},
		},
		Classes: map[string]string{},
	}
	if _, err := backends.Open("hybrid", t.TempDir(), backends.Options{Policy: p}); err == nil {
		t.Fatal("unknown lsm option accepted")
	}
}

// TestShardedPolicyHybrid checks the hybrid kind composes with -shards:
// each shard is its own policy-instantiated hybrid.
func TestShardedPolicyHybrid(t *testing.T) {
	dir := t.TempDir()
	s, err := backends.Open("hybrid", dir, backends.Options{Policy: storetest.DerivedPolicy(), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var h rawdb.Hash
	for i := 0; i < 50; i++ {
		h[0], h[1] = byte(i), 0xEE
		if err := s.Put(rawdb.TxLookupKey(h), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := backends.Open("hybrid", dir, backends.Options{Policy: storetest.DerivedPolicy(), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 50; i++ {
		h[0], h[1] = byte(i), 0xEE
		v, err := re.Get(rawdb.TxLookupKey(h))
		if err != nil || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("key %d after sharded reopen: %q, %v", i, v, err)
		}
	}
}

// TestShardedStoreExportsStoreMetrics: instrumenting the canonical
// shard -> hybrid -> backends stack registers the store series of every
// (shard, route) leaf — a sharded store used to register none — and what
// they report adds up to the router's own merged counters.
func TestShardedStoreExportsStoreMetrics(t *testing.T) {
	raw, err := backends.Open("hybrid", t.TempDir(), backends.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := kv.Instrument(raw, reg, "store", "hybrid")
	defer s.Close()

	var h rawdb.Hash
	for i := 0; i < 64; i++ {
		h[0] = byte(i)
		for _, key := range [][]byte{rawdb.TxLookupKey(h), rawdb.CodeKey(h), rawdb.SnapshotAccountKey(h)} {
			if err := s.Put(key, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(key); err != nil {
				t.Fatal(err)
			}
		}
	}

	gauges := reg.Snapshot().Gauges
	var sum float64
	for _, shard := range []string{"00", "01"} {
		for route := range backends.DefaultHybridPolicy().Routes {
			name := obs.Name("ethkv_store_gets", "route", route, "shard", shard, "store", "hybrid")
			v, ok := gauges[name]
			if !ok {
				t.Fatalf("no %s in the registry", name)
			}
			sum += v
		}
	}
	if want := raw.(kv.StatsProvider).Stats().Gets; sum != float64(want) || want != 3*64 {
		t.Fatalf("per-leaf ethkv_store_gets sum to %v, the router counts %d, want both %d", sum, want, 3*64)
	}
}
