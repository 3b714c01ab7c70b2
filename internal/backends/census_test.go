package backends_test

import (
	"bytes"
	"maps"
	"testing"

	"ethkv/internal/backends"
	"ethkv/internal/chain"
	"ethkv/internal/hybrid"
	"ethkv/internal/lab"
	"ethkv/internal/policy"
	"ethkv/internal/report"
	"ethkv/internal/trace"
)

// censusTrace generates the 40-block bare trace, bootstrap included, that
// the census tests replay.
func censusTrace(t *testing.T) []trace.Op {
	t.Helper()
	workload := chain.DefaultWorkload()
	workload.Accounts, workload.Contracts, workload.TxPerBlock = 2000, 200, 60
	res, err := lab.Run(lab.Config{Mode: lab.Bare, Blocks: 40, Workload: workload, TraceBootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Ops
}

// TestDerivedPolicyPinned pins the class -> route map policy.Derive emits
// for the census trace: a change to how the census counts must move no
// class.
func TestDerivedPolicyPinned(t *testing.T) {
	p := policy.Derive(policy.CollectCensus(censusTrace(t)))
	want := map[string]string{
		"BlockBody":            "flat",
		"BlockHeader":          "ordered",
		"BlockReceipts":        "flat",
		"BloomBits":            "flat",
		"BloomBitsIndex":       "flat",
		"Code":                 "flat",
		"DatabaseVersion":      "flat",
		"Ethereum-config":      "flat",
		"Ethereum-genesis":     "flat",
		"HeaderNumber":         "flat",
		"LastBlock":            "flat",
		"LastFast":             "flat",
		"LastHeader":           "flat",
		"LastStateID":          "flat",
		"SkeletonHeader":       "flat",
		"SkeletonSyncStatus":   "flat",
		"SnapshotRecovery":     "flat",
		"SnapshotRoot":         "flat",
		"StateID":              "flat",
		"TransactionIndexTail": "flat",
		"TrieNodeAccount":      "flat",
		"TrieNodeStorage":      "ordered",
		"TxLookup":             "flat",
		"Unclean-shutdown":     "flat",
	}
	if !maps.Equal(p.Classes, want) {
		t.Errorf("derived classes:\n got %v\nwant %v", p.Classes, want)
	}
	if p.Default != "ordered" || len(p.Routes) != 2 {
		t.Errorf("default %q, routes %v", p.Default, p.Routes)
	}
}

// TestCensusInvariantAcrossCompositions replays one generated trace through
// every way the factory composes a store and requires the post-state census
// (Table I plus the order-independent content digest) to be byte-identical:
// backend choice, policy routing, sharding and compaction width may change
// performance, never what the store contains. Every composition must also
// answer a full scan in strictly ascending key order, as kv.Iterator
// promises.
func TestCensusInvariantAcrossCompositions(t *testing.T) {
	ops := censusTrace(t)
	derived := policy.Derive(policy.CollectCensus(ops))

	cases := []struct {
		name string
		kind string
		opts backends.Options
	}{
		{"lsm", "lsm", backends.Options{}},
		{"flat", "flat", backends.Options{}},
		{"hybrid default policy", "hybrid", backends.Options{}},
		{"hybrid derived policy", "hybrid", backends.Options{Policy: derived}},
		{"lsm 1 shard", "lsm", backends.Options{Shards: 1}},
		{"lsm 8 hash shards", "lsm", backends.Options{Shards: 8}},
		{"lsm 1 compaction worker", "lsm", backends.Options{CompactionWorkers: 1}},
		{"lsm 8 compaction workers", "lsm", backends.Options{CompactionWorkers: 8}},
	}
	var want []byte
	for _, tc := range cases {
		st, err := backends.Open(tc.kind, t.TempDir(), tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := hybrid.Replay(st, ops); err != nil {
			t.Fatalf("%s: replay: %v", tc.name, err)
		}
		it := st.NewIterator(nil, nil)
		var last []byte
		steps, inversions := 0, 0
		for ; it.Next(); steps++ {
			if steps > 0 && bytes.Compare(it.Key(), last) <= 0 {
				inversions++
			}
			last = append(last[:0], it.Key()...)
		}
		err = it.Error()
		it.Release()
		if err != nil || inversions != 0 {
			t.Errorf("%s: full scan has %d of %d steps out of ascending order (err %v)", tc.name, inversions, steps, err)
		}
		var census bytes.Buffer
		if err := report.WriteCensus(&census, st); err != nil {
			t.Fatalf("%s: census: %v", tc.name, err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("%s: close: %v", tc.name, err)
		}
		if want == nil {
			want = census.Bytes()
			t.Logf("census under %s:\n%s", tc.name, want)
		} else if !bytes.Equal(census.Bytes(), want) {
			t.Errorf("census under %s differs from %s:\n%s", tc.name, cases[0].name, census.Bytes())
		}
	}
}
