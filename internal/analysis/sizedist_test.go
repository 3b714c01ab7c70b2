package analysis_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"ethkv/internal/analysis"
	"ethkv/internal/chain"
	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
)

// TestCollectSizeDistMatchesFullScan: the census, taken one first byte at a
// time, equals the census of one full scan over a generated 60-block chain
// store — with the empty key and keys at both ends of the first-byte range
// added, since those are where a per-byte walk could miss a pair.
func TestCollectSizeDistMatchesFullScan(t *testing.T) {
	store := kv.NewMemStore()
	defer store.Close()
	workload := chain.DefaultWorkload()
	workload.Accounts = 2000
	workload.Contracts = 200
	workload.TxPerBlock = 40
	genesis, err := (&chain.Genesis{Config: workload}).Commit(store)
	if err != nil {
		t.Fatal(err)
	}
	freezer, err := rawdb.OpenFreezer(filepath.Join(t.TempDir(), "ancient"))
	if err != nil {
		t.Fatal(err)
	}
	defer freezer.Close()
	proc, err := chain.NewProcessor(store, freezer, genesis, chain.NewWorkload(workload), chain.DefaultProcessorConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.ImportBlocks(60); err != nil {
		t.Fatal(err)
	}
	if err := proc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]string{
		"":             "empty key",
		"\x00":         "",
		"\x00\x00tail": "zero class",
		"\xff":         "top",
		"\xff\xffend":  "top class",
	} {
		if err := store.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}

	want := &analysis.SizeDist{}
	it := store.NewIterator(nil, nil)
	for it.Next() {
		want.Observe(it.Key(), it.Value())
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	it.Release()
	if want.Total < 10000 || want.Unknown < 5 {
		t.Fatalf("full scan saw %d pairs, %d unknown: the generated store is too small", want.Total, want.Unknown)
	}

	got, err := analysis.CollectSizeDist(store)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("per-byte census differs from the full scan: %d pairs, %d unknown; want %d, %d",
			got.Total, got.Unknown, want.Total, want.Unknown)
	}
}
