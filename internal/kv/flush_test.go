package kv_test

import (
	"testing"

	"ethkv/internal/kv"
	"ethkv/internal/lsm"
	"ethkv/internal/obs"
)

// TestInstrumentForwardsFlush: kv.Flush through the metrics decorator
// reaches the wrapped LSM and flushes its memtable.
func TestInstrumentForwardsFlush(t *testing.T) {
	db, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := kv.Instrument(db, obs.NewRegistry(), "store", "lsm")
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().FlushCount
	if err := kv.Flush(s); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().FlushCount; got <= before {
		t.Fatalf("FlushCount = %d after kv.Flush, want > %d", got, before)
	}
}
