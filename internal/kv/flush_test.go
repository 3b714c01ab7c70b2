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

// TestInstrumentedLSMExportsNoRetiredCounters: the Stats counters retired
// at 0 (sub-compactions, compaction overlap) export no ethkv_store_* series,
// while a live counter beside them still does.
func TestInstrumentedLSMExportsNoRetiredCounters(t *testing.T) {
	db, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reg := obs.NewRegistry()
	kv.Instrument(db, reg, "store", "lsm")
	gauges := reg.Snapshot().Gauges
	if _, ok := gauges[obs.Name("ethkv_store_compactions", "store", "lsm")]; !ok {
		t.Fatal("ethkv_store_compactions not exported")
	}
	for _, name := range []string{"sub_compactions", "compaction_parallel_nanos", "max_concurrent_compactions"} {
		if _, ok := gauges[obs.Name("ethkv_store_"+name, "store", "lsm")]; ok {
			t.Errorf("retired counter exported as ethkv_store_%s", name)
		}
	}
}
