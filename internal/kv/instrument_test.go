package kv

import (
	"reflect"
	"strings"
	"testing"

	"ethkv/internal/obs"
)

func TestInstrumentNilRegistryIsIdentity(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	if got := Instrument(s, nil); got != Store(s) {
		t.Fatal("nil registry must return the store unchanged")
	}
}

func TestInstrumentRecordsPerOp(t *testing.T) {
	r := obs.NewRegistry()
	s := Instrument(NewMemStore(), r, "store", "mem")
	defer s.Close()

	if err := s.Put([]byte("k"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("absent")); err != ErrNotFound {
		t.Fatalf("Get absent = %v", err)
	}
	if _, err := s.Has([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	it := s.NewIterator(nil, nil)
	for it.Next() {
	}
	it.Release()
	b := s.NewBatch()
	b.Put([]byte("b"), []byte("v"))
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}

	snap := r.Snapshot()
	wantCalls := map[string]uint64{
		"get": 2, "put": 1, "delete": 1, "has": 1, "scan": 1, "batch": 1,
	}
	for op, want := range wantCalls {
		name := obs.Name("ethkv_op_total", "op", op, "store", "mem")
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
		hname := obs.Name("ethkv_op_latency_ns", "op", op, "store", "mem")
		h, ok := snap.Histograms[hname]
		if !ok || h.Count != want {
			t.Errorf("%s count = %d (present=%v), want %d", hname, h.Count, ok, want)
		}
	}
	// ErrNotFound is an answer, not an error.
	errName := obs.Name("ethkv_op_errors_total", "op", "get", "store", "mem")
	if got := snap.Counters[errName]; got != 0 {
		t.Errorf("%s = %d, want 0 (ErrNotFound must not count)", errName, got)
	}
	// Put moved key+value bytes.
	bytesName := obs.Name("ethkv_op_bytes_total", "op", "put", "store", "mem")
	if got := snap.Counters[bytesName]; got != uint64(len("k")+len("value")) {
		t.Errorf("%s = %d", bytesName, got)
	}
}

func TestInstrumentCountsRealErrors(t *testing.T) {
	r := obs.NewRegistry()
	s := Instrument(NewMemStore(), r)
	s.Close()
	if _, err := s.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get on closed = %v", err)
	}
	snap := r.Snapshot()
	if got := snap.Counters[obs.Name("ethkv_op_errors_total", "op", "get")]; got != 1 {
		t.Fatalf("errors counter = %d, want 1", got)
	}
}

func TestInstrumentForwardsStatsAndUnwrap(t *testing.T) {
	r := obs.NewRegistry()
	inner := NewMemStore()
	s := Instrument(inner, r)
	defer s.Close()
	if _, ok := s.(StatsProvider); !ok {
		t.Fatal("instrumented store lost StatsProvider")
	}
	u, ok := s.(interface{ Unwrap() Store })
	if !ok || u.Unwrap() != Store(inner) {
		t.Fatal("Unwrap does not expose the inner store")
	}
}

func TestRegisterStatsMetrics(t *testing.T) {
	r := obs.NewRegistry()
	s := NewMemStore() // no StatsProvider: registration must be a no-op
	defer s.Close()
	RegisterStatsMetrics(r, nil)

	fake := fakeStats{Stats{Gets: 7, PhysicalBytesWrite: 100, LogicalBytesWritten: 50}}
	RegisterStatsMetrics(r, fake, "store", "fake")
	snap := r.Snapshot()
	if got := snap.Gauges[obs.Name("ethkv_store_gets", "store", "fake")]; got != 7 {
		t.Fatalf("gets gauge = %v", got)
	}
	if got := snap.Gauges[obs.Name("ethkv_store_write_amplification", "store", "fake")]; got != 2 {
		t.Fatalf("write amp gauge = %v", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `ethkv_store_gets{store="fake"} 7`) {
		t.Fatalf("exposition missing stats gauge:\n%s", b.String())
	}

	// The exported set: one gauge per counter, named as below and reading
	// that field, plus the three derived ratios.
	counters := map[string]string{
		"gets": "Gets", "puts": "Puts", "deletes": "Deletes", "scans": "Scans",
		"logical_bytes_read": "LogicalBytesRead", "logical_bytes_written": "LogicalBytesWritten",
		"physical_bytes_read": "PhysicalBytesRead", "physical_bytes_written": "PhysicalBytesWrite",
		"compactions": "CompactionCount", "tombstones_live": "TombstonesLive",
		"flushes": "FlushCount", "write_stalls": "WriteStalls", "write_stall_nanos": "WriteStallNanos",
		"write_stall_queue_nanos": "WriteStallQueueNanos", "write_stall_l0_nanos": "WriteStallL0Nanos",
		"flush_table_nanos": "FlushTableNanos", "manifest_nanos": "ManifestNanos",
		"io_retries": "IORetries", "degraded": "Degraded",
		"wal_syncs": "WALSyncs", "wal_sync_nanos": "WALSyncNanos",
		"wal_shared_commits": "WALSharedCommits", "manifest_writes": "ManifestWrites",
		"block_cache_hits": "BlockCacheHits", "block_cache_misses": "BlockCacheMisses",
		"block_cache_evictions": "BlockCacheEvictions", "block_cache_pinned_bytes": "BlockCachePinnedBytes",
		"bloom_negatives": "BloomNegatives", "bloom_false_positives": "BloomFalsePositives",
		"physical_read_ops": "PhysicalReadOps",
		"live_data_bytes":   "LiveDataBytes", "dead_data_bytes": "DeadDataBytes",
		"compaction_rewrites": "CompactionRewrites", "sub_compactions": "SubCompactions",
		"compaction_parallel_nanos":  "CompactionParallelNanos",
		"max_concurrent_compactions": "MaxConcurrentCompactions",
		"compaction_debt_peak_bytes": "CompactionDebtPeak",
		"trivial_moves":              "TrivialMoves", "trivial_move_bytes": "TrivialMoveBytes",
	}
	var all Stats
	av := reflect.ValueOf(&all).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(uint64(i + 1))
	}
	want := map[string]float64{
		"write_amplification":  all.WriteAmplification(),
		"read_amplification":   all.ReadAmplification(),
		"block_cache_hit_rate": all.BlockCacheHitRate(),
	}
	for name, field := range counters {
		want[name] = float64(av.FieldByName(field).Uint())
	}
	if len(want) != 42 {
		t.Fatalf("expected set has %d names, want 42", len(want))
	}
	r = obs.NewRegistry()
	RegisterStatsMetrics(r, fakeStats{all}, "store", "all")
	gauges := r.Snapshot().Gauges
	for name, v := range want {
		full := obs.Name("ethkv_store_"+name, "store", "all")
		got, ok := gauges[full]
		if !ok {
			t.Errorf("gauge %s not registered", full)
		} else if got != v {
			t.Errorf("gauge %s = %v, want %v", full, got, v)
		}
	}
	if len(gauges) != len(want) {
		t.Errorf("%d gauges registered, want %d", len(gauges), len(want))
	}
}

type fakeStats struct{ s Stats }

func (f fakeStats) Stats() Stats { return f.s }
