package kv

import (
	"time"

	"ethkv/internal/obs"
)

// MetricsRegistrar is implemented by stores that can export their internal
// state (level shapes, compaction debt, cache hit rates, …) into an obs
// registry. Wrappers delegate to the store they wrap.
type MetricsRegistrar interface {
	RegisterMetrics(r *obs.Registry, labels ...string)
}

// Instrument wraps store so every operation records latency and byte-count
// metrics into r. Series are labelled with op="get|put|delete|has|scan|batch"
// plus any extra label pairs (e.g. store="lsm", trace="cached"):
//
//	ethkv_op_latency_ns{op="get",...}   histogram, nanoseconds per call
//	ethkv_op_total{op="get",...}        counter, calls
//	ethkv_op_errors_total{op="get",...} counter, calls returning an error
//	                                    (ErrNotFound is a result, not an error)
//	ethkv_op_bytes_total{op="get",...}  counter, key+value bytes through the op
//
// A nil registry returns store unchanged: the decorator costs nothing when
// observability is off. The wrapper forwards Stats, Drain, Flush and
// RegisterMetrics to store when it implements them.
func Instrument(store Store, r *obs.Registry, labels ...string) Store {
	if r == nil {
		return store
	}
	is := &instrumentedStore{store: store}
	for i, op := range opNames {
		l := append([]string{"op", op}, labels...)
		is.ops[i] = opMetrics{
			latency: r.Histogram(obs.Name("ethkv_op_latency_ns", l...)),
			calls:   r.Counter(obs.Name("ethkv_op_total", l...)),
			errors:  r.Counter(obs.Name("ethkv_op_errors_total", l...)),
			bytes:   r.Counter(obs.Name("ethkv_op_bytes_total", l...)),
		}
	}
	if reg, ok := store.(MetricsRegistrar); ok {
		reg.RegisterMetrics(r, labels...)
	}
	return is
}

// op indices into instrumentedStore.ops.
const (
	opGet = iota
	opPut
	opDelete
	opHas
	opScan
	opBatch
	opCount
)

var opNames = [opCount]string{"get", "put", "delete", "has", "scan", "batch"}

// opMetrics is the per-operation handle bundle, resolved once at wrap time so
// the hot path never touches the registry lock.
type opMetrics struct {
	latency *obs.Histogram
	calls   *obs.Counter
	errors  *obs.Counter
	bytes   *obs.Counter
}

// observe records one completed call. ErrNotFound and ErrClosed-free results
// count as successes; absence is an answer, not a failure.
func (m *opMetrics) observe(start time.Time, nbytes int, err error) {
	m.latency.Observe(uint64(time.Since(start)))
	m.calls.Inc()
	if nbytes > 0 {
		m.bytes.Add(uint64(nbytes))
	}
	if err != nil && err != ErrNotFound {
		m.errors.Inc()
	}
}

// instrumentedStore decorates a Store with per-op metrics.
type instrumentedStore struct {
	store Store
	ops   [opCount]opMetrics
}

var _ Store = (*instrumentedStore)(nil)
var _ StatsProvider = (*instrumentedStore)(nil)

func (s *instrumentedStore) Get(key []byte) ([]byte, error) {
	start := time.Now()
	v, err := s.store.Get(key)
	s.ops[opGet].observe(start, len(key)+len(v), err)
	return v, err
}

func (s *instrumentedStore) Has(key []byte) (bool, error) {
	start := time.Now()
	ok, err := s.store.Has(key)
	s.ops[opHas].observe(start, len(key), err)
	return ok, err
}

func (s *instrumentedStore) Put(key, value []byte) error {
	start := time.Now()
	err := s.store.Put(key, value)
	s.ops[opPut].observe(start, len(key)+len(value), err)
	return err
}

func (s *instrumentedStore) Delete(key []byte) error {
	start := time.Now()
	err := s.store.Delete(key)
	s.ops[opDelete].observe(start, len(key), err)
	return err
}

// NewIterator records one scan event covering iterator construction; the
// per-entry walk is the caller's loop and is deliberately not intercepted
// (wrapping Next would put a timer call on every entry of every scan).
func (s *instrumentedStore) NewIterator(prefix, start []byte) Iterator {
	t0 := time.Now()
	it := s.store.NewIterator(prefix, start)
	s.ops[opScan].observe(t0, len(prefix)+len(start), it.Error())
	return it
}

// NewBatch returns a batch whose Write is timed as one "batch" op sized at
// the batch's ValueSize.
func (s *instrumentedStore) NewBatch() Batch {
	return &instrumentedBatch{Batch: s.store.NewBatch(), m: &s.ops[opBatch]}
}

func (s *instrumentedStore) Close() error { return s.store.Close() }

// Stats forwards to the wrapped store when it tracks stats.
func (s *instrumentedStore) Stats() Stats {
	if sp, ok := s.store.(StatsProvider); ok {
		return sp.Stats()
	}
	return Stats{}
}

// Drain forwards to the wrapped store when it supports draining.
func (s *instrumentedStore) Drain() error { return Drain(s.store) }

// Flush forwards to the wrapped store when it buffers writes.
func (s *instrumentedStore) Flush() error { return Flush(s.store) }

// Unwrap exposes the underlying store (tests, and callers needing
// backend-specific APIs).
func (s *instrumentedStore) Unwrap() Store { return s.store }

// RegisterStatsMetrics exports every kv.Stats counter of sp as callback
// gauges named ethkv_store_<field>{...labels}, evaluated at scrape/snapshot
// time. Stats() implementations take their own locks, so the callbacks are
// safe from any goroutine.
func RegisterStatsMetrics(r *obs.Registry, sp StatsProvider, labels ...string) {
	if r == nil || sp == nil {
		return
	}
	fields := []struct {
		name string
		get  func(Stats) float64
	}{
		{"gets", func(s Stats) float64 { return float64(s.Gets) }},
		{"puts", func(s Stats) float64 { return float64(s.Puts) }},
		{"deletes", func(s Stats) float64 { return float64(s.Deletes) }},
		{"scans", func(s Stats) float64 { return float64(s.Scans) }},
		{"logical_bytes_read", func(s Stats) float64 { return float64(s.LogicalBytesRead) }},
		{"logical_bytes_written", func(s Stats) float64 { return float64(s.LogicalBytesWritten) }},
		{"physical_bytes_read", func(s Stats) float64 { return float64(s.PhysicalBytesRead) }},
		{"physical_bytes_written", func(s Stats) float64 { return float64(s.PhysicalBytesWrite) }},
		{"compactions", func(s Stats) float64 { return float64(s.CompactionCount) }},
		{"tombstones_live", func(s Stats) float64 { return float64(s.TombstonesLive) }},
		{"flushes", func(s Stats) float64 { return float64(s.FlushCount) }},
		{"write_stalls", func(s Stats) float64 { return float64(s.WriteStalls) }},
		{"write_stall_nanos", func(s Stats) float64 { return float64(s.WriteStallNanos) }},
		{"write_stall_queue_nanos", func(s Stats) float64 { return float64(s.WriteStallQueueNanos) }},
		{"write_stall_l0_nanos", func(s Stats) float64 { return float64(s.WriteStallL0Nanos) }},
		{"flush_table_nanos", func(s Stats) float64 { return float64(s.FlushTableNanos) }},
		{"manifest_nanos", func(s Stats) float64 { return float64(s.ManifestNanos) }},
		{"io_retries", func(s Stats) float64 { return float64(s.IORetries) }},
		{"degraded", func(s Stats) float64 { return float64(s.Degraded) }},
		{"wal_syncs", func(s Stats) float64 { return float64(s.WALSyncs) }},
		{"wal_sync_nanos", func(s Stats) float64 { return float64(s.WALSyncNanos) }},
		{"wal_shared_commits", func(s Stats) float64 { return float64(s.WALSharedCommits) }},
		{"manifest_writes", func(s Stats) float64 { return float64(s.ManifestWrites) }},
		{"block_cache_hits", func(s Stats) float64 { return float64(s.BlockCacheHits) }},
		{"block_cache_misses", func(s Stats) float64 { return float64(s.BlockCacheMisses) }},
		{"block_cache_evictions", func(s Stats) float64 { return float64(s.BlockCacheEvictions) }},
		{"block_cache_pinned_bytes", func(s Stats) float64 { return float64(s.BlockCachePinnedBytes) }},
		{"bloom_negatives", func(s Stats) float64 { return float64(s.BloomNegatives) }},
		{"bloom_false_positives", func(s Stats) float64 { return float64(s.BloomFalsePositives) }},
		{"physical_read_ops", func(s Stats) float64 { return float64(s.PhysicalReadOps) }},
		{"live_data_bytes", func(s Stats) float64 { return float64(s.LiveDataBytes) }},
		{"dead_data_bytes", func(s Stats) float64 { return float64(s.DeadDataBytes) }},
		{"compaction_rewrites", func(s Stats) float64 { return float64(s.CompactionRewrites) }},
		{"sub_compactions", func(s Stats) float64 { return float64(s.SubCompactions) }},
		{"compaction_parallel_nanos", func(s Stats) float64 { return float64(s.CompactionParallelNanos) }},
		{"max_concurrent_compactions", func(s Stats) float64 { return float64(s.MaxConcurrentCompactions) }},
		{"compaction_debt_peak_bytes", func(s Stats) float64 { return float64(s.CompactionDebtPeak) }},
		{"write_amplification", Stats.WriteAmplification},
		{"read_amplification", Stats.ReadAmplification},
		{"block_cache_hit_rate", Stats.BlockCacheHitRate},
	}
	for _, f := range fields {
		get := f.get
		r.GaugeFunc(obs.Name("ethkv_store_"+f.name, labels...), func() float64 {
			return get(sp.Stats())
		})
	}
}

// instrumentedBatch times the commit, not the staging: Put/Delete on a batch
// are memory appends, Write is the real storage operation.
type instrumentedBatch struct {
	Batch
	m *opMetrics
}

func (b *instrumentedBatch) Write() error {
	start := time.Now()
	size := b.ValueSize()
	err := b.Batch.Write()
	b.m.observe(start, size, err)
	return err
}
