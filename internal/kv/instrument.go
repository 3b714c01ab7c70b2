package kv

import (
	"reflect"
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

// RegisterStatsMetrics exports every kv.Stats counter of sp as a callback
// gauge named ethkv_store_<stat tag>{...labels}, plus the write, read and
// block-cache ratios, evaluated at scrape/snapshot time. Stats()
// implementations take their own locks, so the callbacks are safe from any
// goroutine.
func RegisterStatsMetrics(r *obs.Registry, sp StatsProvider, labels ...string) {
	if r == nil || sp == nil {
		return
	}
	gauge := func(name string, get func(Stats) float64) {
		r.GaugeFunc(obs.Name("ethkv_store_"+name, labels...), func() float64 {
			return get(sp.Stats())
		})
	}
	for i, f := range statFields {
		gauge(f.metric, func(s Stats) float64 { return float64(reflect.ValueOf(s).Field(i).Uint()) })
	}
	gauge("write_amplification", Stats.WriteAmplification)
	gauge("read_amplification", Stats.ReadAmplification)
	gauge("block_cache_hit_rate", Stats.BlockCacheHitRate)
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
