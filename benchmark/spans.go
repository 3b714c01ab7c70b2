package main

// spans.go is the traced run's instrument: a kv.Store decorator placed, from
// the benchmark's own files, at every layer boundary a public constructor
// lets it reach. (kv.Instrument is not used: it keeps log2 buckets, and the
// self-time arithmetic here needs each call's start and end.)

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"ethkv/internal/kv"
)

type seam uint8

const (
	seamClient      seam = iota // the benchmark's calls into the front store
	seamServerStore             // the store handed to kvnet.NewServer
	seamShardChild              // each child of the shard router
	seamFS                      // the LSM's filesystem (blockbatch_wal_lsm)
	numSeams
)

var seamNames = [numSeams]string{"client", "server_store", "shard_child", "fs"}

type spanOp uint8

const (
	opGet spanOp = iota
	opPut
	opDelete
	opBatch // Batch.Write
	opScan  // an iterator with a prefix, from creation to Release
	opSweep // an iterator over everything
	opSync  // fs seam
	opWrite // fs seam
	numOps
)

var opNames = [numOps]string{"get", "put", "delete", "batch", "scan", "sweep", "sync", "write"}

// span is one call through a seam. Its parent is the enclosing seam by
// construction: client > server_store > shard_child, and fs under the LSM.
type span struct {
	start int64 // ns since the recorder's epoch
	end   int64
	busy  int64 // ns inside the layer: end-start, except for iterators
	items int32 // pairs returned (iterators) or bytes (fs writes)
	id    int16 // client id at the client seam, child index at shard_child
	seam  seam
	op    spanOp
}

// recorder holds the run's spans in memory it allocated before the timed
// phase. Totals are kept apart from the span array, so self times stay exact
// even if a run outgrows the array.
type recorder struct {
	epoch time.Time
	spans []span
	next  atomic.Int64
	off   atomic.Bool

	total [numSeams][numOps]struct {
		count, busy, items atomic.Int64
	}
}

// maxSpans bounds the span array (40 bytes each).
const maxSpans = 6 << 20

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, maxSpans)}
}

// stop ends recording; later calls through the seams leave no trace.
func (r *recorder) stop() { r.off.Store(true) }

func (r *recorder) record(s seam, op spanOp, id int, start, end time.Time, busy time.Duration, items int) {
	if r.off.Load() {
		return
	}
	t := &r.total[s][op]
	t.count.Add(1)
	t.busy.Add(int64(busy))
	t.items.Add(int64(items))
	if i := r.next.Add(1) - 1; i < int64(len(r.spans)) {
		r.spans[i] = span{
			start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch)),
			busy: int64(busy), items: int32(items), id: int16(id), seam: s, op: op,
		}
	}
}

// reset forgets everything recorded so far (the preload's spans).
func (r *recorder) reset() {
	r.next.Store(0)
	for s := range r.total {
		for op := range r.total[s] {
			t := &r.total[s][op]
			t.count.Store(0)
			t.busy.Store(0)
			t.items.Store(0)
		}
	}
}

func (r *recorder) recorded() []span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// busyNs is the total time spent inside seam s, optionally for some ops only.
func (r *recorder) busyNs(s seam, ops ...spanOp) int64 {
	var sum int64
	if len(ops) == 0 {
		for op := range r.total[s] {
			sum += r.total[s][op].busy.Load()
		}
		return sum
	}
	for _, op := range ops {
		sum += r.total[s][op].busy.Load()
	}
	return sum
}

func (r *recorder) count(s seam, op spanOp) int64 { return r.total[s][op].count.Load() }
func (r *recorder) items(s seam, op spanOp) int64 { return r.total[s][op].items.Load() }

// seamRow is one line of the per-(seam, op) table.
type seamRow struct {
	seam, op     string
	count        int64
	totalMs      float64
	p50us, p99us float64
}

func (r *recorder) table() []seamRow {
	var samples [numSeams][numOps][]uint32
	for _, sp := range r.recorded() {
		samples[sp.seam][sp.op] = append(samples[sp.seam][sp.op], clampNs(sp.busy))
	}
	var rows []seamRow
	for s := seam(0); s < numSeams; s++ {
		for op := spanOp(0); op < numOps; op++ {
			n := r.count(s, op)
			if n == 0 {
				continue
			}
			rows = append(rows, seamRow{
				seam: seamNames[s], op: opNames[op], count: n,
				totalMs: float64(r.busyNs(s, op)) / 1e6,
				p50us:   percentileUs(samples[s][op], 0.50),
				p99us:   percentileUs(samples[s][op], 0.99),
			})
		}
	}
	return rows
}

// selfTimes applies the seam arithmetic: a layer's self time is the time
// inside its seam minus the time inside the seam directly below it.
type selfTimes struct {
	kvnetNs  int64 // client - server_store (0 when nothing is served)
	shardNs  int64 // (server_store, else client) - sum of shard_child
	hybridNs int64 // shard_child: routing plus the backends below it
}

func selfTimeOf(clientNs, serverNs, childNs int64, served, sharded bool) selfTimes {
	var st selfTimes
	above := clientNs
	if served {
		st.kvnetNs = clientNs - serverNs
		above = serverNs
	}
	if sharded {
		st.shardNs = above - childNs
		st.hybridNs = childNs
	}
	return st
}

// writeChromeTrace writes every sampleEvery-th span as Chrome trace-event
// JSON (chrome://tracing, or ui.perfetto.dev).
func (r *recorder) writeChromeTrace(path string, sampleEvery int) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for i, sp := range r.recorded() {
		if i%sampleEvery != 0 {
			continue
		}
		events = append(events, event{
			Name: opNames[sp.op], Cat: seamNames[sp.seam], Ph: "X",
			Ts: float64(sp.start) / 1e3, Dur: float64(sp.end-sp.start) / 1e3,
			Pid: int(sp.seam), Tid: int(sp.id),
			Args: map[string]any{"busy_us": float64(sp.busy) / 1e3, "items": sp.items},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanStore decorates a kv.Store with a span per call at one seam.
type spanStore struct {
	inner kv.Store
	rec   *recorder
	seam  seam
	id    int
}

func (r *recorder) wrap(s seam, id int, inner kv.Store) kv.Store {
	return &spanStore{inner: inner, rec: r, seam: s, id: id}
}

func (s *spanStore) point(op spanOp, start time.Time) {
	end := time.Now()
	s.rec.record(s.seam, op, s.id, start, end, end.Sub(start), 0)
}

func (s *spanStore) Get(key []byte) ([]byte, error) {
	start := time.Now()
	v, err := s.inner.Get(key)
	s.point(opGet, start)
	return v, err
}

func (s *spanStore) Has(key []byte) (bool, error) { return s.inner.Has(key) }

func (s *spanStore) Put(key, value []byte) error {
	start := time.Now()
	err := s.inner.Put(key, value)
	s.point(opPut, start)
	return err
}

func (s *spanStore) Delete(key []byte) error {
	start := time.Now()
	err := s.inner.Delete(key)
	s.point(opDelete, start)
	return err
}

func (s *spanStore) NewBatch() kv.Batch {
	return &spanBatch{Batch: s.inner.NewBatch(), store: s}
}

func (s *spanStore) NewIterator(prefix, start []byte) kv.Iterator {
	op := opScan
	if len(prefix) == 0 && len(start) == 0 {
		op = opSweep
	}
	began := time.Now()
	it := s.inner.NewIterator(prefix, start)
	return &spanIterator{Iterator: it, store: s, op: op, began: began, busy: time.Since(began), driven: s.seam == seamClient}
}

func (s *spanStore) Close() error { return s.inner.Close() }

// Flush, Drain and Stats are forwarded because the router above a wrapped
// child finds them by type assertion.
func (s *spanStore) Flush() error {
	if f, ok := s.inner.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

func (s *spanStore) Drain() error { return kv.Drain(s.inner) }

func (s *spanStore) Stats() kv.Stats {
	if sp, ok := s.inner.(kv.StatsProvider); ok {
		return sp.Stats()
	}
	return kv.Stats{}
}

// spanBatch times the call that makes a batch visible.
type spanBatch struct {
	kv.Batch
	store *spanStore
}

func (b *spanBatch) Write() error {
	start := time.Now()
	err := b.Batch.Write()
	b.store.point(opBatch, start)
	return err
}

// spanIterator is one span from creation to Release. Below the client seam
// its busy time is the time inside NewIterator, Next and Release only: a
// child iterator under a k-way merge, or one the server pages over the wire,
// is open for the whole scan but works for a fraction of it. At the client
// seam the caller drives the iterator without pause, so busy is the lifetime
// and Next goes untimed.
type spanIterator struct {
	kv.Iterator
	store  *spanStore
	op     spanOp
	began  time.Time
	busy   time.Duration
	pairs  int
	driven bool // the caller drives it without pause: busy is its lifetime
}

func (it *spanIterator) Next() bool {
	var start time.Time
	if !it.driven {
		start = time.Now()
	}
	ok := it.Iterator.Next()
	if !it.driven {
		it.busy += time.Since(start)
	}
	if ok {
		it.pairs++
	}
	return ok
}

func (it *spanIterator) Release() {
	start := time.Now()
	it.Iterator.Release()
	end := time.Now()
	it.busy += end.Sub(start)
	if it.driven {
		it.busy = end.Sub(it.began)
	}
	it.store.rec.record(it.store.seam, it.op, it.store.id, it.began, end, it.busy, it.pairs)
}
