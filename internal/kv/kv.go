// Package kv defines the key-value store interfaces shared by every storage
// backend in this repository, mirroring the surface Geth expects from its
// database (Pebble): point reads, writes, deletes, ordered scans, and
// atomic batches.
package kv

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned by Get when the key does not exist.
var ErrNotFound = errors.New("kv: key not found")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kv: store closed")

// ErrDegraded is returned by write operations once a store has latched
// into read-only degraded mode after a permanent storage failure: reads
// keep being served from whatever state survives, but no write can be made
// durable, so none is accepted. The condition is sticky for the life of
// the store handle; Stats.Degraded reports it.
var ErrDegraded = errors.New("kv: store degraded to read-only after storage failure")

// Reader provides read access to a store.
type Reader interface {
	// Has reports whether the key exists.
	Has(key []byte) (bool, error)
	// Get returns the value for key, or ErrNotFound.
	Get(key []byte) ([]byte, error)
}

// Writer provides write access to a store.
type Writer interface {
	// Put inserts or overwrites a key.
	Put(key, value []byte) error
	// Delete removes a key. Deleting an absent key is not an error.
	Delete(key []byte) error
}

// Iterator walks a key range in ascending key order. The caller must call
// Release when done. Key/Value are only valid until the next call to Next.
type Iterator interface {
	// Next advances the iterator and reports whether an entry is available.
	Next() bool
	// Key returns the current key.
	Key() []byte
	// Value returns the current value.
	Value() []byte
	// Release frees resources held by the iterator.
	Release()
	// Error returns any accumulated error.
	Error() error
}

// Iterable provides ordered range scans.
type Iterable interface {
	// NewIterator returns an iterator over keys with the given prefix,
	// starting at prefix+start. Both may be nil.
	NewIterator(prefix, start []byte) Iterator
}

// Batcher creates write batches.
type Batcher interface {
	// NewBatch returns an empty write batch.
	NewBatch() Batch
}

// Batch accumulates writes and deletes for an atomic commit.
type Batch interface {
	Writer
	// ValueSize returns the byte size of pending data, for flush heuristics.
	ValueSize() int
	// Write atomically applies the batch to the store.
	Write() error
	// Reset clears the batch for reuse.
	Reset()
	// Replay applies the batch contents to the given writer.
	Replay(w Writer) error
}

// Store is the full database interface.
type Store interface {
	Reader
	Writer
	Iterable
	Batcher
	// Close releases all resources.
	Close() error
}

// StatsProvider is implemented by stores that track I/O statistics.
type StatsProvider interface {
	// Stats returns a snapshot of cumulative I/O counters.
	Stats() Stats
}

// Drainer is implemented by stores that run background work (compactions).
// Drain stops scheduling new background work and waits for what is already
// in flight, so a subsequent Close is bounded by running jobs rather than
// the store's full compaction debt. Wrappers forward it to every child.
type Drainer interface {
	Drain() error
}

// Drain winds down s's background work if it supports draining; stores
// without background work drain trivially.
func Drain(s Store) error {
	if d, ok := s.(Drainer); ok {
		return d.Drain()
	}
	return nil
}

// Flush pushes s's buffered writes down to its storage layer (the LSM's
// memtable into a table, for one) if it buffers any — so that censuses and
// amplification counters settle. Wrappers forward it to every child.
func Flush(s Store) error {
	if f, ok := s.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// Stats holds cumulative I/O counters for a store. Logical counters track
// the operations issued by the client; physical counters track the bytes the
// backend actually moved (including compaction), which exposes write
// amplification.
//
// Each counter is declared once, here: its `stat` tag names its
// ethkv_store_<name> gauge (RegisterStatsMetrics; "-" exports none) and,
// after a comma, its merge rule — "logical" for the client-side counters
// MergePhysical leaves alone, "peak" for high-water marks merged by max; the
// rest are summed.
type Stats struct {
	Gets    uint64 `stat:"gets,logical"`    // point lookups served
	Puts    uint64 `stat:"puts,logical"`    // keys written
	Deletes uint64 `stat:"deletes,logical"` // keys deleted (tombstones for LSM backends)
	Scans   uint64 `stat:"scans,logical"`   // iterators opened; over kvnet, one per page of a served scan

	LogicalBytesRead    uint64 `stat:"logical_bytes_read,logical"`    // value bytes returned to clients
	LogicalBytesWritten uint64 `stat:"logical_bytes_written,logical"` // key+value bytes accepted from clients
	PhysicalBytesRead   uint64 `stat:"physical_bytes_read"`           // bytes read from the storage layer
	PhysicalBytesWrite  uint64 `stat:"physical_bytes_written"`        // bytes written to the storage layer

	CompactionCount  uint64 `stat:"compactions"`        // background compactions run (merges that rewrite their inputs)
	TrivialMoves     uint64 `stat:"trivial_moves"`      // compactions that relinked their inputs one level down without rewriting them
	TrivialMoveBytes uint64 `stat:"trivial_move_bytes"` // table bytes those moves relinked
	TombstonesLive   uint64 `stat:"tombstones_live"`    // tombstones in the store's files, not yet purged

	FlushCount      uint64 `stat:"flushes"`           // memtable flushes to the storage layer
	WriteStalls     uint64 `stat:"write_stalls"`      // writes that blocked on backpressure (full flush queue or L0 stop, one count per cause)
	WriteStallNanos uint64 `stat:"write_stall_nanos"` // total nanoseconds writers spent stalled
	// WriteStallNanos by cause (the two sum to it), and where the flush job
	// a queue-stalled writer waits for spends its time: writing the L0 table,
	// and waiting for the manifest that names it to be durable (which queues
	// behind compactions' manifest writes).
	WriteStallQueueNanos uint64 `stat:"write_stall_queue_nanos"` // stalled on a full flush queue
	WriteStallL0Nanos    uint64 `stat:"write_stall_l0_nanos"`    // stalled on the L0 stop trigger
	FlushTableNanos      uint64 `stat:"flush_table_nanos"`       // flush jobs: nanoseconds writing L0 tables
	ManifestNanos        uint64 `stat:"manifest_nanos"`          // flush jobs: nanoseconds committing the manifest

	IORetries uint64 `stat:"io_retries"` // transient I/O faults absorbed by retry-with-backoff
	Degraded  uint64 `stat:"degraded"`   // 1 once the store latched into read-only degraded mode

	// The durable write path's device cost. WALSyncs over committed batches
	// is syncs-per-commit — below 1 when concurrent writers share barriers,
	// which WALSharedCommits counts from the other side; WALSyncNanos over
	// wall time is the share of the run the log spent inside a barrier.
	WALSyncs         uint64 `stat:"wal_syncs"`          // durability barriers issued on the write-ahead log
	WALSyncNanos     uint64 `stat:"wal_sync_nanos"`     // total nanoseconds spent inside those barriers
	WALSharedCommits uint64 `stat:"wal_shared_commits"` // batch commits made durable by another writer's barrier
	ManifestWrites   uint64 `stat:"manifest_writes"`    // manifest snapshots written (flush/compaction installs)

	BlockCacheHits        uint64 `stat:"block_cache_hits"`         // demand-paged block reads served from the cache
	BlockCacheMisses      uint64 `stat:"block_cache_misses"`       // block reads that went to the storage layer
	BlockCacheEvictions   uint64 `stat:"block_cache_evictions"`    // blocks pushed out by the cache byte budget
	BlockCachePinnedBytes uint64 `stat:"block_cache_pinned_bytes"` // index+bloom bytes pinned by open tables

	BloomNegatives      uint64 `stat:"bloom_negatives"`       // point lookups short-circuited by a bloom filter
	BloomFalsePositives uint64 `stat:"bloom_false_positives"` // bloom passes whose block probe found no match

	PhysicalReadOps uint64 `stat:"physical_read_ops"` // discrete storage-layer read operations (ReadAt calls / block fetches)

	LiveDataBytes      uint64 `stat:"live_data_bytes"`     // bytes of live records in value logs: flat store segments, LSM blob files
	DeadDataBytes      uint64 `stat:"dead_data_bytes"`     // bytes of dead records in those logs, awaiting compaction or file deletion
	CompactionRewrites uint64 `stat:"compaction_rewrites"` // live records rewritten into a fresh generation by compaction

	// Retired, always 0, and exported as no gauge; kept while the benchmark
	// rig reads them. A compaction is one merge (no sub-compactions), and a
	// store runs one compaction at a time, so none overlap.
	SubCompactions           uint64 `stat:"-"`
	CompactionParallelNanos  uint64 `stat:"-"`
	MaxConcurrentCompactions uint64 `stat:"-,peak"`
	// A high-water mark, merged by max across stores, not summed.
	CompactionDebtPeak uint64 `stat:"compaction_debt_peak_bytes,peak"` // peak compaction debt bytes observed
}

// statField is one Stats counter as its `stat` tag declares it.
type statField struct {
	metric string // gauge name after the ethkv_store_ prefix; "-" for none
	rule   string // "logical", "peak", or "" (summed)
}

// statFields holds every Stats counter's tag, indexed like the fields.
var statFields = func() []statField {
	t := reflect.TypeOf(Stats{})
	out := make([]statField, t.NumField())
	for i := range out {
		out[i].metric, out[i].rule, _ = strings.Cut(t.Field(i).Tag.Get("stat"), ",")
	}
	return out
}()

// Merge adds every counter of o into s. Wrappers that aggregate multiple
// backends (hybrid routing, shard routers) use this instead of hand-listing
// fields, so a counter added to Stats can never be silently dropped from a
// merged view.
func (s *Stats) Merge(o Stats) { s.merge(o, true) }

// MergePhysical adds only the storage-side counters of o into s, leaving
// the logical op/byte counters alone. Tiered wrappers that count logical
// traffic themselves (lazystore) use it to fold in the inner backend's
// physical costs without double-counting client ops.
func (s *Stats) MergePhysical(o Stats) { s.merge(o, false) }

// merge folds o into s by each counter's rule; logical says whether the
// client-side counters take part.
func (s *Stats) merge(o Stats, logical bool) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i, f := range statFields {
		dst, v := sv.Field(i), ov.Field(i).Uint()
		switch {
		case f.rule == "peak":
			if v > dst.Uint() {
				dst.SetUint(v)
			}
		case f.rule != "logical" || logical:
			dst.SetUint(dst.Uint() + v)
		}
	}
}

// WriteAmplification returns physical/logical write ratio, or 0 if no
// logical writes occurred.
func (s Stats) WriteAmplification() float64 {
	if s.LogicalBytesWritten == 0 {
		return 0
	}
	return float64(s.PhysicalBytesWrite) / float64(s.LogicalBytesWritten)
}

// ReadAmplification returns physical/logical read ratio, or 0 if no logical
// reads occurred.
func (s Stats) ReadAmplification() float64 {
	if s.LogicalBytesRead == 0 {
		return 0
	}
	return float64(s.PhysicalBytesRead) / float64(s.LogicalBytesRead)
}

// BlockCacheHitRate returns hits/(hits+misses), or 0 when the cache saw no
// traffic (disabled, or a store that never read a block).
func (s Stats) BlockCacheHitRate() float64 {
	total := s.BlockCacheHits + s.BlockCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.BlockCacheHits) / float64(total)
}

// MemStore is a sorted in-memory Store used as the reference implementation
// in tests and as the backing for small metadata databases. It is safe for
// concurrent use.
//
// The keys live in one map per first byte (every rawdb key starts with its
// class byte), so a prefix scan visits only its own class's keys. The empty
// key has a partition of its own ahead of the 0x00 one: walking the
// partitions in index order meets the keys in order of their first byte.
type MemStore struct {
	mu     sync.RWMutex
	parts  [257]map[string][]byte // indexed by part; nil until a write needs it
	closed bool
}

// part returns key's partition index: 0 for the empty key, 1+key[0] for
// any other.
func part[K string | []byte](key K) int {
	if len(key) == 0 {
		return 0
	}
	return 1 + int(key[0])
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{}
}

// Has implements Reader.
func (m *MemStore) Has(key []byte) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return false, ErrClosed
	}
	_, ok := m.parts[part(key)][string(key)]
	return ok, nil
}

// Get implements Reader.
func (m *MemStore) Get(key []byte) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrClosed
	}
	v, ok := m.parts[part(key)][string(key)]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Put implements Writer.
func (m *MemStore) Put(key, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	v := make([]byte, len(value))
	copy(v, value)
	m.put(key, v)
	return nil
}

// Delete implements Writer.
func (m *MemStore) Delete(key []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	delete(m.parts[part(key)], string(key))
	return nil
}

// put stores v, which the store then owns, under key, creating key's
// partition on first use. The caller holds mu for writing: the read paths
// only ever read a partition, and a nil one reads as empty.
func (m *MemStore) put(key, v []byte) {
	p := &m.parts[part(key)]
	if *p == nil {
		*p = make(map[string][]byte)
	}
	(*p)[string(key)] = v
}

// Len returns the number of stored keys.
func (m *MemStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, p := range m.parts {
		n += len(p)
	}
	return n
}

// NewIterator implements Iterable. The iterator operates on a snapshot of
// the matching keys taken at creation time.
func (m *MemStore) NewIterator(prefix, start []byte) Iterator {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrIterator(ErrClosed)
	}
	pre := string(prefix)
	lower := pre + string(start)
	// No key below lower's partition reaches lower, and a prefix confines
	// the scan to its own partition.
	lo, hi := part(lower), len(m.parts)
	if pre != "" {
		hi = lo + 1
	}
	var keys []string
	for _, p := range m.parts[lo:hi] {
		for k := range p {
			if strings.HasPrefix(k, pre) && k >= lower {
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	values := make([][]byte, len(keys))
	for i, k := range keys {
		v := m.parts[part(k)][k]
		values[i] = make([]byte, len(v))
		copy(values[i], v)
	}
	return &sliceIterator{keys: keys, values: values, pos: -1}
}

// NewBatch implements Batcher.
func (m *MemStore) NewBatch() Batch {
	return &memBatch{store: m}
}

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// sliceIterator iterates a materialized key/value snapshot.
type sliceIterator struct {
	keys   []string
	values [][]byte
	pos    int
}

func (it *sliceIterator) Next() bool {
	if it.pos+1 >= len(it.keys) {
		return false
	}
	it.pos++
	return true
}

func (it *sliceIterator) Key() []byte {
	if it.pos < 0 || it.pos >= len(it.keys) {
		return nil
	}
	return []byte(it.keys[it.pos])
}

func (it *sliceIterator) Value() []byte {
	if it.pos < 0 || it.pos >= len(it.values) {
		return nil
	}
	return it.values[it.pos]
}

func (it *sliceIterator) Release()     { it.keys, it.values = nil, nil }
func (it *sliceIterator) Error() error { return nil }

// ErrIterator returns an iterator that yields nothing and reports err — how
// a store says a scan could not be set up, through the Iterator API.
func ErrIterator(err error) Iterator { return errIterator{err} }

type errIterator struct{ err error }

func (errIterator) Next() bool      { return false }
func (errIterator) Key() []byte     { return nil }
func (errIterator) Value() []byte   { return nil }
func (errIterator) Release()        {}
func (it errIterator) Error() error { return it.err }

// Op is one buffered batch operation. Key and Value belong to the batch that
// holds the Op: they are its own copies of what the caller passed in.
type Op struct {
	Key, Value []byte
	Delete     bool
}

// Apply performs the operation on w.
func (op *Op) Apply(w Writer) error {
	if op.Delete {
		return w.Delete(op.Key)
	}
	return w.Put(op.Key, op.Value)
}

// OpBatch is the op-list half of a Batch, meant to be embedded: it buffers
// puts and deletes in insertion order, copying each key and value exactly
// once, and implements every Batch method except Write. The embedding store
// supplies Write, which commits Ops however the store commits a batch; the
// list stays intact afterwards, so a batch can be written, replayed or reset
// in any order.
type OpBatch struct {
	Ops  []Op
	size int
}

// Put implements Writer.
func (b *OpBatch) Put(key, value []byte) error {
	b.Ops = append(b.Ops, Op{
		Key:   append([]byte(nil), key...),
		Value: append([]byte(nil), value...),
	})
	b.size += len(key) + len(value)
	return nil
}

// Delete implements Writer.
func (b *OpBatch) Delete(key []byte) error {
	b.Ops = append(b.Ops, Op{Key: append([]byte(nil), key...), Delete: true})
	b.size += len(key)
	return nil
}

// ValueSize implements Batch: key plus value bytes buffered so far.
func (b *OpBatch) ValueSize() int { return b.size }

// Reset implements Batch.
func (b *OpBatch) Reset() { b.Ops, b.size = b.Ops[:0], 0 }

// Replay implements Batch: the ops reach w in insertion order.
func (b *OpBatch) Replay(w Writer) error {
	for i := range b.Ops {
		if err := b.Ops[i].Apply(w); err != nil {
			return err
		}
	}
	return nil
}

// memBatch is MemStore's Batch: the whole op list lands under one lock.
type memBatch struct {
	OpBatch
	store *MemStore
}

func (b *memBatch) Write() error {
	b.store.mu.Lock()
	defer b.store.mu.Unlock()
	if b.store.closed {
		return ErrClosed
	}
	for _, op := range b.Ops {
		if op.Delete {
			delete(b.store.parts[part(op.Key)], string(op.Key))
		} else {
			b.store.put(op.Key, op.Value)
		}
	}
	return nil
}
