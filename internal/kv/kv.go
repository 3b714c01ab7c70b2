// Package kv defines the key-value store interfaces shared by every storage
// backend in this repository, mirroring the surface Geth expects from its
// database (Pebble): point reads, writes, deletes, ordered scans, and
// atomic batches.
package kv

import (
	"bytes"
	"errors"
	"sort"
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
type Stats struct {
	Gets    uint64 // point lookups served
	Puts    uint64 // keys written
	Deletes uint64 // keys deleted (tombstones for LSM backends)
	Scans   uint64 // iterators opened

	LogicalBytesRead    uint64 // value bytes returned to clients
	LogicalBytesWritten uint64 // key+value bytes accepted from clients
	PhysicalBytesRead   uint64 // bytes read from the storage layer
	PhysicalBytesWrite  uint64 // bytes written to the storage layer

	CompactionCount uint64 // background compactions run
	TombstonesLive  uint64 // tombstones not yet purged by compaction

	FlushCount      uint64 // memtable flushes to the storage layer
	WriteStalls     uint64 // writes that blocked on backpressure (full flush queue or L0 stop, one count per cause)
	WriteStallNanos uint64 // total nanoseconds writers spent stalled
	// WriteStallNanos by cause (the two sum to it), and where the flush job
	// a queue-stalled writer waits for spends its time: writing the L0 table,
	// and waiting for the manifest that names it to be durable (which queues
	// behind compactions' manifest writes).
	WriteStallQueueNanos uint64 // stalled on a full flush queue
	WriteStallL0Nanos    uint64 // stalled on the L0 stop trigger
	FlushTableNanos      uint64 // flush jobs: nanoseconds writing L0 tables
	ManifestNanos        uint64 // flush jobs: nanoseconds committing the manifest

	IORetries uint64 // transient I/O faults absorbed by retry-with-backoff
	Degraded  uint64 // 1 once the store latched into read-only degraded mode

	// The durable write path's device cost. WALSyncs over committed batches
	// is syncs-per-commit — below 1 when concurrent writers share barriers,
	// which WALSharedCommits counts from the other side; WALSyncNanos over
	// wall time is the share of the run the log spent inside a barrier.
	WALSyncs         uint64 // durability barriers issued on the write-ahead log
	WALSyncNanos     uint64 // total nanoseconds spent inside those barriers
	WALSharedCommits uint64 // batch commits made durable by another writer's barrier
	ManifestWrites   uint64 // manifest snapshots written (flush/compaction installs)

	BlockCacheHits        uint64 // demand-paged block reads served from the cache
	BlockCacheMisses      uint64 // block reads that went to the storage layer
	BlockCacheEvictions   uint64 // blocks pushed out by the cache byte budget
	BlockCachePinnedBytes uint64 // index+bloom bytes pinned by open tables

	BloomNegatives      uint64 // point lookups short-circuited by a bloom filter
	BloomFalsePositives uint64 // bloom passes whose block probe found no match

	PhysicalReadOps uint64 // discrete storage-layer read operations (ReadAt calls / block fetches)

	LiveDataBytes      uint64 // bytes of live records resident in value-log backends
	DeadDataBytes      uint64 // bytes of dead records awaiting compaction (compaction debt)
	CompactionRewrites uint64 // live records rewritten into a fresh generation by compaction

	SubCompactions          uint64 // key-range sub-compaction units run by split merges
	CompactionParallelNanos uint64 // wall nanoseconds with >= 2 compactions in flight
	// High-water marks (merged by max across stores, not summed: the
	// aggregate "most concurrent compactions" of a shard set is the worst
	// single store, and a process-wide pool makes sums meaningless).
	MaxConcurrentCompactions uint64 // peak compactions in flight at once
	CompactionDebtPeak       uint64 // peak compaction debt bytes observed
}

// Merge adds every counter of o into s. Wrappers that aggregate multiple
// backends (hybrid routing, shard routers) use this instead of hand-listing
// fields, so a counter added to Stats can never be silently dropped from a
// merged view.
func (s *Stats) Merge(o Stats) {
	s.Gets += o.Gets
	s.Puts += o.Puts
	s.Deletes += o.Deletes
	s.Scans += o.Scans
	s.LogicalBytesRead += o.LogicalBytesRead
	s.LogicalBytesWritten += o.LogicalBytesWritten
	s.MergePhysical(o)
}

// MergePhysical adds only the storage-side counters of o into s, leaving
// the logical op/byte counters alone. Tiered wrappers that count logical
// traffic themselves (lazystore) use it to fold in the inner backend's
// physical costs without double-counting client ops.
func (s *Stats) MergePhysical(o Stats) {
	s.PhysicalBytesRead += o.PhysicalBytesRead
	s.PhysicalBytesWrite += o.PhysicalBytesWrite
	s.CompactionCount += o.CompactionCount
	s.TombstonesLive += o.TombstonesLive
	s.FlushCount += o.FlushCount
	s.WriteStalls += o.WriteStalls
	s.WriteStallNanos += o.WriteStallNanos
	s.WriteStallQueueNanos += o.WriteStallQueueNanos
	s.WriteStallL0Nanos += o.WriteStallL0Nanos
	s.FlushTableNanos += o.FlushTableNanos
	s.ManifestNanos += o.ManifestNanos
	s.IORetries += o.IORetries
	s.Degraded += o.Degraded
	s.WALSyncs += o.WALSyncs
	s.WALSyncNanos += o.WALSyncNanos
	s.WALSharedCommits += o.WALSharedCommits
	s.ManifestWrites += o.ManifestWrites
	s.BlockCacheHits += o.BlockCacheHits
	s.BlockCacheMisses += o.BlockCacheMisses
	s.BlockCacheEvictions += o.BlockCacheEvictions
	s.BlockCachePinnedBytes += o.BlockCachePinnedBytes
	s.BloomNegatives += o.BloomNegatives
	s.BloomFalsePositives += o.BloomFalsePositives
	s.PhysicalReadOps += o.PhysicalReadOps
	s.LiveDataBytes += o.LiveDataBytes
	s.DeadDataBytes += o.DeadDataBytes
	s.CompactionRewrites += o.CompactionRewrites
	s.SubCompactions += o.SubCompactions
	s.CompactionParallelNanos += o.CompactionParallelNanos
	if o.MaxConcurrentCompactions > s.MaxConcurrentCompactions {
		s.MaxConcurrentCompactions = o.MaxConcurrentCompactions
	}
	if o.CompactionDebtPeak > s.CompactionDebtPeak {
		s.CompactionDebtPeak = o.CompactionDebtPeak
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
type MemStore struct {
	mu     sync.RWMutex
	data   map[string][]byte
	closed bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{data: make(map[string][]byte)}
}

// Has implements Reader.
func (m *MemStore) Has(key []byte) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return false, ErrClosed
	}
	_, ok := m.data[string(key)]
	return ok, nil
}

// Get implements Reader.
func (m *MemStore) Get(key []byte) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrClosed
	}
	v, ok := m.data[string(key)]
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
	m.data[string(key)] = v
	return nil
}

// Delete implements Writer.
func (m *MemStore) Delete(key []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	delete(m.data, string(key))
	return nil
}

// Len returns the number of stored keys.
func (m *MemStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data)
}

// NewIterator implements Iterable. The iterator operates on a snapshot of
// the matching keys taken at creation time.
func (m *MemStore) NewIterator(prefix, start []byte) Iterator {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrIterator(ErrClosed)
	}
	lower := append(append([]byte{}, prefix...), start...)
	var keys []string
	for k := range m.data {
		if bytes.HasPrefix([]byte(k), prefix) && bytes.Compare([]byte(k), lower) >= 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	values := make([][]byte, len(keys))
	for i, k := range keys {
		v := m.data[k]
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
			delete(b.store.data, string(op.Key))
		} else {
			b.store.data[string(op.Key)] = op.Value
		}
	}
	return nil
}
