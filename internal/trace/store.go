package trace

import (
	"errors"
	"fmt"
	"sync"

	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
)

// Sink receives traced operations. Writer satisfies it; tests use in-memory
// collectors.
type Sink interface {
	Append(Op) error
}

// BatchSink is a Sink that also accepts batched appends. The buffered
// store emit path uses it to amortize per-op sink overhead; sinks without
// it receive the batch as individual Appends.
type BatchSink interface {
	Sink
	AppendBatch([]Op) error
}

// SliceSink collects ops in memory, for tests and small experiments.
type SliceSink struct {
	mu  sync.Mutex
	Ops []Op
}

// Append implements Sink.
func (s *SliceSink) Append(op Op) error {
	s.mu.Lock()
	s.Ops = append(s.Ops, op)
	s.mu.Unlock()
	return nil
}

// AppendBatch implements BatchSink: one lock acquisition per batch.
func (s *SliceSink) AppendBatch(ops []Op) error {
	s.mu.Lock()
	s.Ops = append(s.Ops, ops...)
	s.mu.Unlock()
	return nil
}

// Grow preallocates capacity for n more ops.
func (s *SliceSink) Grow(n int) {
	s.mu.Lock()
	if need := len(s.Ops) + n; need > cap(s.Ops) {
		bigger := make([]Op, len(s.Ops), need)
		copy(bigger, s.Ops)
		s.Ops = bigger
	}
	s.mu.Unlock()
}

// Store wraps a kv.Store, logging every operation that crosses the
// interface — the same observation point as the paper's modified Geth. It
// also tracks key existence to split writes from updates the way the paper
// does, and records cache hits when a CacheResult is reported.
type Store struct {
	mu    sync.Mutex
	inner kv.Store
	sink  Sink
	seq   uint64
	// known tracks which keys currently exist, to classify write vs update
	// and delete-of-absent. Seeded from the store at wrap time if requested.
	known map[string]struct{}
	// arena backs emitted key copies in grow-only chunks: one allocation
	// per ~64 KiB of keys instead of one per op. Chunks are never reused,
	// so emitted keys stay valid for the lifetime of the sink.
	arena []byte
	// flushEvery batches sink delivery: ops buffer in pending (in sequence
	// order) and flush as one AppendBatch. <=1 delivers per-op.
	flushEvery int
	pending    []Op
	// sinkErr latches the first sink delivery failure; Flush reports it.
	sinkErr error
}

var _ kv.Store = (*Store)(nil)

// arenaChunk is the key-arena allocation granularity.
const arenaChunk = 64 << 10

// WrapStore instruments inner, delivering every op to sink as it happens.
func WrapStore(inner kv.Store, sink Sink) *Store {
	return WrapStoreBuffered(inner, sink, 0)
}

// WrapStoreBuffered instruments inner, buffering up to flushEvery ops and
// delivering them to sink in sequence-ordered batches — the hot-path
// configuration for trace collection. Call Flush (or Close) before reading
// the sink. flushEvery <= 1 delivers per-op, exactly like WrapStore.
func WrapStoreBuffered(inner kv.Store, sink Sink, flushEvery int) *Store {
	s := &Store{
		inner:      inner,
		sink:       sink,
		known:      make(map[string]struct{}),
		flushEvery: flushEvery,
	}
	if flushEvery > 1 {
		s.pending = make([]Op, 0, flushEvery)
	}
	return s
}

// emit appends one op with the next sequence number.
func (s *Store) emit(t OpType, key []byte, valueSize int, hit bool) {
	op := Op{
		Seq:       s.seq,
		Type:      t,
		Class:     rawdb.Classify(key),
		Key:       s.copyKey(key),
		ValueSize: uint32(valueSize),
		Hit:       hit,
	}
	s.seq++
	if s.sink == nil {
		return
	}
	if s.flushEvery <= 1 {
		if err := s.sink.Append(op); err != nil && s.sinkErr == nil {
			s.sinkErr = err
		}
		return
	}
	s.pending = append(s.pending, op)
	if len(s.pending) >= s.flushEvery {
		s.flushLocked()
	}
}

// copyKey stores a private copy of key in the arena.
func (s *Store) copyKey(key []byte) []byte {
	if cap(s.arena)-len(s.arena) < len(key) {
		s.arena = make([]byte, 0, max(arenaChunk, len(key)))
	}
	n := len(s.arena)
	s.arena = append(s.arena, key...)
	return s.arena[n:len(s.arena):len(s.arena)]
}

// flushLocked delivers pending ops to the sink in order.
func (s *Store) flushLocked() {
	if len(s.pending) == 0 {
		return
	}
	var err error
	if bs, ok := s.sink.(BatchSink); ok {
		err = bs.AppendBatch(s.pending)
	} else {
		for i := range s.pending {
			if err = s.sink.Append(s.pending[i]); err != nil {
				break
			}
		}
	}
	if err != nil && s.sinkErr == nil {
		s.sinkErr = err
	}
	s.pending = s.pending[:0]
}

// Flush delivers any buffered ops to the sink and reports the first sink
// delivery error seen so far.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	return s.sinkErr
}

// Get implements kv.Reader, tracing a read.
func (s *Store) Get(key []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.inner.Get(key)
	size := 0
	if err == nil {
		size = len(v)
	}
	s.emit(OpRead, key, size, false)
	return v, err
}

// RecordCacheHit traces a read that a cache layer served without touching
// the store. The paper's CacheTrace still sees these ops at the interface
// boundary it instruments inside Geth's accessor layer.
func (s *Store) RecordCacheHit(key []byte, valueSize int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emit(OpRead, key, valueSize, true)
}

// Has implements kv.Reader (traced as a read of size zero).
func (s *Store) Has(key []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok, err := s.inner.Has(key)
	s.emit(OpRead, key, 0, false)
	return ok, err
}

// Put implements kv.Writer, tracing a write or an update depending on
// whether the key already exists.
func (s *Store) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(key, value)
}

func (s *Store) putLocked(key, value []byte) error {
	t := OpWrite
	if _, exists := s.known[string(key)]; exists {
		t = OpUpdate
	} else {
		ok, err := s.inner.Has(key)
		if err != nil {
			// Without the existence probe the write/update split — the
			// paper's core classification — would be a guess, so fail the
			// put rather than mislabel the op.
			return fmt.Errorf("trace: classifying put: %w", err)
		}
		if ok {
			// Key predates the trace (written during earlier sync).
			t = OpUpdate
		}
	}
	if err := s.inner.Put(key, value); err != nil {
		return err
	}
	s.known[string(key)] = struct{}{}
	s.emit(t, key, len(value), false)
	return nil
}

// Delete implements kv.Writer, tracing a delete.
func (s *Store) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteLocked(key)
}

func (s *Store) deleteLocked(key []byte) error {
	if err := s.inner.Delete(key); err != nil {
		return err
	}
	delete(s.known, string(key))
	s.emit(OpDelete, key, 0, false)
	return nil
}

// NewIterator implements kv.Iterable, tracing a scan against the class of
// its prefix.
func (s *Store) NewIterator(prefix, start []byte) kv.Iterator {
	s.mu.Lock()
	s.emit(OpScan, prefix, 0, false)
	s.mu.Unlock()
	return s.inner.NewIterator(prefix, start)
}

// NewBatch implements kv.Batcher. Batched ops are traced when the batch
// commits, in batch order — matching Geth, which flushes batched writes at
// the end of block verification.
func (s *Store) NewBatch() kv.Batch {
	return &tracedBatch{store: s}
}

// Close implements kv.Store, flushing buffered ops first.
func (s *Store) Close() error {
	flushErr := s.Flush()
	if err := s.inner.Close(); err != nil {
		return err
	}
	return flushErr
}

// Stats surfaces the inner store's counters when available.
func (s *Store) Stats() kv.Stats {
	if sp, ok := s.inner.(kv.StatsProvider); ok {
		return sp.Stats()
	}
	return kv.Stats{}
}

// Inner returns the wrapped store.
func (s *Store) Inner() kv.Store { return s.inner }

// Seq returns the number of ops traced so far.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// tracedBatch defers tracing to commit time.
type tracedBatch struct {
	kv.OpBatch
	store *Store
}

// Write applies and traces the batched ops in order.
func (b *tracedBatch) Write() error {
	b.store.mu.Lock()
	defer b.store.mu.Unlock()
	for _, op := range b.Ops {
		var err error
		if op.Delete {
			err = b.store.deleteLocked(op.Key)
		} else {
			err = b.store.putLocked(op.Key, op.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ErrNotFound re-exports kv.ErrNotFound for trace-level callers.
var ErrNotFound = kv.ErrNotFound

// IsNotFound reports whether err is the store's not-found error.
func IsNotFound(err error) bool { return errors.Is(err, kv.ErrNotFound) }
