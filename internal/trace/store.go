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

// Store wraps a kv.Store, logging every operation that crosses the
// interface — the same observation point as the paper's modified Geth. It
// also tracks key existence to split writes from updates the way the paper
// does. Caches sit above it, so a cache hit never reaches it: every op it
// emits has Hit false.
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
	// sinkErr latches the first sink delivery failure; Flush and Close
	// report it.
	sinkErr error
}

var _ kv.Store = (*Store)(nil)

// arenaChunk is the key-arena allocation granularity.
const arenaChunk = 64 << 10

// WrapStore instruments inner, delivering every op to sink as it happens.
// Call Flush (or Close) before reading the sink: a failed delivery does not
// fail the op that caused it, and only they report it.
func WrapStore(inner kv.Store, sink Sink) *Store {
	return &Store{inner: inner, sink: sink, known: make(map[string]struct{})}
}

// emit appends one op with the next sequence number.
func (s *Store) emit(t OpType, key []byte, valueSize int) {
	op := Op{
		Seq:       s.seq,
		Type:      t,
		Class:     rawdb.Classify(key),
		Key:       s.copyKey(key),
		ValueSize: uint32(valueSize),
	}
	s.seq++
	if s.sink == nil {
		return
	}
	if err := s.sink.Append(op); err != nil && s.sinkErr == nil {
		s.sinkErr = err
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

// Flush flushes the inner store (kv.Flush) and then reports the first sink
// delivery error seen so far. Every op has reached the sink by the time its
// call returns, so the sink has nothing left to deliver.
func (s *Store) Flush() error {
	if err := kv.Flush(s.inner); err != nil {
		return err
	}
	return s.sinkError()
}

// sinkError returns the first sink delivery failure, if any.
func (s *Store) sinkError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s.emit(OpRead, key, size)
	return v, err
}

// Has implements kv.Reader (traced as a read of size zero).
func (s *Store) Has(key []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok, err := s.inner.Has(key)
	s.emit(OpRead, key, 0)
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
	s.emit(t, key, len(value))
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
	s.emit(OpDelete, key, 0)
	return nil
}

// NewIterator implements kv.Iterable, tracing a scan against the class of
// its prefix.
func (s *Store) NewIterator(prefix, start []byte) kv.Iterator {
	s.mu.Lock()
	s.emit(OpScan, prefix, 0)
	s.mu.Unlock()
	return s.inner.NewIterator(prefix, start)
}

// NewBatch implements kv.Batcher. Batched ops are traced when the batch
// commits, in batch order — matching Geth, which flushes batched writes at
// the end of block verification.
func (s *Store) NewBatch() kv.Batch {
	return &tracedBatch{store: s}
}

// Close implements kv.Store, closing the inner store and then reporting the
// first sink delivery error, if any. It does not flush the inner store.
func (s *Store) Close() error {
	sinkErr := s.sinkError()
	if err := s.inner.Close(); err != nil {
		return err
	}
	return sinkErr
}

// Stats surfaces the inner store's counters when available.
func (s *Store) Stats() kv.Stats {
	if sp, ok := s.inner.(kv.StatsProvider); ok {
		return sp.Stats()
	}
	return kv.Stats{}
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
