package hybrid

import (
	"fmt"
	"strings"
	"sync"

	"ethkv/internal/kv"
)

// LazyStore implements Finding 3's design suggestion: "KV pairs associated
// with the world state can be initially appended to a log, and are inserted
// into the KV store only upon being read." Writes land in a cheap
// append-only staging area; a key is promoted into the indexed store the
// first time a read proves it is actually accessed. Pairs that are written
// and never read — the majority, per Finding 3 — never pay the indexed
// store's insertion and maintenance costs.
type LazyStore struct {
	mu sync.Mutex
	// staging holds written-but-never-read entries (the "log"). The
	// in-memory map models the log's index; stats track what a disk log
	// would transfer.
	staging map[string][]byte
	// indexed is the read-optimized store keys promote into.
	indexed kv.Store

	stats      kv.Stats
	promotions uint64
}

var _ kv.Store = (*LazyStore)(nil)
var _ kv.StatsProvider = (*LazyStore)(nil)

// NewLazyStore wraps an indexed store with a write-staging log.
func NewLazyStore(indexed kv.Store) *LazyStore {
	return &LazyStore{
		staging: make(map[string][]byte),
		indexed: indexed,
	}
}

// Put appends to the staging log: O(1), no index maintenance.
func (s *LazyStore) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A staged overwrite of a promoted key must shadow the indexed copy.
	if err := s.indexed.Delete(key); err != nil {
		return err
	}
	s.staging[string(key)] = append([]byte(nil), value...)
	s.stats.Puts++
	s.stats.LogicalBytesWritten += uint64(len(key) + len(value))
	// Appending to a log costs exactly the record bytes.
	s.stats.PhysicalBytesWrite += uint64(len(key) + len(value))
	return nil
}

// Get reads a key, promoting staged entries into the indexed store.
func (s *LazyStore) Get(key []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	if v, ok := s.staging[string(key)]; ok {
		// First read: the pair has proven active; move it to the
		// read-optimized store.
		if err := s.indexed.Put(key, v); err != nil {
			return nil, err
		}
		delete(s.staging, string(key))
		s.promotions++
		s.stats.LogicalBytesRead += uint64(len(v))
		s.stats.PhysicalBytesRead += uint64(len(key) + len(v))
		return append([]byte(nil), v...), nil
	}
	v, err := s.indexed.Get(key)
	if err != nil {
		return nil, err
	}
	s.stats.LogicalBytesRead += uint64(len(v))
	return v, nil
}

// Has reports existence without promoting.
func (s *LazyStore) Has(key []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.staging[string(key)]; ok {
		return true, nil
	}
	return s.indexed.Has(key)
}

// Delete removes from both tiers.
func (s *LazyStore) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Deletes++
	delete(s.staging, string(key))
	return s.indexed.Delete(key)
}

// NewIterator promotes everything staged under the prefix, then scans the
// indexed store, so the scan sees every pair in ascending key order. A failed
// promotion leaves the pair staged — and fails the scan, which would
// otherwise silently omit it.
func (s *LazyStore) NewIterator(prefix, start []byte) kv.Iterator {
	s.mu.Lock()
	s.stats.Scans++
	under := string(prefix)
	for keyStr, v := range s.staging {
		if !strings.HasPrefix(keyStr, under) {
			continue
		}
		if err := s.indexed.Put([]byte(keyStr), v); err != nil {
			s.mu.Unlock()
			return kv.ErrIterator(fmt.Errorf("lazystore: promote %x for scan: %w", keyStr, err))
		}
		delete(s.staging, keyStr)
		s.promotions++
	}
	s.mu.Unlock()
	return s.indexed.NewIterator(prefix, start)
}

// NewBatch implements kv.Batcher.
func (s *LazyStore) NewBatch() kv.Batch { return &stagedBatch{store: s} }

// stagedBatch is the store's kv.Batch: staging is a map, so a batch is its
// ops applied one by one.
type stagedBatch struct {
	kv.OpBatch
	store *LazyStore
}

func (b *stagedBatch) Write() error { return b.Replay(b.store) }

// Promotions reports how many keys earned indexed-store insertion.
func (s *LazyStore) Promotions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promotions
}

// StagedCount reports keys still waiting in the log tier.
func (s *LazyStore) StagedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.staging)
}

// Stats merges the staging tier's counters with the indexed store's
// physical costs. kv.Stats.MergePhysical folds in every storage-side field
// (the staging tier counts the logical traffic itself) so counters only the
// inner backend tracks — live/dead value-log bytes, compaction rewrites,
// physical read ops — are never silently dropped.
func (s *LazyStore) Stats() kv.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	if sp, ok := s.indexed.(kv.StatsProvider); ok {
		out.MergePhysical(sp.Stats())
	}
	return out
}

// Flush settles the indexed tier; staged writes stay staged, since never
// reaching the indexed store is the point of staging them.
func (s *LazyStore) Flush() error { return kv.Flush(s.indexed) }

// Drain winds down the indexed tier's background work (staging is memory).
func (s *LazyStore) Drain() error { return kv.Drain(s.indexed) }

// Close shuts the indexed tier and drops the staging log, which lives in
// memory: this is Finding 3's ablation, not a durable store. With nothing
// staged, every later call reaches the closed indexed tier, which refuses it
// with kv.ErrClosed.
func (s *LazyStore) Close() error {
	s.mu.Lock()
	s.staging = nil
	s.mu.Unlock()
	return s.indexed.Close()
}
