package lsm

import (
	"sync"
	"sync/atomic"
)

// blockCache is the DB-wide cache behind demand-paged SSTable reads: point
// lookups fetch single 4 KiB data blocks through it instead of keeping
// whole tables resident. It is sharded to keep lock hold times short under
// concurrent readers — each shard is an independent second-chance queue with
// its own mutex and a slice of the total byte budget, and a key's shard is
// fixed by a hash of (table number, block index), so two readers of different
// blocks rarely contend.
//
// Replacement is second chance (a FIFO queue whose entries carry a
// referenced flag), not LRU: a hit sets the flag only when it is clear, so a
// hit on a warm block writes nothing but the shard's hit count — under the
// lock it already holds — and the block's cache lines stay shared between
// the cores reading it. Eviction pays instead: it skips, once, every entry
// referenced since it last came round.
//
// What the cache deliberately does NOT hold: iterator readahead spans
// (scans stream through private buffers so one sequential walk cannot
// evict the point-read working set) and compaction reads (the bypass walk
// never touches the cache at all). Index and bloom sections are pinned in
// their tableReaders for the reader's lifetime and only accounted here
// (pinned), never evicted.
//
// All methods tolerate a nil receiver, reading as a disabled cache:
// Options.BlockCacheBytes < 0 disables caching without a second code path
// at every call site.
type blockCache struct {
	shardCap int64 // byte budget per shard
	shards   [cacheShardCount]cacheShard
	pinned   atomic.Int64 // index+bloom bytes held by open tableReaders
}

const cacheShardCount = 16

type cacheKey struct {
	table uint64
	block int
}

// cacheShard is one lock's worth of the cache. Entries sit on a circular
// doubly-linked queue threaded through them, with head as its sentinel:
// head.next is the newest arrival, head.prev the next eviction candidate.
// The counters are plain fields under mu — every get and put holds it anyway.
type cacheShard struct {
	mu    sync.Mutex
	head  cacheEntry
	table map[cacheKey]*cacheEntry
	bytes int64

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key        cacheKey
	blk        *block
	referenced bool // hit since it was queued or last passed over
	prev, next *cacheEntry
}

// newBlockCache sizes a cache for capacity total bytes; capacity <= 0
// returns nil (the disabled cache).
func newBlockCache(capacity int64) *blockCache {
	if capacity <= 0 {
		return nil
	}
	c := &blockCache{shardCap: (capacity + cacheShardCount - 1) / cacheShardCount}
	for i := range c.shards {
		s := &c.shards[i]
		s.head.prev, s.head.next = &s.head, &s.head
		s.table = make(map[cacheKey]*cacheEntry)
	}
	return c
}

// pushFront queues e as the newest entry.
func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev, e.next = &s.head, s.head.next
	e.prev.next, e.next.prev = e, e
}

// unlink takes e off the queue.
func (s *cacheShard) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// shard maps a key to its home shard via a mixed multiplicative hash:
// adjacent blocks of one table land on different shards, so a hot scan
// range does not serialize on one mutex.
func (c *blockCache) shard(k cacheKey) *cacheShard {
	h := k.table*0x9E3779B97F4A7C15 + uint64(k.block)*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return &c.shards[h%cacheShardCount]
}

// get returns the cached block and marks it referenced, counting one hit or
// one miss. The block is shared and read-only.
func (c *blockCache) get(table uint64, blockIdx int) (*block, bool) {
	if c == nil {
		return nil, false
	}
	k := cacheKey{table: table, block: blockIdx}
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.table[k]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.hits++
	if !e.referenced {
		e.referenced = true
	}
	blk := e.blk
	s.mu.Unlock()
	return blk, true
}

// put inserts (or refreshes) a block, charging its payload and offset index
// to the shard, and evicts until the shard is back under budget: the oldest
// entry goes unless it was referenced since it was last considered, in which
// case it is requeued with the flag cleared. A single block larger than a
// whole shard is kept as the shard's only entry rather than thrashed — the
// overshoot is bounded by one block per shard.
func (c *blockCache) put(table uint64, blockIdx int, blk *block) {
	if c == nil {
		return
	}
	k := cacheKey{table: table, block: blockIdx}
	s := c.shard(k)
	s.mu.Lock()
	if e, ok := s.table[k]; ok {
		s.bytes += blk.size() - e.blk.size()
		e.blk = blk
	} else {
		e := &cacheEntry{key: k, blk: blk}
		s.table[k] = e
		s.pushFront(e)
		s.bytes += blk.size()
	}
	for s.bytes > c.shardCap && len(s.table) > 1 {
		e := s.head.prev
		s.unlink(e)
		if e.referenced || e.key == k {
			// Second chance; the block just inserted is never its own victim.
			e.referenced = false
			s.pushFront(e)
			continue
		}
		delete(s.table, e.key)
		s.bytes -= e.blk.size()
		s.evictions++
	}
	s.mu.Unlock()
}

// dropTable invalidates every cached block of one table — called when the
// last reference to its tableReader is released (the table was compacted
// away and no reader can request its blocks again). Invalidations are not
// counted as evictions: they reflect table lifecycle, not cache pressure.
func (c *blockCache) dropTable(table uint64) {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.table {
			if k.table == table {
				s.bytes -= e.blk.size()
				s.unlink(e)
				delete(s.table, k)
			}
		}
		s.mu.Unlock()
	}
}

// addPinned accounts index/bloom bytes pinned by an open tableReader
// (negative on release). Pinned bytes sit outside the cache budget.
func (c *blockCache) addPinned(n int64) {
	if c == nil {
		return
	}
	c.pinned.Add(n)
}

// counters sums the shards' hit, miss and eviction counts.
func (c *blockCache) counters() (hits, misses, evictions uint64) {
	if c == nil {
		return 0, 0, 0
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		evictions += s.evictions
		s.mu.Unlock()
	}
	return hits, misses, evictions
}

// usedBytes reports the bytes currently held across all shards.
func (c *blockCache) usedBytes() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// capacityBytes reports the configured byte budget.
func (c *blockCache) capacityBytes() int64 {
	if c == nil {
		return 0
	}
	return c.shardCap * cacheShardCount
}

// pinnedBytes reports index/bloom bytes held by open tableReaders.
func (c *blockCache) pinnedBytes() int64 {
	if c == nil {
		return 0
	}
	if n := c.pinned.Load(); n > 0 {
		return n
	}
	return 0
}
