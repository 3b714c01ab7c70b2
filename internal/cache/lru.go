// Package cache provides the caching layer of the storage stack: a
// byte-budgeted LRU (Geth's per-class cache policy) and a correlation-aware
// cache implementing the prefetch/co-evict design §V of the paper proposes.
package cache

import "container/list"

// LRU is a byte-budgeted least-recently-used cache. Not safe for concurrent
// use; the simulator is single-threaded per store, matching Geth's
// per-subsystem caches guarded by their own locks.
type LRU struct {
	capacity int
	size     int
	order    *list.List // front = most recent
	items    map[string]*list.Element

	hits   uint64
	misses uint64
}

// lruEntry is one resident cache record.
type lruEntry struct {
	key   string
	value []byte
}

// NewLRU returns an LRU bounded to capacity bytes of key+value data.
func NewLRU(capacity int) *LRU {
	return &LRU{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the cached value and whether it was present.
func (c *LRU) Get(key []byte) ([]byte, bool) {
	el, ok := c.items[string(key)]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

// Contains reports presence without promoting or counting the entry.
func (c *LRU) Contains(key []byte) bool {
	_, ok := c.items[string(key)]
	return ok
}

// Add inserts or refreshes an entry, evicting from the tail to stay within
// budget. Values larger than the whole capacity are not admitted.
func (c *LRU) Add(key, value []byte) {
	entrySize := len(key) + len(value)
	if entrySize > c.capacity {
		return
	}
	if el, ok := c.items[string(key)]; ok {
		ent := el.Value.(*lruEntry)
		c.size += len(value) - len(ent.value)
		ent.value = append([]byte(nil), value...)
		c.order.MoveToFront(el)
	} else {
		ent := &lruEntry{key: string(key), value: append([]byte(nil), value...)}
		c.items[ent.key] = c.order.PushFront(ent)
		c.size += entrySize
	}
	for c.size > c.capacity {
		c.evictOldest()
	}
}

// Remove drops an entry if present.
func (c *LRU) Remove(key []byte) {
	if el, ok := c.items[string(key)]; ok {
		c.removeElement(el)
	}
}

// evictOldest removes the least-recently-used entry.
func (c *LRU) evictOldest() {
	if el := c.order.Back(); el != nil {
		c.removeElement(el)
	}
}

func (c *LRU) removeElement(el *list.Element) {
	ent := el.Value.(*lruEntry)
	c.order.Remove(el)
	delete(c.items, ent.key)
	c.size -= len(ent.key) + len(ent.value)
}

// Len returns the number of resident entries.
func (c *LRU) Len() int { return len(c.items) }

// Size returns the resident byte footprint.
func (c *LRU) Size() int { return c.size }

// HitRate returns hits/(hits+misses), or 0 before any lookups.
func (c *LRU) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Counters returns the raw hit/miss counts.
func (c *LRU) Counters() (hits, misses uint64) { return c.hits, c.misses }
