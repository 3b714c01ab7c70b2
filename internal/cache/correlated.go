package cache

// CorrelationCache augments an LRU with the correlation-aware policy from
// §V of the paper: it learns which keys are read adjacently (distance-zero
// correlated reads, Findings 8–9), prefetches a key's correlated companions
// on access, and evicts companions together.
//
// The learner keeps, per key, a small set of successor counts observed
// within a short window of the access stream. When a key is read and its
// strongest companion passes a confidence threshold, the companion is
// fetched from the backing loader into the cache ahead of demand.
type CorrelationCache struct {
	lru    *LRU
	loader func(key []byte) ([]byte, bool)

	// assoc maps key -> companion counts within the window.
	assoc map[string]map[string]uint32
	// window holds the most recent accessed keys, oldest first.
	window []string
	// windowSize bounds the adjacency distance treated as "correlated";
	// Finding 8 shows correlations concentrate within small distances.
	windowSize int
	// minCount is the occurrence threshold before acting on a pair
	// (the paper counts pairs only when seen at least twice).
	minCount uint32
	// maxCompanions bounds per-key learner state.
	maxCompanions int

	prefetches    uint64
	prefetchHits  uint64
	prefetchedHot map[string]bool // keys resident due to prefetch, not demand
}

// NewCorrelationCache builds a correlation-aware cache over a byte budget.
// loader fetches values for prefetching (returning ok=false when absent);
// it must be cheap to call relative to a real device read, as the whole
// point is converting future random reads into sequential prefetch batches.
func NewCorrelationCache(capacity int, loader func(key []byte) ([]byte, bool)) *CorrelationCache {
	return &CorrelationCache{
		lru:           NewLRU(capacity),
		loader:        loader,
		assoc:         make(map[string]map[string]uint32),
		windowSize:    4,
		minCount:      2,
		maxCompanions: 8,
		prefetchedHot: make(map[string]bool),
	}
}

// Get looks up key, learning adjacency from the access stream and
// prefetching learned companions on a hit or a successful miss-fill.
func (c *CorrelationCache) Get(key []byte) ([]byte, bool) {
	ks := string(key)
	value, ok := c.lru.Get(key)
	if ok && c.prefetchedHot[ks] {
		c.prefetchHits++
		delete(c.prefetchedHot, ks)
	}
	c.learn(ks)
	if ok {
		c.prefetchCompanions(ks)
	}
	return value, ok
}

// Add inserts a demand-loaded value and triggers companion prefetch.
func (c *CorrelationCache) Add(key, value []byte) {
	c.lru.Add(key, value)
	delete(c.prefetchedHot, string(key))
	c.prefetchCompanions(string(key))
}

// Remove drops key and its prefetched companions (co-eviction): correlated
// keys age together, so keeping companions of an evicted key wastes budget.
func (c *CorrelationCache) Remove(key []byte) {
	ks := string(key)
	c.lru.Remove(key)
	for comp, count := range c.assoc[ks] {
		if count >= c.minCount && c.prefetchedHot[comp] {
			c.lru.Remove([]byte(comp))
			delete(c.prefetchedHot, comp)
		}
	}
}

// learn records adjacency between the new access and the recent window.
func (c *CorrelationCache) learn(ks string) {
	for _, prev := range c.window {
		if prev == ks {
			continue
		}
		c.bump(prev, ks)
		c.bump(ks, prev)
	}
	c.window = append(c.window, ks)
	if len(c.window) > c.windowSize {
		c.window = c.window[1:]
	}
}

// bump increments the companion count for (a -> b), bounding state.
func (c *CorrelationCache) bump(a, b string) {
	m := c.assoc[a]
	if m == nil {
		m = make(map[string]uint32, 2)
		c.assoc[a] = m
	}
	if _, ok := m[b]; !ok && len(m) >= c.maxCompanions {
		// Evict the weakest companion to admit the new one.
		var weakest string
		var min uint32 = 1<<32 - 1
		for k, v := range m {
			if v < min {
				weakest, min = k, v
			}
		}
		delete(m, weakest)
	}
	m[b]++
}

// prefetchCompanions loads confident companions of ks into the cache.
func (c *CorrelationCache) prefetchCompanions(ks string) {
	if c.loader == nil {
		return
	}
	for comp, count := range c.assoc[ks] {
		if count < c.minCount || c.lru.Contains([]byte(comp)) {
			continue
		}
		if value, ok := c.loader([]byte(comp)); ok {
			c.lru.Add([]byte(comp), value)
			c.prefetchedHot[comp] = true
			c.prefetches++
		}
	}
}

// HitRate returns the demand hit rate of the underlying cache.
func (c *CorrelationCache) HitRate() float64 { return c.lru.HitRate() }

// PrefetchStats returns issued prefetches and how many were later hit.
func (c *CorrelationCache) PrefetchStats() (issued, hit uint64) {
	return c.prefetches, c.prefetchHits
}
