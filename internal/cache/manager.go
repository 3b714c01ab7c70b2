package cache

import (
	"sort"

	"ethkv/internal/rawdb"
)

// Manager splits one byte budget across per-class LRU caches, the way Geth
// shares its --cache allowance between subsystem caches. Classes without an
// assigned share fall into a small shared residual cache.
type Manager struct {
	caches   map[rawdb.Class]*LRU
	residual *LRU
}

// shares approximates Geth's budget split: the world-state caches take
// most of the space, block data takes the rest.
var shares = map[rawdb.Class]float64{
	rawdb.ClassTrieNodeAccount: 0.25,
	rawdb.ClassTrieNodeStorage: 0.30,
	rawdb.ClassSnapshotAccount: 0.10,
	rawdb.ClassSnapshotStorage: 0.15,
	rawdb.ClassCode:            0.05,
	rawdb.ClassBlockHeader:     0.04,
	rawdb.ClassBlockBody:       0.03,
	rawdb.ClassBlockReceipts:   0.03,
}

// NewManager builds per-class caches from the given byte budget, split by
// shares.
func NewManager(totalBytes int) *Manager {
	m := &Manager{caches: make(map[rawdb.Class]*LRU)}
	used := 0.0
	for class, share := range shares {
		m.caches[class] = NewLRU(int(float64(totalBytes) * share))
		used += share
	}
	residual := totalBytes - int(float64(totalBytes)*used)
	if residual < 1024 {
		residual = 1024
	}
	m.residual = NewLRU(residual)
	return m
}

// cacheFor returns the cache serving a class.
func (m *Manager) cacheFor(class rawdb.Class) *LRU {
	if c, ok := m.caches[class]; ok {
		return c
	}
	return m.residual
}

// Get looks up a key in its class cache.
func (m *Manager) Get(class rawdb.Class, key []byte) ([]byte, bool) {
	return m.cacheFor(class).Get(key)
}

// Add caches a value under its class.
func (m *Manager) Add(class rawdb.Class, key, value []byte) {
	m.cacheFor(class).Add(key, value)
}

// Remove drops a key from its class cache (on delete/overwrite).
func (m *Manager) Remove(class rawdb.Class, key []byte) {
	m.cacheFor(class).Remove(key)
}

// ClassStats describes one class cache's effectiveness.
type ClassStats struct {
	Class   rawdb.Class
	Hits    uint64
	Misses  uint64
	HitRate float64
	Bytes   int
	Entries int
}

// Stats returns per-class cache statistics ordered by class.
func (m *Manager) Stats() []ClassStats {
	out := make([]ClassStats, 0, len(m.caches)+1)
	for class, c := range m.caches {
		hits, misses := c.Counters()
		out = append(out, ClassStats{
			Class: class, Hits: hits, Misses: misses,
			HitRate: c.HitRate(), Bytes: c.Size(), Entries: c.Len(),
		})
	}
	hits, misses := m.residual.Counters()
	out = append(out, ClassStats{
		Class: rawdb.ClassUnknown, Hits: hits, Misses: misses,
		HitRate: m.residual.HitRate(), Bytes: m.residual.Size(), Entries: m.residual.Len(),
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
