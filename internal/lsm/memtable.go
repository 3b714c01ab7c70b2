package lsm

import "sync"

// memtable is the mutable in-memory write buffer of the LSM tree. Writes go
// to a skiplist; once the footprint exceeds the flush threshold the table is
// frozen and streamed into an SSTable (writeTo).
type memtable struct {
	mu   sync.RWMutex
	list *skiplist
}

func newMemtable(seed int64) *memtable {
	return &memtable{list: newSkiplist(seed)}
}

// put inserts a value. The memtable keeps key and value without copying:
// callers hand over slices nothing will modify afterwards (the commit path
// copies the caller's bytes once, before taking any lock).
func (m *memtable) put(key, value []byte) {
	m.mu.Lock()
	m.list.set(key, value, false)
	m.mu.Unlock()
}

// del records a tombstone for key, which it keeps like put does.
func (m *memtable) del(key []byte) {
	m.mu.Lock()
	m.list.set(key, nil, true)
	m.mu.Unlock()
}

// apply inserts a whole batch under one lock acquisition, so a concurrent
// get sees either none of the batch or all of it. It keeps the ops' key and
// value slices like put does.
func (m *memtable) apply(ops []batchOp) {
	m.mu.Lock()
	for _, op := range ops {
		m.list.set(op.key, op.value, op.delete)
	}
	m.mu.Unlock()
}

// get looks up key. found reports any entry (live or tombstone).
func (m *memtable) get(key []byte) (value []byte, found, deleted bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.list.get(key)
}

// size returns the approximate byte footprint.
func (m *memtable) size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.list.bytes
}

// count returns the number of entries (including tombstones).
func (m *memtable) count() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.list.length
}

// writeTo adds every entry, tombstones included, to w in key order —
// straight off the skiplist, whose keys and values w copies into its image.
// The lock is shared with readers; a memtable being flushed takes no writes.
func (m *memtable) writeTo(w *tableWriter) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for it := m.list.iterator(); it.next(); {
		w.add(it.key(), it.value(), it.tombstone())
	}
}

// entry is one key-value record flowing between LSM components.
type entry struct {
	key       []byte
	value     []byte
	tombstone bool
}
