package lsm

import (
	"sync"
	"sync/atomic"

	"ethkv/internal/kv"
)

// memtable is the mutable in-memory write buffer of the LSM tree. Writes go
// to a skiplist; once the footprint exceeds the flush threshold the table is
// frozen and streamed into an SSTable (writeTo).
type memtable struct {
	mu   sync.RWMutex
	list *skiplist
	// n and bytes mirror list.length and list.bytes, stored under mu by every
	// mutation before it unlocks, so a reader can rule out an empty memtable
	// and the commit path can check for a full one without the lock.
	n, bytes atomic.Int64
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
	m.publish()
	m.mu.Unlock()
}

// del records a tombstone for key, which it keeps like put does.
func (m *memtable) del(key []byte) {
	m.mu.Lock()
	m.list.set(key, nil, true)
	m.publish()
	m.mu.Unlock()
}

// apply inserts a whole batch under one lock acquisition, so a concurrent
// get sees either none of the batch or all of it. It keeps the ops' key and
// value slices like put does.
func (m *memtable) apply(ops []kv.Op) {
	m.mu.Lock()
	for _, op := range ops {
		m.list.set(op.Key, op.Value, op.Delete)
	}
	m.publish()
	m.mu.Unlock()
}

// publish stores the list's count and footprint for lock-free readers.
// Called with mu held exclusively.
func (m *memtable) publish() {
	m.n.Store(int64(m.list.length))
	m.bytes.Store(int64(m.list.bytes))
}

// get looks up key. found reports any entry (live or tombstone). An empty
// memtable answers from the count alone: seeing zero orders the read before
// whatever batch is being applied, seeing more waits for the lock and finds
// the batch whole.
func (m *memtable) get(key []byte) (value []byte, found, deleted bool) {
	if m.n.Load() == 0 {
		return nil, false, false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.list.get(key)
}

// getFrozen is get for a memtable in the flush queue: rotation published it
// under db.mu after its last write, and nothing writes it again, so a reader
// holding db.mu needs no lock of the memtable's own.
func (m *memtable) getFrozen(key []byte) (value []byte, found, deleted bool) {
	return m.list.get(key)
}

// size returns the approximate byte footprint.
func (m *memtable) size() int { return int(m.bytes.Load()) }

// count returns the number of entries (including tombstones).
func (m *memtable) count() int { return int(m.n.Load()) }

// writeTo adds every entry, tombstones included, to w in key order —
// straight off the skiplist, whose keys and values w copies into its image —
// except that a live value of blobValueThreshold bytes or more goes to blobs
// and w gets its handle. The lock is shared with readers; a memtable being
// flushed takes no writes.
func (m *memtable) writeTo(w *tableWriter, blobs *blobWriter) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var handle []byte
	for it := m.list.iterator(); it.next(); {
		if v := it.value(); !it.tombstone() && len(v) >= blobValueThreshold {
			handle = blobs.add(handle[:0], v)
			w.addEntry(entry{key: it.key(), value: handle, handle: true})
			continue
		}
		w.add(it.key(), it.value(), it.tombstone())
	}
}

// entry is one key-value record flowing between LSM components.
type entry struct {
	key       []byte
	value     []byte
	tombstone bool
	handle    bool // value is a blob handle (table entries only)
}
