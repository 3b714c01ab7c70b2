package lsm

import "bytes"

// source is a uniform cursor over one level of the LSM tree (memtable or
// table). Sources are ordered by recency: source 0 shadows source 1, etc.
type source interface {
	// peek returns the current entry without advancing. ok=false means
	// exhausted — or failed; callers distinguish via err. The entry's key
	// and value stay intact until the source's second-next advance (table
	// sources recycle their readahead buffers after that).
	peek() (entry, bool)
	// advance moves past the current entry.
	advance()
	// err reports why the source stopped: nil for clean exhaustion,
	// non-nil for corruption detected mid-walk.
	err() error
}

// memSource adapts a skiplist iterator over a memtable that may still be
// taking writes: the commit path inserts under the memtable's own lock, not
// db.mu, so every step of the walk takes that lock shared. Nodes are never
// unlinked, so the cursor stays valid between steps.
type memSource struct {
	mt  *memtable
	it  *skipIterator
	cur entry
	ok  bool
}

// newMemSource returns a source over mt's entries with key >= start.
func newMemSource(mt *memtable, start []byte) *memSource {
	s := &memSource{mt: mt, it: mt.list.iterator()}
	mt.mu.RLock()
	if start != nil {
		s.it.seekGE(start)
	} else {
		s.it.next()
	}
	s.load()
	mt.mu.RUnlock()
	return s
}

// load caches the entry under the cursor. Called with mt.mu held.
func (s *memSource) load() {
	if s.ok = s.it.valid(); s.ok {
		s.cur = entry{key: s.it.key(), value: s.it.value(), tombstone: s.it.tombstone()}
	}
}

func (s *memSource) peek() (entry, bool) { return s.cur, s.ok }

// err is always nil: memtable walks cannot fail.
func (s *memSource) err() error { return nil }

func (s *memSource) advance() {
	s.mt.mu.RLock()
	s.it.next()
	s.load()
	s.mt.mu.RUnlock()
}

// tableSource adapts a tableIterator.
type tableSource struct {
	it  *tableIterator
	cur entry
	ok  bool
}

func newTableSource(t *tableReader, start []byte) *tableSource {
	s := &tableSource{it: t.iterator(start)}
	s.advance()
	return s
}

// newTableSourceBypass is the compaction variant: the walk streams through
// private readahead only, never consulting or populating the shared block
// cache, so a background merge cannot evict the hot point-read set.
func newTableSourceBypass(t *tableReader) *tableSource {
	s := &tableSource{it: t.iteratorOpts(nil, false)}
	s.advance()
	return s
}

func (s *tableSource) peek() (entry, bool) { return s.cur, s.ok }

// err surfaces block-framing corruption detected by the table iterator.
func (s *tableSource) err() error { return s.it.err }

func (s *tableSource) advance() {
	s.cur, s.ok = s.it.nextEntry()
}

// bytesConsumed reports block bytes this source has touched.
func (s *tableSource) bytesConsumed() int { return s.it.read }

// close ends the walk and recycles its readahead buffers; entries obtained
// from the source must no longer be read.
func (s *tableSource) close() {
	s.it.close()
	s.ok = false
}

// mergeIterator merges sources by key, resolving duplicates in favour of
// the lowest-indexed (newest) source. Tombstones are surfaced as entries
// with tombstone=true; callers decide whether to skip or keep them.
//
// It is a binary min-heap of source indexes ordered by (head key, index),
// with every live source's head entry cached in heads: an output entry costs
// one advance per source holding that key plus O(log k) key compares, not a
// pass over all k sources. The entry handed out was its source's head one
// advance ago, which is why sources keep an entry intact across the advance
// that follows it (see source).
type mergeIterator struct {
	sources []source
	heads   []entry // heads[i] is source i's current entry while i is in heap
	heap    []int   // live source indexes, min (key, index) at heap[0]
	cur     entry
	failed  error
}

func newMergeIterator(sources []source) *mergeIterator {
	m := &mergeIterator{
		sources: sources,
		heads:   make([]entry, len(sources)),
		heap:    make([]int, 0, len(sources)),
	}
	for i, s := range sources {
		e, ok := s.peek()
		if ok {
			m.heads[i] = e
			m.heap = append(m.heap, i)
		} else if err := s.err(); err != nil && m.failed == nil {
			m.failed = err
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m
}

// err reports the first source failure the merge encountered. A truncated
// source with a non-nil err poisons the whole merge: returning the surviving
// sources' entries would present a silently incomplete view.
func (m *mergeIterator) err() error { return m.failed }

// less orders heap slots by head key, ties by source index (newest first).
func (m *mergeIterator) less(a, b int) bool {
	sa, sb := m.heap[a], m.heap[b]
	if c := bytes.Compare(m.heads[sa].key, m.heads[sb].key); c != 0 {
		return c < 0
	}
	return sa < sb
}

func (m *mergeIterator) siftDown(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(m.heap) && m.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < len(m.heap) && m.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		m.heap[i], m.heap[least] = m.heap[least], m.heap[i]
		i = least
	}
}

// advanceTop moves the source at the top of the heap past its head and
// restores heap order, dropping the source once exhausted. A source that
// stopped on an error latches it: the entry being assembled is still
// returned (it precedes the damage), the next call to next fails.
func (m *mergeIterator) advanceTop() {
	i := m.heap[0]
	s := m.sources[i]
	s.advance()
	if e, ok := s.peek(); ok {
		m.heads[i] = e
	} else {
		if err := s.err(); err != nil && m.failed == nil {
			m.failed = err
		}
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	m.siftDown(0)
}

// next advances to the next distinct key and reports availability.
func (m *mergeIterator) next() bool {
	if m.failed != nil || len(m.heap) == 0 {
		return false
	}
	// The top is the newest source holding the smallest key. Consume it and
	// every older duplicate of that key; equal keys surface in source order,
	// so the first failure latched is the lowest-indexed source's.
	m.cur = m.heads[m.heap[0]]
	m.advanceTop()
	for len(m.heap) > 0 && bytes.Equal(m.heads[m.heap[0]].key, m.cur.key) {
		m.advanceTop()
	}
	return true
}

func (m *mergeIterator) entry() entry { return m.cur }
