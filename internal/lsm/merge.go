package lsm

import "bytes"

// source is a uniform cursor over one level of the LSM tree (memtable or
// table). Sources are ordered by recency: source 0 shadows source 1, etc.
type source interface {
	// peek returns the current entry without advancing. ok=false means
	// exhausted — or failed; callers distinguish via err.
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
func newTableSourceBypass(t *tableReader, start []byte) *tableSource {
	s := &tableSource{it: t.iteratorOpts(start, false)}
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

// mergeIterator merges sources by key, resolving duplicates in favour of
// the lowest-indexed (newest) source. Tombstones are surfaced as entries
// with tombstone=true; callers decide whether to skip or keep them.
type mergeIterator struct {
	sources []source
	cur     entry
	ok      bool
	failed  error
}

func newMergeIterator(sources []source) *mergeIterator {
	return &mergeIterator{sources: sources}
}

// err reports the first source failure the merge encountered. A truncated
// source with a non-nil err poisons the whole merge: returning the surviving
// sources' entries would present a silently incomplete view.
func (m *mergeIterator) err() error { return m.failed }

// next advances to the next distinct key and reports availability.
func (m *mergeIterator) next() bool {
	if m.failed != nil {
		m.ok = false
		return false
	}
	// Find the smallest key among sources; ties resolved by source order.
	best := -1
	var bestEnt entry
	for i, s := range m.sources {
		e, ok := s.peek()
		if !ok {
			if err := s.err(); err != nil {
				m.failed = err
				m.ok = false
				return false
			}
			continue
		}
		if best == -1 || bytes.Compare(e.key, bestEnt.key) < 0 {
			best, bestEnt = i, e
		}
	}
	if best == -1 {
		m.ok = false
		return false
	}
	// Consume the winner and every older duplicate of the same key.
	for _, s := range m.sources {
		for {
			e, ok := s.peek()
			if !ok || !bytes.Equal(e.key, bestEnt.key) {
				break
			}
			s.advance()
		}
	}
	m.cur, m.ok = bestEnt, true
	return true
}

func (m *mergeIterator) entry() entry { return m.cur }
