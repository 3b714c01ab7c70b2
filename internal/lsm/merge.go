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

// runSource walks a key-ordered run of disjoint tables as one merge source:
// a level of L1 and deeper, or one L0 table. Each table's walk starts at the
// run's start key and only once the walk before it is exhausted, so a run
// holds one table's buffers however many tables it has. The walk that
// produced the previous head stays open until the next advance (the source
// lifetime rule), and it is the table that head came from: a blob handle the
// merge handed out resolves through last.
type runSource struct {
	tables     []*tableReader // tables still to walk
	start      []byte
	checkCache bool
	cur        *tableIterator // the walk holding the head
	ok         bool           // cur holds a head
	last       *tableIterator // the walk the previous head came from
	read       int            // bytes fetched by ended walks
}

// newRunSource returns a source over tables, which must be non-empty,
// key-ordered and disjoint, positioned at the first entry with key >= start
// (every entry when start is nil). checkCache is the walks' cache policy
// (tableReader.iterator).
func newRunSource(tables []*tableReader, start []byte, checkCache bool) *runSource {
	s := &runSource{tables: tables[1:], start: start, checkCache: checkCache}
	s.cur = tables[0].iterator(start, checkCache)
	s.step()
	return s
}

// openRun takes a reference on each table of metas that can hold keys in
// [lower, upper) — nil bounds are open — adding its reader to readers for the
// caller to unref, and returns them as one run from lower; nil when none
// can. metas must be key-ordered and disjoint, or a single table.
func (db *DB) openRun(metas []tableMeta, lower, upper []byte, checkCache bool, readers *[]*tableReader) (*runSource, error) {
	var run []*tableReader
	for i := range metas {
		m := &metas[i]
		if bytes.Compare(m.largest, lower) < 0 || upper != nil && bytes.Compare(m.smallest, upper) >= 0 {
			continue
		}
		t, err := db.acquire(m)
		if err != nil {
			return nil, err
		}
		*readers = append(*readers, t)
		run = append(run, t)
	}
	if len(run) == 0 {
		return nil, nil
	}
	return newRunSource(run, lower, checkCache), nil
}

// step moves the run to its next entry: on in the current walk, then into
// each following table until a walk yields an entry or fails, or the run
// ends.
func (s *runSource) step() {
	for {
		if s.ok = s.cur.next(); s.ok || s.cur.err != nil || len(s.tables) == 0 {
			return
		}
		if s.cur != s.last {
			s.end(s.cur)
		}
		s.cur, s.tables = s.tables[0].iterator(s.start, s.checkCache), s.tables[1:]
	}
}

func (s *runSource) peek() (entry, bool) { return s.cur.cur, s.ok }

// err surfaces corruption or an I/O failure the current walk latched.
func (s *runSource) err() error { return s.cur.err }

func (s *runSource) advance() {
	if s.last != s.cur {
		s.end(s.last)
	}
	s.last = s.cur
	s.step()
}

// end closes walk w, if any, and counts the bytes it fetched; it is
// idempotent.
func (s *runSource) end(w *tableIterator) {
	if w != nil {
		s.read += w.read
		w.read = 0
		w.close()
	}
}

// close ends the run; entries obtained from it must no longer be read. It
// is idempotent.
func (s *runSource) close() {
	s.end(s.last)
	s.end(s.cur)
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
	// curSource is the source cur came from, which resolves a blob handle
	// in it (runSource.last).
	curSource int
	failed    error
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
	m.curSource = m.heap[0]
	m.cur = m.heads[m.curSource]
	m.advanceTop()
	for len(m.heap) > 0 && bytes.Equal(m.heads[m.heap[0]].key, m.cur.key) {
		m.advanceTop()
	}
	return true
}

func (m *mergeIterator) entry() entry { return m.cur }
