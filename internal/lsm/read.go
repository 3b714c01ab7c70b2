package lsm

import (
	"bytes"
	"sort"

	"ethkv/internal/kv"
)

// lookup is the point-read path shared by Get and Has: find the newest entry
// for key, account the read, and return the live value or kv.ErrNotFound.
// With copyOut (Get) the value is the caller's own copy; without (Has) it is
// a read-only view of memtable or block-cache memory, or nil when the entry
// is a blob handle: Has answers from the handle alone, and Get reads a
// separated value once, straight into the copy it returns, with db.mu still
// held — which is what keeps the table and its blob files open.
//
// A read of cached data writes shared memory a fixed number of times however
// many tables it probes: db.mu's reader count (in and out), one block-cache
// shard lock per block searched, and its stripe of the read counters. The
// memtables cost nothing while empty or frozen, and the tables' readers come
// with the version (DESIGN.md §20).
func (db *DB) lookup(key []byte, copyOut bool) ([]byte, error) {
	hash := bloomHash(key)
	var rc readCounts
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return nil, kv.ErrClosed
	}
	v, blob, found, deleted, err := db.searchLocked(key, hash, &rc)
	size, owned := len(v), false
	if err == nil && found && !deleted && blob != nil {
		var h blobHandle
		if h, err = decodeHandle(v); err == nil {
			size = int(h.length)
		}
		if err == nil && copyOut {
			v, err = blob.readBlob(nil, v)
			rc.physicalBytes += size
		} else {
			v = nil
		}
		owned = true
	}
	db.mu.RUnlock()
	if err == nil && (!found || deleted) {
		v, size, err = nil, 0, kv.ErrNotFound
	}
	db.stats.reads.publish(hash, size, &rc)
	if err != nil {
		return nil, err
	}
	if copyOut && !owned {
		v = append([]byte(nil), v...)
	}
	return v, nil
}

// searchLocked consults the memtable, the frozen memtables newest-first, L0
// newest-first (its files may overlap), then the one candidate table of each
// deeper level, and stops at the first entry for key, live or tombstone.
// When the entry is a blob handle, blob is the table holding it. Called with
// db.mu held shared — which is also what keeps every table of db.current, and
// so its reader, from being retired underneath it.
func (db *DB) searchLocked(key []byte, hash uint64, rc *readCounts) (v []byte, blob *tableReader, found, deleted bool, err error) {
	if v, found, deleted = db.mem.get(key); found {
		return v, nil, found, deleted, nil
	}
	for i := len(db.imm) - 1; i >= 0; i-- {
		if v, found, deleted = db.imm[i].mem.getFrozen(key); found {
			return v, nil, found, deleted, nil
		}
	}
	l0 := db.current[0]
	for i := len(l0) - 1; i >= 0; i-- {
		if v, blob, found, deleted, err = db.tableGet(&l0[i], key, hash, rc); found || err != nil {
			return v, blob, found, deleted, err
		}
	}
	for _, metas := range db.current[1:] {
		i := sort.Search(len(metas), func(i int) bool {
			return bytes.Compare(metas[i].largest, key) >= 0
		})
		if i == len(metas) || bytes.Compare(metas[i].smallest, key) > 0 {
			continue
		}
		if v, blob, found, deleted, err = db.tableGet(&metas[i], key, hash, rc); found || err != nil {
			return v, blob, found, deleted, err
		}
	}
	return nil, nil, false, false, nil
}

// tableGet probes one table of the version. Called with db.mu held.
func (db *DB) tableGet(m *tableMeta, key []byte, hash uint64, rc *readCounts) (v []byte, blob *tableReader, found, deleted bool, err error) {
	t, err := db.table(m)
	if err != nil {
		return nil, nil, false, false, err
	}
	v, flags, found, err := t.get(key, hash, rc)
	if flags&flagBlob != 0 {
		blob = t
	}
	return v, blob, found, flags&flagTombstone != 0, err
}

// prefixSuccessor returns the smallest key greater than every key with the
// given prefix, or nil when no such bound exists (empty or all-0xFF prefix).
// It is the exclusive upper bound of a prefix scan.
func prefixSuccessor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xFF {
			upper := append([]byte(nil), prefix[:i+1]...)
			upper[i]++
			return upper
		}
	}
	return nil
}

// NewIterator implements kv.Iterable: a merged scan over the entire tree.
func (db *DB) NewIterator(prefix, start []byte) kv.Iterator {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return kv.ErrIterator(kv.ErrClosed)
	}
	db.stats.scans.Add(1)
	lower := append(append([]byte(nil), prefix...), start...)
	// Exclusive upper bound: a table whose smallest key is at or past the
	// prefix successor cannot contribute and need not be opened at all.
	upper := prefixSuccessor(prefix)

	// Table references live until Release: a compaction may delete source
	// files mid-scan, and the iterator's refs keep the handles (and the OS
	// file contents) alive until the walk finishes.
	var (
		sources []source
		readers []*tableReader
	)
	fail := func(err error) kv.Iterator {
		for _, t := range readers {
			t.unref()
		}
		return kv.ErrIterator(err)
	}
	sources = append(sources, newMemSource(db.mem, lower))
	for i := len(db.imm) - 1; i >= 0; i-- {
		sources = append(sources, newMemSource(db.imm[i].mem, lower))
	}
	// One run per L0 table, newest first (they may overlap), and one per
	// deeper level.
	addRun := func(metas []tableMeta) error {
		s, err := db.openRun(metas, lower, upper, true, &readers)
		if s != nil {
			sources = append(sources, s)
		}
		return err
	}
	l0 := db.current[0]
	for i := len(l0) - 1; i >= 0; i-- {
		if err := addRun(l0[i : i+1]); err != nil {
			return fail(err)
		}
	}
	for _, metas := range db.current[1:] {
		if err := addRun(metas); err != nil {
			return fail(err)
		}
	}
	return &dbIterator{
		db:      db,
		merged:  newMergeIterator(sources),
		prefix:  append([]byte(nil), prefix...),
		readers: readers,
	}
}

// dbIterator adapts mergeIterator to kv.Iterator, hiding tombstones,
// enforcing the prefix bound and resolving blob handles: a separated value
// is read with one ReadAt into the iterator's value buffer, through the
// blob files its table reader holds open.
type dbIterator struct {
	db       *DB
	merged   *mergeIterator
	prefix   []byte
	key      []byte
	value    []byte
	done     bool
	released bool
	readers  []*tableReader // table references released at Release
	blobRead int            // blob bytes read, published at Release
	err      error          // a handle that failed to resolve
}

func (it *dbIterator) Next() bool {
	if it.done {
		return false
	}
	for it.merged.next() {
		e := it.merged.entry()
		if !bytes.HasPrefix(e.key, it.prefix) {
			it.done = true
			return false
		}
		if e.tombstone {
			continue
		}
		it.key = append(it.key[:0], e.key...)
		if !e.handle {
			it.value = append(it.value[:0], e.value...)
			return true
		}
		t := it.merged.sources[it.merged.curSource].(*runSource).last.t
		v, err := t.readBlob(it.value, e.value)
		if err != nil {
			it.err = err
			break
		}
		it.value = v
		it.blobRead += len(v)
		return true
	}
	it.done = true
	return false
}

func (it *dbIterator) Key() []byte   { return it.key }
func (it *dbIterator) Value() []byte { return it.value }

// Release ends the scan, recycles its readahead buffers and drops the
// iterator's table references (idempotent); files a compaction obsoleted
// mid-scan close here on the last reference. The scan's disk fetches land in
// the physical-read counter here — block-cache hits cost zero, so a fully
// cached scan adds nothing.
func (it *dbIterator) Release() {
	if !it.released {
		it.released, it.done = true, true
		var read uint64
		for _, s := range it.merged.sources {
			if rs, ok := s.(*runSource); ok {
				rs.close()
				read += uint64(rs.read)
			}
		}
		it.db.stats.reads.addPhysical(read + uint64(it.blobRead))
	}
	for _, t := range it.readers {
		t.unref()
	}
	it.readers = nil
}

// Error surfaces corruption detected mid-scan. A scan that stopped early
// because a table's block framing was broken reports it here rather than
// masquerading as a clean short result.
func (it *dbIterator) Error() error {
	if it.err != nil {
		return it.err
	}
	return it.merged.err()
}
