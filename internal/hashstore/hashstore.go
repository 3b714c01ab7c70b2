// Package hashstore implements a hash-indexed key-value store with in-place
// deletion — one of the alternatives the paper's Finding 5 recommends for
// classes where scans never happen and deletes are frequent.
//
// Layout: values live in append-only segment files; an in-memory hash index
// maps each key to (segment, offset, length). Deletes remove the index entry
// immediately (no tombstone) and account garbage; when a segment's garbage
// ratio passes a threshold it is rewritten, reclaiming space without the
// global ordering work an LSM compaction performs.
package hashstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ethkv/internal/kv"
	"ethkv/internal/obs"
)

// record layout within a segment:
//
//	keyLen uvarint | key | valueLen uvarint | value

// segmentTargetBytes is the roll-over size for the active segment.
const segmentTargetBytes = 4 << 20

// gcGarbageRatio triggers segment rewrite once dead bytes exceed this share.
const gcGarbageRatio = 0.5

// errCorruptRecord marks a segment record whose framing does not decode. The
// index locates records by (segment, offset, length); damage inside that
// extent is only noticed when the record is actually read.
var errCorruptRecord = errors.New("hashstore: corrupt record")

// location addresses one live record.
type location struct {
	segment uint32
	offset  uint32
	length  uint32
}

// segment is one append-only value file held in memory with its backing
// file (the file is the durability story; reads come from memory).
type segment struct {
	id      uint32
	buf     []byte
	garbage int // dead bytes from deleted/overwritten records
}

// Store is the hash-based KV store. It implements kv.Store except ordered
// iteration, which it refuses by design (scans require order maintenance —
// exactly the cost this structure avoids). NewIterator returns entries in
// unspecified order.
type Store struct {
	mu     sync.RWMutex
	dir    string
	index  map[string]location
	segs   map[uint32]*segment
	active *segment
	nextID uint32
	closed bool
	// statsMu guards stats on paths that hold only mu.RLock (Get, scans):
	// concurrent readers must not race on the counters. Write paths hold
	// mu exclusively, which already excludes every RLock holder.
	statsMu sync.Mutex
	stats   kv.Stats
	gcRuns  uint64
}

var _ kv.Store = (*Store)(nil)
var _ kv.StatsProvider = (*Store)(nil)

// Open creates or reopens a hash store in dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		index: make(map[string]location),
		segs:  make(map[uint32]*segment),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	if s.active == nil {
		s.rollSegment()
	}
	return s, nil
}

// load reads the segment files and rebuilds the index — preferably from
// the INDEX snapshot a clean Close leaves behind (which is what makes
// deletes durable: records carry no tombstones, so replaying raw segments
// would resurrect deleted keys). A missing, stale, or inconsistent
// snapshot falls back to record replay, the store's pre-snapshot behavior.
func (s *Store) load() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.dat"))
	if err != nil {
		return err
	}
	for _, name := range names {
		var id uint32
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.dat", &id); err != nil {
			continue
		}
		buf, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		seg := &segment{id: id, buf: buf}
		s.segs[id] = seg
		if id >= s.nextID {
			s.nextID = id + 1
			s.active = seg
		}
	}
	if s.loadIndexSnapshot() {
		return nil
	}
	// Replay records in segment order, newest last so later records win.
	// Deletes made after the last snapshot are lost here — this store is
	// durable across clean shutdown, not crash-safe.
	ids := make([]uint32, 0, len(s.segs))
	for id := range s.segs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		buf := s.segs[id].buf
		off := 0
		for off < len(buf) {
			rec := buf[off:]
			klen, n := binary.Uvarint(rec)
			if n <= 0 {
				break
			}
			rec = rec[n:]
			if uint64(len(rec)) < klen {
				break
			}
			key := rec[:klen]
			rec = rec[klen:]
			vlen, m := binary.Uvarint(rec)
			if m <= 0 || uint64(len(rec)-m) < vlen {
				break
			}
			total := n + int(klen) + m + int(vlen)
			if old, ok := s.index[string(key)]; ok {
				s.segs[old.segment].garbage += int(old.length)
			}
			s.index[string(key)] = location{segment: id, offset: uint32(off), length: uint32(total)}
			off += total
		}
	}
	return nil
}

// indexPath names the index snapshot a clean Close writes.
func (s *Store) indexPath() string { return filepath.Join(s.dir, "INDEX") }

// loadIndexSnapshot restores the index from the Close-time catalog. It
// reports false — demanding a replay fallback — on any inconsistency:
// missing file, unknown version, a segment newer than the snapshot (a
// crash happened after the last clean close), or a location outside its
// segment's bounds.
func (s *Store) loadIndexSnapshot() bool {
	raw, err := os.ReadFile(s.indexPath())
	if err != nil {
		return false
	}
	get := func() (uint64, bool) {
		v, n := binary.Uvarint(raw)
		if n <= 0 {
			return 0, false
		}
		raw = raw[n:]
		return v, true
	}
	version, ok := get()
	if !ok || version != 1 {
		return false
	}
	snapNext, ok := get()
	if !ok {
		return false
	}
	for id := range s.segs {
		if uint64(id) >= snapNext {
			return false // segment written after the snapshot: stale
		}
	}
	count, ok := get()
	if !ok {
		return false
	}
	idx := make(map[string]location, count)
	for i := uint64(0); i < count; i++ {
		klen, ok := get()
		if !ok || uint64(len(raw)) < klen {
			return false
		}
		key := string(raw[:klen])
		raw = raw[klen:]
		segID, ok1 := get()
		off, ok2 := get()
		length, ok3 := get()
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		seg, exists := s.segs[uint32(segID)]
		if !exists || off+length > uint64(len(seg.buf)) {
			return false
		}
		idx[key] = location{segment: uint32(segID), offset: uint32(off), length: uint32(length)}
	}
	s.index = idx
	// Everything not referenced by the snapshot is garbage.
	live := make(map[uint32]int)
	for _, loc := range idx {
		live[loc.segment] += int(loc.length)
	}
	for id, seg := range s.segs {
		seg.garbage = len(seg.buf) - live[id]
	}
	if snapNext > uint64(s.nextID) {
		s.nextID = uint32(snapNext)
	}
	return true
}

// persistIndex writes the key→location catalog atomically. This snapshot
// is the durability story for deletes: the record log never learns about
// them.
func (s *Store) persistIndex() error {
	var buf []byte
	buf = binary.AppendUvarint(buf, 1) // version
	buf = binary.AppendUvarint(buf, uint64(s.nextID))
	buf = binary.AppendUvarint(buf, uint64(len(s.index)))
	for keyStr, loc := range s.index {
		buf = binary.AppendUvarint(buf, uint64(len(keyStr)))
		buf = append(buf, keyStr...)
		buf = binary.AppendUvarint(buf, uint64(loc.segment))
		buf = binary.AppendUvarint(buf, uint64(loc.offset))
		buf = binary.AppendUvarint(buf, uint64(loc.length))
	}
	tmp := s.indexPath() + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.indexPath())
}

// rollSegment starts a fresh active segment.
func (s *Store) rollSegment() {
	seg := &segment{id: s.nextID}
	s.nextID++
	s.segs[seg.id] = seg
	s.active = seg
}

// segPath names a segment file.
func (s *Store) segPath(id uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%06d.dat", id))
}

// Put implements kv.Writer.
func (s *Store) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return kv.ErrClosed
	}
	var rec []byte
	rec = binary.AppendUvarint(rec, uint64(len(key)))
	rec = append(rec, key...)
	rec = binary.AppendUvarint(rec, uint64(len(value)))
	rec = append(rec, value...)

	if old, ok := s.index[string(key)]; ok {
		s.segs[old.segment].garbage += int(old.length)
	}
	off := len(s.active.buf)
	s.active.buf = append(s.active.buf, rec...)
	s.index[string(key)] = location{segment: s.active.id, offset: uint32(off), length: uint32(len(rec))}

	s.stats.Puts++
	s.stats.LogicalBytesWritten += uint64(len(key) + len(value))
	s.stats.PhysicalBytesWrite += uint64(len(rec))
	if len(s.active.buf) >= segmentTargetBytes {
		if err := s.persistSegment(s.active); err != nil {
			return err
		}
		s.rollSegment()
	}
	return s.maybeGC()
}

// Delete implements kv.Writer: the index entry vanishes immediately and the
// record bytes become garbage — no tombstone is ever written.
func (s *Store) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return kv.ErrClosed
	}
	s.stats.Deletes++
	loc, ok := s.index[string(key)]
	if !ok {
		return nil
	}
	delete(s.index, string(key))
	s.segs[loc.segment].garbage += int(loc.length)
	return s.maybeGC()
}

// Get implements kv.Reader: a single index probe and one record read.
func (s *Store) Get(key []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, kv.ErrClosed
	}
	s.statsMu.Lock()
	s.stats.Gets++
	s.statsMu.Unlock()
	loc, ok := s.index[string(key)]
	if !ok {
		return nil, kv.ErrNotFound
	}
	value, err := s.readValue(loc)
	if err != nil {
		return nil, err
	}
	s.statsMu.Lock()
	s.stats.LogicalBytesRead += uint64(len(value))
	s.stats.PhysicalBytesRead += uint64(loc.length)
	s.statsMu.Unlock()
	return value, nil
}

// readValue decodes the value portion of the record at loc. Every access is
// bounds-checked against the segment: a record whose interior was damaged
// surfaces errCorruptRecord instead of panicking or returning garbage of the
// wrong extent.
func (s *Store) readValue(loc location) ([]byte, error) {
	seg, ok := s.segs[loc.segment]
	if !ok || uint64(loc.offset)+uint64(loc.length) > uint64(len(seg.buf)) {
		return nil, fmt.Errorf("%w: location %d/%d+%d out of range", errCorruptRecord,
			loc.segment, loc.offset, loc.length)
	}
	rec := seg.buf[loc.offset : loc.offset+loc.length]
	klen, n := binary.Uvarint(rec)
	if n <= 0 || uint64(len(rec)-n) < klen {
		return nil, fmt.Errorf("%w: key framing at %d/%d", errCorruptRecord, loc.segment, loc.offset)
	}
	rec = rec[uint64(n)+klen:]
	vlen, m := binary.Uvarint(rec)
	if m <= 0 || uint64(len(rec)-m) < vlen {
		return nil, fmt.Errorf("%w: value framing at %d/%d", errCorruptRecord, loc.segment, loc.offset)
	}
	return append([]byte(nil), rec[uint64(m):uint64(m)+vlen]...), nil
}

// Has implements kv.Reader.
func (s *Store) Has(key []byte) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false, kv.ErrClosed
	}
	_, ok := s.index[string(key)]
	return ok, nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// maybeGC rewrites sealed segments whose garbage share exceeds the
// threshold. Called with s.mu held.
func (s *Store) maybeGC() error {
	for id, seg := range s.segs {
		if seg == s.active || len(seg.buf) == 0 {
			continue
		}
		if float64(seg.garbage)/float64(len(seg.buf)) < gcGarbageRatio {
			continue
		}
		if err := s.rewriteSegment(id, seg); err != nil {
			return err
		}
	}
	return nil
}

// rewriteSegment copies the live records of seg into the active segment and
// drops the old file. Only records in this one segment move — this is the
// "limited GC range" property §V calls out.
func (s *Store) rewriteSegment(id uint32, seg *segment) error {
	for keyStr, loc := range s.index {
		if loc.segment != id {
			continue
		}
		rec := seg.buf[loc.offset : loc.offset+loc.length]
		off := len(s.active.buf)
		s.active.buf = append(s.active.buf, rec...)
		s.index[keyStr] = location{segment: s.active.id, offset: uint32(off), length: loc.length}
		s.stats.PhysicalBytesWrite += uint64(len(rec))
		s.stats.PhysicalBytesRead += uint64(len(rec))
	}
	delete(s.segs, id)
	s.gcRuns++
	if err := os.Remove(s.segPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if len(s.active.buf) >= segmentTargetBytes {
		if err := s.persistSegment(s.active); err != nil {
			return err
		}
		s.rollSegment()
	}
	return nil
}

// persistSegment writes a sealed segment to disk.
func (s *Store) persistSegment(seg *segment) error {
	return os.WriteFile(s.segPath(seg.id), seg.buf, 0o644)
}

// GCRuns reports how many segment rewrites have occurred.
func (s *Store) GCRuns() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gcRuns
}

// RegisterMetrics implements kv.MetricsRegistrar: the shared kv.Stats gauges
// plus this structure's own shape — segment count, live keys, GC activity.
func (s *Store) RegisterMetrics(r *obs.Registry, labels ...string) {
	if r == nil {
		return
	}
	kv.RegisterStatsMetrics(r, s, labels...)
	r.GaugeFunc(obs.Name("ethkv_hash_segments", labels...), func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.segs))
	})
	r.GaugeFunc(obs.Name("ethkv_hash_live_keys", labels...), func() float64 {
		return float64(s.Len())
	})
	r.GaugeFunc(obs.Name("ethkv_hash_gc_runs", labels...), func() float64 {
		return float64(s.GCRuns())
	})
}

// NewIterator implements kv.Iterable. Order is UNSPECIFIED (hash order):
// this structure intentionally does not maintain key order. Callers that
// need ordered scans must use an ordered store.
func (s *Store) NewIterator(prefix, start []byte) kv.Iterator {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.statsMu.Lock()
	s.stats.Scans++
	s.statsMu.Unlock()
	var keys []string
	var values [][]byte
	var deferred error
	for keyStr, loc := range s.index {
		key := []byte(keyStr)
		if len(prefix) > 0 && !hasPrefix(key, prefix) {
			continue
		}
		v, err := s.readValue(loc)
		if err != nil {
			// Stop collecting: the iterator yields what decoded cleanly and
			// reports the corruption through Error(), never a silent subset.
			deferred = err
			break
		}
		keys = append(keys, keyStr)
		values = append(values, v)
	}
	return &unorderedIterator{keys: keys, values: values, pos: -1, err: deferred}
}

func hasPrefix(b, prefix []byte) bool {
	if len(b) < len(prefix) {
		return false
	}
	for i, p := range prefix {
		if b[i] != p {
			return false
		}
	}
	return true
}

type unorderedIterator struct {
	keys   []string
	values [][]byte
	pos    int
	err    error
}

func (it *unorderedIterator) Next() bool {
	if it.pos+1 >= len(it.keys) {
		return false
	}
	it.pos++
	return true
}

func (it *unorderedIterator) Key() []byte {
	if it.pos < 0 {
		return nil
	}
	return []byte(it.keys[it.pos])
}

func (it *unorderedIterator) Value() []byte {
	if it.pos < 0 {
		return nil
	}
	return it.values[it.pos]
}

func (it *unorderedIterator) Release() {}

// Error surfaces a record-decode failure hit while the snapshot was built; a
// scan that stopped early because of corruption must not look like a
// complete result.
func (it *unorderedIterator) Error() error { return it.err }

// NewBatch implements kv.Batcher.
func (s *Store) NewBatch() kv.Batch { return &batch{store: s} }

// batch is the store's kv.Batch: ops apply one by one (each Put and Delete
// is already a complete append), so a batch buys grouping, not atomicity.
type batch struct {
	kv.OpBatch
	store *Store
}

func (b *batch) Write() error { return b.Replay(b.store) }

// Stats implements kv.StatsProvider.
func (s *Store) Stats() kv.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// Close seals the active segment and the index snapshot to disk and shuts
// the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if len(s.active.buf) > 0 {
		if err := s.persistSegment(s.active); err != nil {
			return err
		}
	}
	return s.persistIndex()
}
