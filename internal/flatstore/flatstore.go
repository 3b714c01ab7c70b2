// Package flatstore implements the single-seek flat backend the paper's
// Finding 3 motivates for world-state classes: an append-only entry file on
// disk plus a fully resident in-memory index mapping every live key to its
// record's file offset. A point read is index lookup + one ReadAt — no
// level walk, no block index, no bloom filters — trading memory (the whole
// key set stays resident) for the minimum possible read amplification.
//
// On-disk format: one entry file per generation, a flat sequence of
// records. Every record is
//
//	kind(1) | klen uvarint | vlen uvarint | key | value | crc32(4)
//
// with the IEEE crc32 covering every preceding byte of the record. kind 0
// is a put, kind 1 a tombstone (vlen 0), kind 2 a group: its "key" field
// holds concatenated sub-records, each a complete standalone record with
// its own crc, so the group commits a batch atomically while compaction
// can still copy any live sub-record extent verbatim.
//
// Durability is sync-on-batch, WAL-free: the entry file IS the log. Single
// puts and deletes append without syncing (un-acked until the next
// barrier); Batch.Write appends one group record and syncs, which durably
// covers the whole file prefix. Recovery replays the active file to the
// last valid record and truncates the torn tail in place; a group whose
// crc fails drops the whole batch — all-or-nothing.
//
// Compaction rewrites the live record extents, in sorted key order, into a
// fresh generation file and commits the swap by rewriting the CURRENT
// pointer file (tmp + sync + rename), mirroring the manifest discipline of
// the LSM. Orphan generations are swept on open.
//
// All I/O goes through faultfs with the repository's bounded
// retry-with-backoff policy for transient faults; a permanent failure
// latches the store into sticky read-only degraded mode (kv.ErrDegraded).
package flatstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
	"ethkv/internal/obs"
)

// Record kinds.
const (
	kindPut       byte = 0
	kindTombstone byte = 1
	kindGroup     byte = 2
)

const crcLen = 4

// errCorrupt marks a record whose framing or checksum failed verification.
var errCorrupt = errors.New("flatstore: corrupt record")

// Options configures a Store. The zero value selects the real filesystem
// and the repository's default compaction policy.
type Options struct {
	// FS is the filesystem seam; nil selects faultfs.OS.
	FS faultfs.FS
	// CompactAfterDeadBytes arms automatic compaction once the dead bytes
	// (overwritten records, deleted records, tombstones, group framing) in
	// the entry file reach it AND dead bytes exceed compactDeadFraction of
	// the file. Zero selects the default (4 MiB); negative disables
	// automatic compaction (Compact can still be called explicitly).
	CompactAfterDeadBytes int64
}

// compactDeadFraction is the dead/total ratio that must also be exceeded
// before automatic compaction fires.
const compactDeadFraction = 0.5

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = faultfs.OS
	}
	if o.CompactAfterDeadBytes == 0 {
		o.CompactAfterDeadBytes = 4 << 20
	}
	return o
}

// entryRef locates one live record in the active entry file.
type entryRef struct {
	off  int64  // absolute file offset of the standalone record
	n    uint32 // encoded record length, header through crc
	vlen uint32 // decoded value length
}

// flatStats mirrors the kv.Stats fields the store tracks, with atomic
// fields so read-path counters never take the store lock.
type flatStats struct {
	gets, puts, deletes, scans            atomic.Uint64
	logicalBytesRead, logicalBytesWritten atomic.Uint64
	physicalBytesRead, physicalBytesWrite atomic.Uint64
	physicalReadOps                       atomic.Uint64
	ioRetries                             atomic.Uint64
	compactionCount, compactionRewrites   atomic.Uint64
	degraded                              atomic.Uint64
}

// Store is the flat single-seek backend. It implements kv.Store,
// kv.StatsProvider, and kv.MetricsRegistrar.
type Store struct {
	opts Options
	fs   faultfs.FS
	dir  string

	mu          sync.RWMutex
	index       map[string]entryRef
	gen         uint64
	size        int64        // logical end of the active entry file
	live        int64        // sum of indexed record lengths (live bytes)
	tombstones  uint64       // tombstone records present in the active file
	w           faultfs.File // append handle; doubles as the Get ReadAt seam
	closed      bool
	degradedErr error

	stats flatStats
}

var (
	_ kv.Store            = (*Store)(nil)
	_ kv.StatsProvider    = (*Store)(nil)
	_ kv.MetricsRegistrar = (*Store)(nil)
)

// Open opens (creating if needed) the flat store in dir.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{
		opts:  opts,
		fs:    opts.FS,
		dir:   dir,
		index: make(map[string]entryRef),
	}
	if err := s.retryIO(func() error { return s.fs.MkdirAll(dir) }); err != nil {
		return nil, fmt.Errorf("flatstore: mkdir %s: %w", dir, err)
	}

	// Resolve the active generation from the CURRENT pointer file;
	// bootstrap generation 1 on a fresh directory.
	gen, err := s.readCurrent()
	if errors.Is(err, fs.ErrNotExist) {
		gen = 1
		if err := s.bootstrap(gen); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, fmt.Errorf("flatstore: read CURRENT: %w", err)
	}
	s.gen = gen

	// Sweep generations a crashed compaction left behind: everything but
	// the file CURRENT points at is garbage.
	if err := s.sweepOrphans(); err != nil {
		return nil, err
	}

	// Replay the active file to the last valid record.
	data, err := s.readFileRetrying(s.genPath(gen))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("flatstore: read %s: %w", s.genPath(gen), err)
	}
	if len(data) > 0 {
		s.stats.physicalReadOps.Add(1)
		s.stats.physicalBytesRead.Add(uint64(len(data)))
	}
	ops, valid := replayData(data, 0, true)
	for _, op := range ops {
		if op.kind == kindTombstone {
			s.applyDeleteLocked(op.key)
		} else {
			s.applyPutLocked(op.key, entryRef{off: op.off, n: uint32(op.n), vlen: uint32(len(op.value))})
		}
	}
	s.size = valid

	if err := s.retryIO(func() error {
		var err error
		s.w, err = s.fs.OpenAppend(s.genPath(gen))
		return err
	}); err != nil {
		return nil, fmt.Errorf("flatstore: open %s: %w", s.genPath(gen), err)
	}
	// Cut any torn tail in place so appended records land contiguously
	// after the valid prefix.
	if valid < int64(len(data)) {
		if err := s.retryIO(func() error { return s.w.Truncate(valid) }); err != nil {
			s.w.Close()
			return nil, fmt.Errorf("flatstore: truncate torn tail of %s: %w", s.genPath(gen), err)
		}
	}
	return s, nil
}

func genName(gen uint64) string { return fmt.Sprintf("flat-%06d.log", gen) }

func (s *Store) genPath(gen uint64) string { return filepath.Join(s.dir, genName(gen)) }
func (s *Store) currentPath() string       { return filepath.Join(s.dir, "CURRENT") }

// readCurrent parses the CURRENT pointer file into a generation number.
func (s *Store) readCurrent() (uint64, error) {
	data, err := s.readFileRetrying(s.currentPath())
	if err != nil {
		return 0, err
	}
	var gen uint64
	name := string(bytes.TrimSpace(data))
	if _, err := fmt.Sscanf(name, "flat-%d.log", &gen); err != nil || gen == 0 {
		return 0, fmt.Errorf("flatstore: CURRENT names %q: %w", name, errCorrupt)
	}
	return gen, nil
}

// bootstrap creates the first generation file and points CURRENT at it. A
// crash between the two steps leaves an orphan entry file that the next
// bootstrap's Create truncates.
func (s *Store) bootstrap(gen uint64) error {
	err := s.retryIO(func() error {
		f, err := s.fs.Create(s.genPath(gen))
		if err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return fmt.Errorf("flatstore: create %s: %w", s.genPath(gen), err)
	}
	if err := s.writeCurrent(gen); err != nil {
		return fmt.Errorf("flatstore: install CURRENT: %w", err)
	}
	return nil
}

// writeCurrent atomically points CURRENT at gen via tmp + sync + rename.
func (s *Store) writeCurrent(gen uint64) error {
	tmp := s.currentPath() + ".tmp"
	err := s.retryIO(func() error {
		return faultfs.WriteFileSync(s.fs, tmp, []byte(genName(gen)+"\n"))
	})
	if err != nil {
		return err
	}
	return s.retryIO(func() error { return s.fs.Rename(tmp, s.currentPath()) })
}

// sweepOrphans removes entry files from interrupted compactions and any
// stale CURRENT.tmp.
func (s *Store) sweepOrphans() error {
	matches, err := s.fs.Glob(filepath.Join(s.dir, "flat-*.log"))
	if err != nil {
		return fmt.Errorf("flatstore: glob generations: %w", err)
	}
	current := s.genPath(s.gen)
	remove := func(path string) error {
		err := s.retryIO(func() error {
			if err := s.fs.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			return nil
		})
		return err
	}
	for _, m := range matches {
		if m == current {
			continue
		}
		if err := remove(m); err != nil {
			return fmt.Errorf("flatstore: sweep orphan %s: %w", m, err)
		}
	}
	if err := remove(s.currentPath() + ".tmp"); err != nil {
		return fmt.Errorf("flatstore: sweep CURRENT.tmp: %w", err)
	}
	return nil
}

func (s *Store) readFileRetrying(path string) ([]byte, error) {
	var data []byte
	err := s.retryIO(func() error {
		var err error
		data, err = s.fs.ReadFile(path)
		return err
	})
	return data, err
}

// retryIO runs one I/O operation under faultfs.Retry, counting retries in
// IORetries.
func (s *Store) retryIO(op func() error) error {
	return faultfs.Retry(&s.stats.ioRetries, op)
}

// setDegradedLocked latches read-only degraded mode after a permanent
// storage failure. Sticky: the first cause is kept.
func (s *Store) setDegradedLocked(err error) {
	if s.degradedErr != nil || err == nil {
		return
	}
	s.degradedErr = err
	s.stats.degraded.Store(1)
}

// writeGateLocked is the admission check shared by every mutation.
func (s *Store) writeGateLocked() error {
	if s.closed {
		return kv.ErrClosed
	}
	if s.degradedErr != nil {
		return kv.ErrDegraded
	}
	return nil
}

// appendLocked writes buf — one or more complete records — at the tail,
// with retries. An injected transient failure has no effect on the file,
// so retrying the whole buffer is safe; any terminal failure degrades the
// store. Returns the offset buf landed at.
func (s *Store) appendLocked(buf []byte) (int64, error) {
	off := s.size
	if err := s.retryIO(func() error {
		_, err := s.w.Write(buf)
		return err
	}); err != nil {
		s.setDegradedLocked(err)
		return 0, err
	}
	s.size += int64(len(buf))
	s.stats.physicalBytesWrite.Add(uint64(len(buf)))
	return off, nil
}

// applyPutLocked installs one live record in the index, retiring any
// record it shadows.
func (s *Store) applyPutLocked(key []byte, ref entryRef) {
	if old, ok := s.index[string(key)]; ok {
		s.live -= int64(old.n)
	}
	s.index[string(key)] = ref
	s.live += int64(ref.n)
}

// applyDeleteLocked retires key's record; the tombstone itself is dead
// weight the moment it is written.
func (s *Store) applyDeleteLocked(key []byte) {
	if old, ok := s.index[string(key)]; ok {
		delete(s.index, string(key))
		s.live -= int64(old.n)
	}
	s.tombstones++
}

// Put implements kv.Writer. The record is appended un-synced: it is acked
// only by the next durability barrier (a batch commit or Close).
func (s *Store) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeGateLocked(); err != nil {
		return err
	}
	buf := appendRecord(nil, kindPut, key, value)
	off, err := s.appendLocked(buf)
	if err != nil {
		return err
	}
	s.applyPutLocked(key, entryRef{off: off, n: uint32(len(buf)), vlen: uint32(len(value))})
	s.stats.puts.Add(1)
	s.stats.logicalBytesWritten.Add(uint64(len(key) + len(value)))
	s.maybeCompactLocked()
	return nil
}

// Delete implements kv.Writer by appending a tombstone. Deleting an
// absent key still logs the tombstone: replay must observe the same
// sequence the live index did.
func (s *Store) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeGateLocked(); err != nil {
		return err
	}
	buf := appendRecord(nil, kindTombstone, key, nil)
	if _, err := s.appendLocked(buf); err != nil {
		return err
	}
	s.applyDeleteLocked(key)
	s.stats.deletes.Add(1)
	s.stats.logicalBytesWritten.Add(uint64(len(key)))
	s.maybeCompactLocked()
	return nil
}

// Has implements kv.Reader from the resident index alone — no disk read.
func (s *Store) Has(key []byte) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false, kv.ErrClosed
	}
	_, ok := s.index[string(key)]
	return ok, nil
}

// Get implements kv.Reader: index lookup plus exactly one ReadAt of the
// record extent, whose crc is verified before the value is returned. A
// missing key costs zero disk reads. The value is a view of the record buffer
// this call allocated — private to the caller, clipped so an append cannot
// reach the checksum bytes behind it — not a second copy.
func (s *Store) Get(key []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, kv.ErrClosed
	}
	s.stats.gets.Add(1)
	ref, ok := s.index[string(key)]
	if !ok {
		return nil, kv.ErrNotFound
	}
	buf := make([]byte, ref.n)
	if err := s.retryIO(func() error {
		s.stats.physicalReadOps.Add(1)
		_, err := s.w.ReadAt(buf, ref.off)
		return err
	}); err != nil {
		return nil, err
	}
	s.stats.physicalBytesRead.Add(uint64(ref.n))
	r, _, err := parseRecord(buf)
	if err != nil || r.kind != kindPut || !bytes.Equal(r.key, key) {
		return nil, fmt.Errorf("flatstore: record at offset %d for key %x: %w", ref.off, key, errCorrupt)
	}
	s.stats.logicalBytesRead.Add(uint64(len(r.value)))
	return r.value[:len(r.value):len(r.value)], nil
}

// NewIterator implements kv.Iterable: a sorted snapshot of the matching
// index entries, read lazily record-by-record through a private handle
// pinned to the current generation (compaction may swap and delete the
// active file while the iterator walks). Each record's crc is verified; a
// damaged record latches the iterator's error — a scan never silently
// yields a subset.
func (s *Store) NewIterator(prefix, start []byte) kv.Iterator {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return &flatIterator{err: kv.ErrClosed, pos: -1}
	}
	s.stats.scans.Add(1)
	lower := string(prefix) + string(start)
	refs := make([]iterRef, 0)
	for k, ref := range s.index {
		if len(k) >= len(prefix) && k[:len(prefix)] == string(prefix) && k >= lower {
			refs = append(refs, iterRef{key: k, ref: ref})
		}
	}
	genPath := s.genPath(s.gen)
	var f faultfs.File
	err := s.retryIO(func() error {
		var e error
		f, e = s.fs.Open(genPath)
		return e
	})
	s.mu.RUnlock()
	if err != nil {
		return &flatIterator{err: err, pos: -1}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].key < refs[j].key })
	return &flatIterator{s: s, f: f, refs: refs, pos: -1}
}

type iterRef struct {
	key string
	ref entryRef
}

type flatIterator struct {
	s    *Store
	f    faultfs.File
	refs []iterRef
	pos  int
	key  []byte
	val  []byte
	err  error
}

func (it *flatIterator) Next() bool {
	if it.err != nil || it.pos+1 >= len(it.refs) {
		return false
	}
	it.pos++
	cur := it.refs[it.pos]
	buf := make([]byte, cur.ref.n)
	if err := it.s.retryIO(func() error {
		it.s.stats.physicalReadOps.Add(1)
		_, err := it.f.ReadAt(buf, cur.ref.off)
		return err
	}); err != nil {
		it.err = err
		return false
	}
	it.s.stats.physicalBytesRead.Add(uint64(cur.ref.n))
	r, _, err := parseRecord(buf)
	if err != nil || r.kind != kindPut || string(r.key) != cur.key {
		it.err = fmt.Errorf("flatstore: scan hit damaged record for key %x at offset %d: %w",
			cur.key, cur.ref.off, errCorrupt)
		return false
	}
	it.key = []byte(cur.key)
	it.val = r.value[:len(r.value):len(r.value)] // buf is this step's alone
	it.s.stats.logicalBytesRead.Add(uint64(len(r.value)))
	return true
}

func (it *flatIterator) Key() []byte {
	if it.pos < 0 || it.pos >= len(it.refs) || it.err != nil {
		return nil
	}
	return it.key
}

func (it *flatIterator) Value() []byte {
	if it.pos < 0 || it.pos >= len(it.refs) || it.err != nil {
		return nil
	}
	return it.val
}

func (it *flatIterator) Release() {
	if it.f != nil {
		it.f.Close()
		it.f = nil
	}
	it.refs = nil
}

func (it *flatIterator) Error() error { return it.err }

// NewBatch implements kv.Batcher.
func (s *Store) NewBatch() kv.Batch { return &flatBatch{s: s} }

type flatBatch struct {
	kv.OpBatch
	s *Store
}

// Write commits the batch as one group record followed by a Sync — the
// durability barrier that acks this batch and every record before it. A
// torn group fails its crc on replay, so the batch is all-or-nothing.
func (b *flatBatch) Write() error {
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeGateLocked(); err != nil {
		return err
	}
	if len(b.Ops) == 0 {
		return nil
	}
	var payload []byte
	rel := make([]int, len(b.Ops))
	for i, op := range b.Ops {
		rel[i] = len(payload)
		if op.Delete {
			payload = appendRecord(payload, kindTombstone, op.Key, nil)
		} else {
			payload = appendRecord(payload, kindPut, op.Key, op.Value)
		}
	}
	group := appendRecord(nil, kindGroup, payload, nil)
	payloadStart := len(group) - crcLen - len(payload)

	off, err := s.appendLocked(group)
	if err != nil {
		return err
	}
	if err := s.retryIO(s.w.Sync); err != nil {
		// The group reached the file but was never acked; the index stays
		// as if the batch never happened, matching what a reopen may find.
		s.setDegradedLocked(err)
		return err
	}
	for i, op := range b.Ops {
		if op.Delete {
			s.applyDeleteLocked(op.Key)
			s.stats.deletes.Add(1)
			s.stats.logicalBytesWritten.Add(uint64(len(op.Key)))
			continue
		}
		subOff := off + int64(payloadStart) + int64(rel[i])
		var subLen int
		if i+1 < len(b.Ops) {
			subLen = rel[i+1] - rel[i]
		} else {
			subLen = len(payload) - rel[i]
		}
		s.applyPutLocked(op.Key, entryRef{off: subOff, n: uint32(subLen), vlen: uint32(len(op.Value))})
		s.stats.puts.Add(1)
		s.stats.logicalBytesWritten.Add(uint64(len(op.Key) + len(op.Value)))
	}
	s.maybeCompactLocked()
	return nil
}

// maybeCompactLocked fires compaction when the dead-byte debt crosses both
// the absolute and fractional thresholds. Errors are latched by the
// degraded-mode machinery, not returned: the triggering write already
// succeeded.
func (s *Store) maybeCompactLocked() {
	if s.opts.CompactAfterDeadBytes < 0 {
		return
	}
	dead := s.size - s.live
	if dead < s.opts.CompactAfterDeadBytes {
		return
	}
	if float64(dead) < compactDeadFraction*float64(s.size) {
		return
	}
	_ = s.compactLocked()
}

// compactLocked copies every live record extent, in sorted key order (map
// order would make the injected-fault write schedule non-deterministic),
// into generation gen+1, syncs it, commits the swap through CURRENT, and
// retargets the open handles. On any failure the old generation remains
// authoritative and the store degrades.
func (s *Store) compactLocked() error {
	newGen := s.gen + 1
	newPath := s.genPath(newGen)

	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	buf := make([]byte, 0, s.live)
	newIndex := make(map[string]entryRef, len(s.index))
	for _, k := range keys {
		ref := s.index[k]
		rec := make([]byte, ref.n)
		if err := s.retryIO(func() error {
			s.stats.physicalReadOps.Add(1)
			_, err := s.w.ReadAt(rec, ref.off)
			return err
		}); err != nil {
			s.setDegradedLocked(err)
			return err
		}
		s.stats.physicalBytesRead.Add(uint64(ref.n))
		// Verify before copying: compaction must never launder damage
		// into a fresh generation.
		r, _, err := parseRecord(rec)
		if err != nil || r.kind != kindPut || string(r.key) != k {
			cerr := fmt.Errorf("flatstore: compaction read damaged record for key %x at offset %d: %w",
				k, ref.off, errCorrupt)
			s.setDegradedLocked(cerr)
			return cerr
		}
		newIndex[k] = entryRef{off: int64(len(buf)), n: ref.n, vlen: ref.vlen}
		buf = append(buf, rec...)
	}

	if err := s.retryIO(func() error {
		f, err := s.fs.Create(newPath)
		if err != nil {
			return err
		}
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}); err != nil {
		s.setDegradedLocked(err)
		return err
	}
	s.stats.physicalBytesWrite.Add(uint64(len(buf)))

	// Commit point: CURRENT now names the new generation.
	if err := s.writeCurrent(newGen); err != nil {
		s.setDegradedLocked(err)
		return err
	}
	var w faultfs.File
	if err := s.retryIO(func() error {
		var e error
		w, e = s.fs.OpenAppend(newPath)
		return e
	}); err != nil {
		// CURRENT already points at the (complete, synced) new
		// generation; a reopen recovers cleanly. This handle cannot
		// follow, so it degrades with the old generation still mapped.
		s.setDegradedLocked(err)
		return err
	}

	oldPath := s.genPath(s.gen)
	s.w.Close()
	s.w = w
	s.gen = newGen
	s.size = int64(len(buf))
	s.live = int64(len(buf))
	s.index = newIndex
	s.tombstones = 0
	s.stats.compactionCount.Add(1)
	s.stats.compactionRewrites.Add(uint64(len(keys)))
	// Old generation is garbage; failure to remove it now is handled by
	// the orphan sweep on the next open.
	_ = s.fs.Remove(oldPath)
	return nil
}

// Close syncs (acking any trailing un-synced records) and releases the
// append handle. A degraded store skips the sync: nothing more can be
// promised durable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.w != nil {
		if s.degradedErr == nil {
			err = s.retryIO(s.w.Sync)
		}
		if cerr := s.w.Close(); err == nil {
			err = cerr
		}
		s.w = nil
	}
	return err
}

// Stats implements kv.StatsProvider.
func (s *Store) Stats() kv.Stats {
	s.mu.RLock()
	live, size, tombs := s.live, s.size, s.tombstones
	s.mu.RUnlock()
	return kv.Stats{
		Gets:                s.stats.gets.Load(),
		Puts:                s.stats.puts.Load(),
		Deletes:             s.stats.deletes.Load(),
		Scans:               s.stats.scans.Load(),
		LogicalBytesRead:    s.stats.logicalBytesRead.Load(),
		LogicalBytesWritten: s.stats.logicalBytesWritten.Load(),
		PhysicalBytesRead:   s.stats.physicalBytesRead.Load(),
		PhysicalBytesWrite:  s.stats.physicalBytesWrite.Load(),
		PhysicalReadOps:     s.stats.physicalReadOps.Load(),
		IORetries:           s.stats.ioRetries.Load(),
		Degraded:            s.stats.degraded.Load(),
		CompactionCount:     s.stats.compactionCount.Load(),
		CompactionRewrites:  s.stats.compactionRewrites.Load(),
		TombstonesLive:      tombs,
		LiveDataBytes:       uint64(live),
		DeadDataBytes:       uint64(size - live),
	}
}

// IndexLen reports the number of resident index entries (live keys).
func (s *Store) IndexLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Generation reports the active entry-file generation.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// RegisterMetrics implements kv.MetricsRegistrar: the full kv.Stats gauge
// set plus the flat-specific internals — resident index size, entry-file
// footprint, generation, and the dead fraction that drives compaction.
func (s *Store) RegisterMetrics(r *obs.Registry, labels ...string) {
	if r == nil {
		return
	}
	kv.RegisterStatsMetrics(r, s, labels...)
	r.GaugeFunc(obs.Name("ethkv_flat_index_keys", labels...), func() float64 {
		return float64(s.IndexLen())
	})
	r.GaugeFunc(obs.Name("ethkv_flat_file_bytes", labels...), func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(s.size)
	})
	r.GaugeFunc(obs.Name("ethkv_flat_generation", labels...), func() float64 {
		return float64(s.Generation())
	})
	r.GaugeFunc(obs.Name("ethkv_flat_dead_fraction", labels...), func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.size == 0 {
			return 0
		}
		return float64(s.size-s.live) / float64(s.size)
	})
}

// --- record encoding ---

// appendRecord appends one encoded record to buf:
// kind | klen uvarint | vlen uvarint | key | value | crc32.
func appendRecord(buf []byte, kind byte, key, value []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	buf = append(buf, key...)
	buf = append(buf, value...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// rec is one decoded record; key and value alias the input buffer.
type rec struct {
	kind       byte
	key, value []byte
	n          int // total encoded length
}

// parseRecord decodes the record at the head of b, verifying framing and
// crc. keyOff is the offset of the key (= group payload) within b.
func parseRecord(b []byte) (r rec, keyOff int, err error) {
	if len(b) < 1+2+crcLen {
		return rec{}, 0, errCorrupt
	}
	kind := b[0]
	if kind > kindGroup {
		return rec{}, 0, errCorrupt
	}
	i := 1
	klen, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return rec{}, 0, errCorrupt
	}
	i += n
	vlen, un := binary.Uvarint(b[i:])
	if un <= 0 {
		return rec{}, 0, errCorrupt
	}
	i += un
	if klen > uint64(len(b)) || vlen > uint64(len(b)) ||
		uint64(i)+klen+vlen+crcLen > uint64(len(b)) {
		return rec{}, 0, errCorrupt
	}
	end := i + int(klen) + int(vlen)
	if crc32.ChecksumIEEE(b[:end]) != binary.BigEndian.Uint32(b[end:end+crcLen]) {
		return rec{}, 0, errCorrupt
	}
	return rec{
		kind:  kind,
		key:   b[i : i+int(klen)],
		value: b[i+int(klen) : end],
		n:     end + crcLen,
	}, i, nil
}

// replayOp is one index effect recovered by replay.
type replayOp struct {
	kind  byte
	key   []byte
	value []byte
	off   int64 // absolute offset of the standalone record
	n     int   // encoded length of the standalone record
}

// replayData walks a record sequence, returning the recovered ops and the
// length of the longest valid prefix; bytes past the prefix are the torn
// tail. base is the absolute file offset data starts at. Groups are
// unwrapped one level (allowGroup); a group whose payload does not parse
// completely is rejected whole — batches are all-or-nothing.
func replayData(data []byte, base int64, allowGroup bool) (ops []replayOp, valid int64) {
	off := 0
	for off < len(data) {
		r, keyOff, err := parseRecord(data[off:])
		if err != nil {
			break
		}
		if r.kind == kindGroup {
			if !allowGroup {
				break
			}
			subOps, subValid := replayData(r.key, base+int64(off)+int64(keyOff), false)
			if subValid != int64(len(r.key)) {
				break
			}
			ops = append(ops, subOps...)
		} else {
			ops = append(ops, replayOp{
				kind:  r.kind,
				key:   r.key,
				value: r.value,
				off:   base + int64(off),
				n:     r.n,
			})
		}
		off += r.n
	}
	return ops, int64(off)
}
