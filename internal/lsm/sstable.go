package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ethkv/internal/faultfs"
)

// SSTable file layout (all integers little-endian):
//
//	data block 0 | data block 1 | ... | index block | bloom block |
//	blob-ref section | footer
//
// Every data block, the index block, the bloom block and the blob-ref
// section carry a crc32(payload) trailer appended to the payload; index and
// footer extents cover payload+trailer. A bit flip anywhere in a block is
// detected by the checksum at read time, not just by entry-framing luck. The
// format version is named by the footer magic, and every table is written as
// v4. Two older versions stay readable: v2 stores keys whole and has no
// blob-ref section, and v3 is v2 plus the section, written when the table
// held a blob handle. Format v1 (no section checksums, Keccak-256 bloom
// probes) is retired: a table carrying its magic is refused as corrupt, as
// is any other version.
//
// A v4 data block holds consecutive entries whose keys share a prefix with
// the key before them in the same block:
//
//	flags byte (bit0 = tombstone, bit1 = blob handle) | shared uvarint |
//	unshared uvarint | key[shared:] | valueLen uvarint | value
//
// A block's first entry has shared = 0, and there are no restart points: a
// reader decodes a block from its start, after checking its checksum, into
// the plain layout v2 and v3 blocks are stored in,
//
//	flags byte | keyLen uvarint | key | valueLen uvarint | value
//
// which is the layout every lookup and scan reads (block.go).
//
// The index block records, per data block: lastKeyLen uvarint | lastKey |
// offset uvarint | length uvarint (length spans the stored extent,
// including the checksum trailer). Point lookups binary-search the
// index by last key, fetch one data block — through the shared block cache
// — and binary-search that too, over entry offsets derived when the block
// was read (block.go); the offsets are memory only, never written. The
// blob-ref section lists the blob files the table's handles point into
// (blob.go); in v4 it is present, and empty, when there are none.
//
// The footer is fixed-size:
//
//	indexOff u64 | indexLen u64 | bloomOff u64 | bloomLen u64 | bloomK u32 |
//	entryCount u64 | crc32-of-footer-prefix u32 | magic u64
const (
	footerSize   = 8*5 + 4 + 4 + 8
	tableMagic   = 0x657468_6b760002 // "ethkv" + format version 2 in the low 16 bits
	tableMagicV3 = tableMagic + 1    // v2 plus the blob-ref section
	tableMagicV4 = tableMagic + 2    // v3 with prefix-compressed data blocks
	targetBlock  = 4 << 10           // 4 KiB data blocks
	blockCRCSize = 4                 // crc32 trailer appended to each section

	// readaheadBytes is the span one iterator fetch covers: sequential
	// scans and compactions read runs of contiguous blocks in one ReadAt
	// into a private buffer instead of thrashing the block cache.
	readaheadBytes = 256 << 10
)

// errTableCorrupt marks structural damage detected while opening or reading
// an SSTable.
var errTableCorrupt = errors.New("lsm: corrupt sstable")

// tableMeta identifies one on-disk table within the LSM tree.
type tableMeta struct {
	num      uint64 // file number
	level    int
	size     int64
	smallest []byte
	largest  []byte
	entries  uint64
	// tombstones counts the table's tombstones. Set by the table writer and
	// kept in memory only: a table recovered at Open counts none.
	tombstones uint64
	// blobs lists the blob files the table's handles point into, ascending;
	// nil for a table without handles. Set by the table writer, and at Open
	// from the table's own blob-ref section.
	blobs []blobRef
	// h is the table's reader handle, shared by every copy of the meta (the
	// version's level entry, compaction plans, obsolete lists). Set by the
	// table writer and the manifest loader.
	h *tableHandle
}

// tableHandle holds a table's reader from its first use until the table is
// retired: the version's level entries carry their readers, so a point read
// finds one without a shared map or its lock.
//
// Lifetime. The handle owns one reference to the reader it opened and drops
// it in release — called after the table has left the version (a compaction
// retiring its inputs) or after the DB is marked closed. Both of those take
// db.mu exclusively first, so a caller that found the table in db.current
// and still holds db.mu shared — Get, Has — uses the reader with no
// reference of its own. Callers that outlive the lock (iterators,
// compactions) take one with acquire, and the last unref, theirs or the
// handle's, closes the file.
type tableHandle struct {
	mu sync.Mutex // serialises the first open, and open against release
	r  atomic.Pointer[tableReader]
}

// table returns m's reader, opening it on first use. The caller holds db.mu
// with m in db.current, or is the compaction whose plan lists m.
func (db *DB) table(m *tableMeta) (*tableReader, error) {
	if t := m.h.r.Load(); t != nil {
		return t, nil
	}
	m.h.mu.Lock()
	defer m.h.mu.Unlock()
	if t := m.h.r.Load(); t != nil {
		return t, nil
	}
	// openTable applies retryIO to each individual read itself, so
	// transient faults are absorbed without reopening from scratch.
	t, err := openTableIn(db.fs, db.dir, *m, db.cache, db.retryPolicy(), db.blobs)
	if err != nil {
		return nil, err
	}
	m.h.r.Store(t)
	return t, nil
}

// acquire is table plus a reference for a caller that keeps the reader past
// the lock or plan it was found under; the caller must unref.
func (db *DB) acquire(m *tableMeta) (*tableReader, error) {
	t, err := db.table(m)
	if err != nil {
		return nil, err
	}
	t.ref()
	return t, nil
}

// release drops the handle's reference to its reader, if it opened one.
func (h *tableHandle) release() {
	h.mu.Lock()
	t := h.r.Swap(nil)
	h.mu.Unlock()
	if t != nil {
		t.unref()
	}
}

// tablePath names the SSTable file for number num inside dir.
func tablePath(dir string, num uint64) string {
	return fmt.Sprintf("%s/%06d.sst", dir, num)
}

// indexEntry locates one data block's stored extent (payload plus its
// checksum trailer).
type indexEntry struct {
	lastKey []byte
	offset  uint64
	length  uint64
}

// tableReader serves point and range reads from one SSTable by demand
// paging: only the index and bloom sections are resident (pinned for the
// reader's lifetime); data blocks are fetched individually through the
// shared block cache, so a store much larger than memory stays readable
// within the cache budget.
//
// Readers are reference-counted. The table's handle in the version holds one
// reference; iterators and compactions, which outlive db.mu, take their own
// (tableHandle has the rule for point reads, which take none), so a
// compaction deleting the file under a live scan is safe: the OS keeps
// unlinked files readable through open descriptors (a MemFS handle holds an
// immutable view of the file, not a copy), and the last unref closes the
// file and purges the table's cached blocks. A reader holds a reference on
// every blob file its handles point into, for the same lifetime.
type tableReader struct {
	meta   tableMeta
	src    io.ReaderAt
	closer func() error // nil for byte-backed readers
	size   int64
	index  []indexEntry
	bloom  *bloomFilter
	cache  *blockCache
	retry  retryPolicy
	pinned int64 // index+bloom bytes accounted against the cache
	refs   atomic.Int32
	// prefixed is set for a v4 table: its data blocks are expanded when
	// decoded (block.decode).
	prefixed bool
	// blobRefs lists the blob files the table's handles point into, and
	// blobs holds them open, index for index (nil for a byte-backed
	// reader, which cannot resolve handles).
	blobRefs []blobRef
	blobs    []*blobFile
	blobSet  *blobSet
}

// ref takes one reference.
func (t *tableReader) ref() { t.refs.Add(1) }

// unref releases one reference; the last release closes the file handle
// and drops the table's cache footprint.
func (t *tableReader) unref() {
	if t.refs.Add(-1) > 0 {
		return
	}
	if t.closer != nil {
		t.closer()
	}
	t.releaseBlobs()
	t.cache.dropTable(t.meta.num)
	t.cache.addPinned(-t.pinned)
}

// openTable opens the SSTable file for meta on its own, its blob files
// included, outside any DB.
func openTable(fsys faultfs.FS, dir string, meta tableMeta, cache *blockCache, retry retryPolicy) (*tableReader, error) {
	return openTableIn(fsys, dir, meta, cache, retry, newBlobSet(fsys, dir, retry))
}

// openTableIn opens the SSTable file for meta and validates its footer,
// index, bloom and blob-ref sections (the only parts read eagerly), then
// takes a reference from blobs on every blob file it names. Individual
// reads go through retry so transient faults are absorbed by the store's
// backoff policy.
func openTableIn(fsys faultfs.FS, dir string, meta tableMeta, cache *blockCache, retry retryPolicy, blobs *blobSet) (*tableReader, error) {
	f, size, err := openTableFile(fsys, dir, meta, retry)
	if err != nil {
		return nil, err
	}
	t, err := openTableReader(f, f.Close, size, meta, cache, retry)
	if err != nil {
		f.Close()
		return nil, err
	}
	t.blobSet = blobs
	for _, r := range t.blobRefs {
		b, err := blobs.acquire(r.num)
		if err != nil {
			t.unref()
			return nil, err
		}
		t.blobs = append(t.blobs, b)
	}
	return t, nil
}

// releaseBlobs drops the reader's blob file references.
func (t *tableReader) releaseBlobs() {
	for i, b := range t.blobs {
		t.blobSet.release(t.blobRefs[i].num, b)
	}
	t.blobs = nil
}

// checkTableFooter reads and validates the footer of meta's file — its
// format version and checksum — and returns the blob files the table
// references.
func checkTableFooter(fsys faultfs.FS, dir string, meta tableMeta, retry retryPolicy) ([]blobRef, error) {
	f, size, err := openTableFile(fsys, dir, meta, retry)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t := &tableReader{meta: meta, src: f, size: size, retry: retry}
	footer, err := t.readFooter()
	if err != nil {
		return nil, err
	}
	return t.readBlobRefs(footer)
}

// openTableFile opens meta's file and reports its size.
func openTableFile(fsys faultfs.FS, dir string, meta tableMeta, retry retryPolicy) (faultfs.File, int64, error) {
	path := tablePath(dir, meta.num)
	var f faultfs.File
	if err := retry.do(func() error {
		var err error
		f, err = fsys.Open(path)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var size int64
	if err := retry.do(func() error {
		var err error
		size, err = f.Size()
		return err
	}); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, size, nil
}

// newTableReader builds a reader over an in-memory SSTable image — the
// byte-backed constructor fuzz targets and corruption tests use. No cache,
// no retry policy.
func newTableReader(data []byte, meta tableMeta) (*tableReader, error) {
	return openTableReader(bytes.NewReader(data), nil, int64(len(data)), meta, nil, retryPolicy{})
}

// openTableReader validates an SSTable through its positional-read source
// and builds a reader. Every structural field is bounds-checked before
// use: arbitrary (fuzzed, torn, bit-flipped) input must produce
// errTableCorrupt, never a panic or an out-of-range access.
func openTableReader(src io.ReaderAt, closer func() error, size int64, meta tableMeta, cache *blockCache, retry retryPolicy) (*tableReader, error) {
	t := &tableReader{
		meta: meta, src: src, closer: closer, size: size,
		cache: cache, retry: retry,
	}
	footer, err := t.readFooter()
	if err != nil {
		return nil, err
	}
	t.prefixed = binary.LittleEndian.Uint64(footer[48:]) == tableMagicV4
	indexOff := binary.LittleEndian.Uint64(footer[0:])
	indexLen := binary.LittleEndian.Uint64(footer[8:])
	bloomOff := binary.LittleEndian.Uint64(footer[16:])
	bloomLen := binary.LittleEndian.Uint64(footer[24:])
	bloomK := int(binary.LittleEndian.Uint32(footer[32:]))
	// Overflow-safe section bounds: compare lengths against the remainder,
	// never the sum of two attacker-controlled u64s.
	dlen := uint64(size)
	if indexOff > dlen || indexLen > dlen-indexOff ||
		bloomOff > dlen || bloomLen > dlen-bloomOff {
		return nil, fmt.Errorf("%w: section out of range", errTableCorrupt)
	}
	if bloomK < 0 || bloomK > 64 {
		return nil, fmt.Errorf("%w: bloom probe count", errTableCorrupt)
	}

	// Data blocks live strictly before the index block.
	indexRaw, err := t.readSection(indexOff, indexLen, "index")
	if err != nil {
		return nil, err
	}
	t.index, err = parseIndex(indexRaw, indexOff)
	if err != nil {
		return nil, err
	}
	bloomBits, err := t.readSection(bloomOff, bloomLen, "bloom")
	if err != nil {
		return nil, err
	}
	t.bloom = bloomFromBytes(bloomBits, bloomK)
	if t.blobRefs, err = t.readBlobRefs(footer); err != nil {
		return nil, err
	}
	// Index and bloom stay pinned for the reader's lifetime; account them
	// so observability reports the true memory footprint.
	t.pinned = int64(indexLen + bloomLen)
	t.cache.addPinned(t.pinned)
	t.refs.Store(1)
	return t, nil
}

// readFooter reads the footer and checks its magic, then its checksum.
func (t *tableReader) readFooter() (footer [footerSize]byte, err error) {
	if t.size < footerSize {
		return footer, fmt.Errorf("%w: file shorter than footer", errTableCorrupt)
	}
	if err := t.readAt(footer[:], t.size-footerSize); err != nil {
		return footer, err
	}
	if magic := binary.LittleEndian.Uint64(footer[48:]); magic != tableMagic && magic != tableMagicV3 && magic != tableMagicV4 {
		if magic>>16 == tableMagic>>16 {
			// An ethkv table of another format version: v1 tables, written
			// before section checksums existed, are refused, not migrated.
			what := "unknown"
			if magic&0xffff < 2 {
				what = "retired"
			}
			return footer, fmt.Errorf("%w: %s table format v%d (this store reads v2, v3 and v4 only)",
				errTableCorrupt, what, magic&0xffff)
		}
		return footer, fmt.Errorf("%w: bad magic", errTableCorrupt)
	}
	if crc32.ChecksumIEEE(footer[:44]) != binary.LittleEndian.Uint32(footer[44:]) {
		return footer, fmt.Errorf("%w: footer checksum", errTableCorrupt)
	}
	return footer, nil
}

// readBlobRefs returns the blob-ref section of a v3 or v4 table, which
// spans from the end of the bloom section to the footer; a v2 table
// references none.
func (t *tableReader) readBlobRefs(footer [footerSize]byte) ([]blobRef, error) {
	magic := binary.LittleEndian.Uint64(footer[48:])
	if magic == tableMagic {
		return nil, nil
	}
	bloomOff := binary.LittleEndian.Uint64(footer[16:])
	bloomLen := binary.LittleEndian.Uint64(footer[24:])
	end := uint64(t.size - footerSize)
	if bloomOff > end || bloomLen > end-bloomOff {
		return nil, fmt.Errorf("%w: section out of range", errTableCorrupt)
	}
	raw, err := t.readSection(bloomOff+bloomLen, end-bloomOff-bloomLen, "blob-ref")
	if err != nil {
		return nil, err
	}
	return parseBlobRefs(raw, magic == tableMagicV4)
}

// readAt fills p from offset off, retrying transient faults. A short read
// (a truncated file) surfaces as errTableCorrupt.
func (t *tableReader) readAt(p []byte, off int64) error {
	return t.retry.do(func() error { return readFull(t.src, p, off) })
}

// readFull fills p from src at off; a short read is errTableCorrupt.
func readFull(src io.ReaderAt, p []byte, off int64) error {
	n, err := src.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: short read (%d of %d bytes at %d)", errTableCorrupt, n, len(p), off)
	}
	return err
}

// readSection fetches one pinned section (index or bloom), verifies its
// checksum trailer and strips it.
func (t *tableReader) readSection(off, length uint64, what string) ([]byte, error) {
	buf := make([]byte, length)
	if err := t.readAt(buf, int64(off)); err != nil {
		return nil, err
	}
	if length < blockCRCSize {
		return nil, fmt.Errorf("%w: %s shorter than checksum", errTableCorrupt, what)
	}
	payload := buf[:length-blockCRCSize]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[length-blockCRCSize:]) {
		return nil, fmt.Errorf("%w: %s checksum", errTableCorrupt, what)
	}
	return payload, nil
}

// blockPayload verifies extent's checksum trailer and returns the entry
// payload. A bit flip anywhere in the stored block fails here with
// errTableCorrupt — corruption can never be served as data.
func (t *tableReader) blockPayload(extent []byte, blockIdx int) ([]byte, error) {
	// parseIndex guarantees extents exceed the trailer size.
	payload := extent[:len(extent)-blockCRCSize]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(extent[len(extent)-blockCRCSize:]) {
		return nil, fmt.Errorf("%w: block checksum (table %06d, block %d)",
			errTableCorrupt, t.meta.num, blockIdx)
	}
	return payload, nil
}

// block returns data block i ready for searching, through the shared cache:
// a hit costs no I/O; a miss fetches the extent, verifies its checksum,
// decodes it (decodeBlock — damaged framing fails here, and nothing damaged
// is ever cached) and inserts it. diskBytes reports the bytes actually
// fetched from the file — 0 on a cache hit — so physical-read accounting
// reflects true I/O, not logical block touches.
func (t *tableReader) block(i int) (blk *block, diskBytes int, err error) {
	if cached, ok := t.cache.get(t.meta.num, i); ok {
		return cached, 0, nil
	}
	ext := t.index[i]
	buf := extentPool.Get().(*[]byte) // only the decoding is kept
	defer extentPool.Put(buf)
	*buf = slices.Grow((*buf)[:0], int(ext.length))
	raw := (*buf)[:ext.length]
	if err := t.readAt(raw, int64(ext.offset)); err != nil {
		return nil, 0, err
	}
	payload, err := t.blockPayload(raw, i)
	if err != nil {
		return nil, int(ext.length), err
	}
	if blk, err = decodeBlock(payload, t.prefixed); err != nil {
		return nil, int(ext.length), fmt.Errorf("%w (table %06d, block %d)", err, t.meta.num, i)
	}
	t.cache.put(t.meta.num, i, blk)
	return blk, int(ext.length), nil
}

// extentPool recycles the buffers a cache miss reads a block's stored extent
// into.
var extentPool = sync.Pool{New: func() any {
	buf := make([]byte, 0, 2*targetBlock)
	return &buf
}}

// parseIndex decodes the index block. dataLimit is the exclusive upper
// bound for block extents (the index's own offset): every referenced data
// block must lie entirely within [0, dataLimit) and exceed the checksum
// trailer.
func parseIndex(raw []byte, dataLimit uint64) ([]indexEntry, error) {
	var index []indexEntry
	for len(raw) > 0 {
		klen, n := binary.Uvarint(raw)
		if n <= 0 || uint64(len(raw)-n) < klen {
			return nil, fmt.Errorf("%w: index key", errTableCorrupt)
		}
		raw = raw[n:]
		key := raw[:klen]
		raw = raw[klen:]
		off, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, fmt.Errorf("%w: index offset", errTableCorrupt)
		}
		raw = raw[n:]
		length, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, fmt.Errorf("%w: index length", errTableCorrupt)
		}
		raw = raw[n:]
		if off > dataLimit || length > dataLimit-off {
			return nil, fmt.Errorf("%w: block extent out of range", errTableCorrupt)
		}
		if length <= blockCRCSize {
			return nil, fmt.Errorf("%w: block extent shorter than checksum", errTableCorrupt)
		}
		// Structural monotonicity: blocks ascend by last key and do not
		// overlap. Catches shuffled or duplicated index entries cheaply;
		// block payloads are then guarded by their own checksums.
		if n := len(index); n > 0 {
			prev := index[n-1]
			if bytes.Compare(key, prev.lastKey) <= 0 || off < prev.offset+prev.length {
				return nil, fmt.Errorf("%w: index not monotonic", errTableCorrupt)
			}
		}
		index = append(index, indexEntry{lastKey: key, offset: off, length: length})
	}
	return index, nil
}

// readCounts is what one point read adds to the store's read-side counters.
// It is accumulated on the reader's stack across however many tables the
// read probes and published once (readStats.publish), so probing a table
// writes no shared counter.
type readCounts struct {
	physicalBytes       int // fetched from table files; 0 when every block was cached
	bloomNegatives      int // tables the filter ruled out
	bloomFalsePositives int // tables the filter let through that held no match
}

// get looks up key, whose bloomHash is hash (computed once per read, not
// per table). A block whose checksum or framing is damaged surfaces
// errTableCorrupt — a corrupt block must not masquerade as key-not-found.
// rc takes the disk bytes fetched and the bloom filter's effectiveness:
// negatives that skip the table entirely, false positives where the filter
// passed but the block held no match. The value is a view of the block,
// shared and read-only; under flagBlob it is a handle, already checked to
// name a blob file the table references.
func (t *tableReader) get(key []byte, hash uint64, rc *readCounts) (value []byte, flags byte, found bool, err error) {
	if !t.bloom.mayContainHash(hash) {
		rc.bloomNegatives++
		return nil, 0, false, nil
	}
	// Binary search the first block whose last key >= key.
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].lastKey, key) >= 0
	})
	if i == len(t.index) {
		rc.bloomFalsePositives++
		return nil, 0, false, nil
	}
	blk, diskBytes, err := t.block(i)
	rc.physicalBytes += diskBytes
	if err != nil {
		return nil, 0, false, err
	}
	value, found, flags = blk.search(key)
	if !found {
		rc.bloomFalsePositives++
	} else if flags&flagBlob != 0 {
		if _, _, err := t.handleRef(value); err != nil {
			return nil, 0, false, err
		}
	}
	return value, flags, found, nil
}

// tableIterator walks the full table in key order, including tombstones,
// over the entry offsets of one decoded block at a time. Blocks stream
// through a private readahead span — one ReadAt covers a run of contiguous
// extents — and are never inserted into the shared cache: a sequential scan
// must not evict the point-read working set (scan resistance). A cached
// block is walked in place when the iterator may consult the cache
// (checkCache); a merge's walk skips the cache entirely.
//
// Buffer lifetime: a block read from the span is decoded into one of two
// pooled blocks the iterator takes once and alternates between, so an
// entry's key and value (views of its block) stay intact across the next
// advance and may be overwritten by the one after — long enough for a merge
// to hand out a source's head while it already holds the following one.
// close hands the buffers back; every entry the iterator yielded is dead
// from then on. A damaged checksum or block framing latches err and ends the
// walk: a scan over a corrupt table yields a clean prefix and a non-nil
// error, never a silently truncated result (a block is checked whole as it
// is decoded, so the prefix ends with the block before a damaged one).
type tableIterator struct {
	t          *tableReader
	checkCache bool
	seek       []byte // the walk's start key, until its first block is loaded
	blockIdx   int    // next block index to load
	blk        *block // the block being walked: cached, or one of bufs
	pos        int    // next entry of blk
	cur        entry
	read       int   // bytes fetched from disk so far (cache hits cost 0)
	err        error // first corruption or I/O failure encountered

	span    *[]byte // pooled readahead buffer; ra is a prefix of it
	ra      []byte  // current span of raw contiguous extents
	raFirst int     // block index of the first extent in ra
	raCount int     // extents held in ra
	bufs    [2]*block
	bufNext int // which of bufs the next block decodes into
}

// spanBufferPool recycles readahead span buffers, readaheadBytes each,
// across iterators: a compaction opens one iterator per input table, and
// allocating (and zeroing) fresh spans for each was a tenth of its CPU.
var spanBufferPool = sync.Pool{New: func() any {
	buf := make([]byte, readaheadBytes)
	return &buf
}}

// iterator returns a walk positioned before the first entry, or before the
// first entry with key >= start when start is non-nil. checkCache=false is
// a merge's walk: it neither consults nor populates the shared cache, so a
// background merge cannot disturb the hot read set.
func (t *tableReader) iterator(start []byte, checkCache bool) *tableIterator {
	it := &tableIterator{t: t, checkCache: checkCache, seek: start}
	if start != nil {
		it.blockIdx = sort.Search(len(t.index), func(i int) bool {
			return bytes.Compare(t.index[i].lastKey, start) >= 0
		})
	}
	return it
}

// close returns the pooled buffers and ends the walk. Optional — an
// iterator dropped without it just leaves its buffers to the collector.
func (it *tableIterator) close() {
	if it.span != nil {
		spanBufferPool.Put(it.span)
	}
	for _, b := range it.bufs {
		if b != nil {
			blockPool.Put(b)
		}
	}
	it.span, it.ra, it.raCount, it.bufs, it.blk = nil, nil, 0, [2]*block{}, nil
	it.blockIdx = len(it.t.index)
}

// next advances to the next entry, loading blocks as the walk reaches them;
// false at the end of the table or once err is latched.
func (it *tableIterator) next() bool {
	for it.err == nil {
		if it.blk != nil && it.pos < len(it.blk.offsets) {
			flags, key, value := it.blk.at(it.pos)
			it.pos++
			if flags&flagBlob != 0 {
				// A handle a merge copies must name a blob file this table
				// references, or the output's blob-ref list would be wrong.
				if _, _, it.err = it.t.handleRef(value); it.err != nil {
					break
				}
			}
			it.cur = entry{key: key, value: value, tombstone: flags&flagTombstone != 0, handle: flags&flagBlob != 0}
			return true
		}
		if it.blockIdx >= len(it.t.index) {
			break
		}
		it.blk, it.err = it.loadBlock(it.blockIdx)
		it.blockIdx, it.pos = it.blockIdx+1, 0
		if it.seek != nil && it.blk != nil {
			it.pos, _ = it.blk.lowerBound(it.seek)
			it.seek = nil
		}
	}
	return false
}

// loadBlock returns block i: from the shared cache when allowed, else
// decoded from the readahead span, fetching the next span when the current
// one is exhausted.
func (it *tableIterator) loadBlock(i int) (*block, error) {
	t := it.t
	if it.checkCache {
		if b, ok := t.cache.get(t.meta.num, i); ok {
			return b, nil
		}
	}
	if i < it.raFirst || i >= it.raFirst+it.raCount {
		if err := it.fetchSpan(i); err != nil {
			return nil, err
		}
	}
	ext := t.index[i]
	base := t.index[it.raFirst].offset
	payload, err := t.blockPayload(it.ra[ext.offset-base:ext.offset-base+ext.length], i)
	if err != nil {
		return nil, err
	}
	b := it.bufs[it.bufNext]
	if b == nil {
		b = blockPool.Get().(*block)
		it.bufs[it.bufNext] = b
	}
	if err := b.decode(payload, t.prefixed); err != nil {
		return nil, fmt.Errorf("%w (table %06d, block %d)", err, t.meta.num, i)
	}
	it.bufNext ^= 1
	return b, nil
}

// fetchSpan reads one readahead span of contiguous block extents starting
// at block i: one positional read serves many subsequent blocks.
func (it *tableIterator) fetchSpan(i int) error {
	t := it.t
	start := t.index[i].offset
	end, total := i, uint64(0)
	for end < len(t.index) &&
		t.index[end].offset == start+total && // a damaged index may leave gaps
		(end == i || total+t.index[end].length <= readaheadBytes) {
		total += t.index[end].length
		end++
	}
	var buf []byte
	if total > readaheadBytes {
		buf = make([]byte, total) // one block larger than a whole span
	} else {
		if it.span == nil {
			it.span = spanBufferPool.Get().(*[]byte)
		}
		buf = (*it.span)[:total]
	}
	if err := t.readAt(buf, int64(start)); err != nil {
		return err
	}
	it.ra, it.raFirst, it.raCount = buf, i, end-i
	it.read += int(total)
	return nil
}
