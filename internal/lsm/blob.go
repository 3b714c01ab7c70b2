package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"ethkv/internal/faultfs"
)

// Value separation. A flush writes every live value of at least
// blobValueThreshold bytes to a blob file of its own and stores a handle to
// it in the L0 table; merges copy the handle and never the value, so the
// paper's few large pairs (contract Code, block bodies, receipts) are
// written once instead of once per level (DESIGN.md §23).
//
// A blob file is the flush's large values back to back, nothing else. A
// handle is
//
//	blobNum uvarint | offset uvarint | length uvarint | crc32(value) u32
//
// stored as the entry's value under flagBlob. Between its bloom section and
// its footer a table carries the blob files its handles reference,
// ascending by number (format v3 carried the list only when there were
// handles; a v4 table's list is empty when there are none),
//
//	count uvarint | per file: num uvarint | fileBytes uvarint | refBytes uvarint
//
// plus a checksum trailer, where refBytes is what this table's handles
// cover. Blob liveness is derived from the tables alone: the version's
// tables name every live blob file, so the manifest format is unchanged.
const blobValueThreshold = 1 << 10

// Entry flag bits.
const (
	flagTombstone = 1 << 0
	flagBlob      = 1 << 1 // the value is a blob handle
)

// blobPath names blob file num inside dir.
func blobPath(dir string, num uint64) string {
	return fmt.Sprintf("%s/%06d.blob", dir, num)
}

// blobHandle locates one value in a blob file.
type blobHandle struct {
	num, off, length uint64
	crc              uint32
}

func appendHandle(dst []byte, h blobHandle) []byte {
	dst = binary.AppendUvarint(dst, h.num)
	dst = binary.AppendUvarint(dst, h.off)
	dst = binary.AppendUvarint(dst, h.length)
	return binary.LittleEndian.AppendUint32(dst, h.crc)
}

// decodeHandle parses a stored handle; any framing damage or trailing byte
// is corruption.
func decodeHandle(b []byte) (h blobHandle, err error) {
	var n int
	for _, f := range []*uint64{&h.num, &h.off, &h.length} {
		if *f, n = binary.Uvarint(b); n <= 0 {
			return h, fmt.Errorf("%w: blob handle framing", errTableCorrupt)
		}
		b = b[n:]
	}
	if len(b) != 4 {
		return h, fmt.Errorf("%w: blob handle framing", errTableCorrupt)
	}
	h.crc = binary.LittleEndian.Uint32(b)
	return h, nil
}

// blobRef is one blob file a table references: its size, and the bytes of
// it this table's handles cover.
type blobRef struct {
	num, fileBytes, refBytes uint64
}

func appendBlobRefs(dst []byte, refs []blobRef) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(refs)))
	for _, r := range refs {
		dst = binary.AppendUvarint(dst, r.num)
		dst = binary.AppendUvarint(dst, r.fileBytes)
		dst = binary.AppendUvarint(dst, r.refBytes)
	}
	return dst
}

// parseBlobRefs decodes a table's blob-ref section (checksum stripped). The
// list must be strictly ascending, and no table may cover more of a file
// than the file holds; it may be empty only in a v4 table (mayBeEmpty), as
// v3 was written only for tables holding a handle.
func parseBlobRefs(raw []byte, mayBeEmpty bool) ([]blobRef, error) {
	bad := fmt.Errorf("%w: blob-ref list", errTableCorrupt)
	count, n := binary.Uvarint(raw)
	if n <= 0 || count == 0 && !mayBeEmpty || count > uint64(len(raw)) {
		return nil, bad
	}
	raw = raw[n:]
	if count == 0 {
		if len(raw) != 0 {
			return nil, bad
		}
		return nil, nil
	}
	refs := make([]blobRef, count)
	for i := range refs {
		for _, f := range []*uint64{&refs[i].num, &refs[i].fileBytes, &refs[i].refBytes} {
			if *f, n = binary.Uvarint(raw); n <= 0 {
				return nil, bad
			}
			raw = raw[n:]
		}
		if r := refs[i]; r.refBytes == 0 || r.refBytes > r.fileBytes || i > 0 && r.num <= refs[i-1].num {
			return nil, bad
		}
	}
	if len(raw) != 0 {
		return nil, bad
	}
	return refs, nil
}

// findRef returns the index of blob num in refs, or -1.
func findRef(refs []blobRef, num uint64) int {
	i := sort.Search(len(refs), func(i int) bool { return refs[i].num >= num })
	if i < len(refs) && refs[i].num == num {
		return i
	}
	return -1
}

// blobWriter collects one flush's large values. Its file number is taken on
// the first value, so a flush without one consumes no number and writes no
// blob file.
type blobWriter struct {
	newNum func() uint64
	num    uint64
	buf    []byte
}

var blobBufferPool sync.Pool

// add appends value to the blob and returns its handle, encoded onto dst.
func (b *blobWriter) add(dst, value []byte) []byte {
	if b.buf == nil {
		b.num = b.newNum()
		if p, ok := blobBufferPool.Get().(*[]byte); ok {
			b.buf = (*p)[:0]
		}
	}
	h := blobHandle{num: b.num, off: uint64(len(b.buf)), length: uint64(len(value)), crc: crc32.ChecksumIEEE(value)}
	b.buf = append(b.buf, value...)
	return appendHandle(dst, h)
}

// finish writes and syncs the blob file, if the flush had a large value, and
// returns its size. It must return before the table naming it is written.
func (b *blobWriter) finish(fsys faultfs.FS, dir string, retry retryPolicy) (int64, error) {
	if b.buf == nil {
		return 0, nil
	}
	path := blobPath(dir, b.num)
	return int64(len(b.buf)), retry.do(func() error { return faultfs.WriteFileSync(fsys, path, b.buf) })
}

// release returns the value buffer to the pool.
func (b *blobWriter) release() {
	if b.buf != nil {
		buf := b.buf
		blobBufferPool.Put(&buf)
		b.buf = nil
	}
}

// blobSet shares open blob files between the table readers that reference
// them: each reader holds one reference per blob file it names, from its
// open to its last unref, so a scan or a merge holding a table keeps that
// table's blob files readable even after they are unlinked.
type blobSet struct {
	fs    faultfs.FS
	dir   string
	retry retryPolicy
	mu    sync.Mutex
	open  map[uint64]*blobFile
}

// blobFile is one open blob file and its size; refs is guarded by the
// set's mu.
type blobFile struct {
	f    faultfs.File
	size uint64
	refs int
}

func newBlobSet(fsys faultfs.FS, dir string, retry retryPolicy) *blobSet {
	return &blobSet{fs: fsys, dir: dir, retry: retry, open: make(map[uint64]*blobFile)}
}

// acquire returns blob file num, opening it on first use, with a reference
// the caller must release.
func (s *blobSet) acquire(num uint64) (*blobFile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.open[num]; b != nil {
		b.refs++
		return b, nil
	}
	var f faultfs.File
	if err := s.retry.do(func() error {
		var err error
		f, err = s.fs.Open(blobPath(s.dir, num))
		return err
	}); err != nil {
		return nil, err
	}
	var size int64
	if err := s.retry.do(func() error {
		var err error
		size, err = f.Size()
		return err
	}); err != nil {
		f.Close()
		return nil, err
	}
	b := &blobFile{f: f, size: uint64(size), refs: 1}
	s.open[num] = b
	return b, nil
}

// release drops one reference to blob file num; the last closes it.
func (s *blobSet) release(num uint64, b *blobFile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.refs--; b.refs == 0 {
		delete(s.open, num)
		b.f.Close()
	}
}

// readBlob resolves handle, a handle entry of t, reading the value with one
// ReadAt into dst's storage (grown as needed) and returning it. A handle
// naming a file t does not reference, a short read or a checksum
// mismatch is errTableCorrupt: damage is never served as data.
func (t *tableReader) readBlob(dst, handle []byte) ([]byte, error) {
	h, i, err := t.handleRef(handle)
	if err != nil {
		return nil, err
	}
	if t.blobs == nil || h.off > t.blobs[i].size || h.length > t.blobs[i].size-h.off {
		return nil, fmt.Errorf("%w: blob handle out of range (table %06d, blob %06d)", errTableCorrupt, t.meta.num, h.num)
	}
	if uint64(cap(dst)) < h.length {
		dst = make([]byte, h.length)
	}
	dst = dst[:h.length]
	f := t.blobs[i].f
	if err := t.retry.do(func() error { return readFull(f, dst, int64(h.off)) }); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(dst) != h.crc {
		return nil, fmt.Errorf("%w: blob value checksum (blob %06d at %d)", errTableCorrupt, h.num, h.off)
	}
	return dst, nil
}

// handleRef decodes a handle of t and finds the blob file it names among t's
// references.
func (t *tableReader) handleRef(handle []byte) (blobHandle, int, error) {
	h, err := decodeHandle(handle)
	if err != nil {
		return h, 0, err
	}
	i := findRef(t.blobRefs, h.num)
	if i < 0 {
		return h, 0, fmt.Errorf("%w: handle names blob %06d, which table %06d does not reference",
			errTableCorrupt, h.num, t.meta.num)
	}
	return h, i, nil
}

// blobUsage is one blob file as the version sees it.
type blobUsage struct{ fileBytes, liveBytes uint64 }

// blobUsage sums, per blob file the version's tables reference, the file's
// size and the bytes those tables' handles cover.
func (v version) blobUsage() map[uint64]blobUsage {
	use := make(map[uint64]blobUsage)
	for _, metas := range v {
		for _, m := range metas {
			for _, r := range m.blobs {
				u := use[r.num]
				u.fileBytes, u.liveBytes = r.fileBytes, u.liveBytes+r.refBytes
				use[r.num] = u
			}
		}
	}
	return use
}

// deadBlobs lists the blob files the obsolete tables named that no table of
// v names: files an install just released. Flushes only add new blob files
// and merges only copy handles, so nothing can name these again.
func deadBlobs(obsolete []tableMeta, v version) []uint64 {
	gone := make(map[uint64]bool)
	for _, m := range obsolete {
		for _, r := range m.blobs {
			gone[r.num] = true
		}
	}
	for _, metas := range v {
		for _, m := range metas {
			for _, r := range m.blobs {
				delete(gone, r.num)
			}
			if len(gone) == 0 {
				return nil
			}
		}
	}
	dead := make([]uint64, 0, len(gone))
	for num := range gone {
		dead = append(dead, num)
	}
	return dead
}

// BlobStats describes a store's blob files: how many the version references,
// the bytes its tables' handles cover, the rest of those files' bytes (values
// since overwritten or deleted, freed only with their whole file), and every
// blob byte flushes have written.
type BlobStats struct {
	Files                int
	LiveBytes, DeadBytes uint64
	WrittenBytes         uint64
}

// BlobStats reports the store's blob files as of the current version.
func (db *DB) BlobStats() BlobStats {
	db.mu.RLock()
	use := db.current.blobUsage()
	db.mu.RUnlock()
	s := BlobStats{Files: len(use), WrittenBytes: db.stats.blobBytesWritten.Load()}
	for _, u := range use {
		s.LiveBytes += u.liveBytes
		s.DeadBytes += u.fileBytes - u.liveBytes
	}
	return s
}
