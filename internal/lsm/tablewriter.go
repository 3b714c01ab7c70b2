package lsm

import (
	"cmp"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"sync"

	"ethkv/internal/faultfs"
)

// tableWriter streams sorted entries into SSTable files (layout in
// sstable.go). add encodes an entry once, straight into the table image;
// finish closes the last block, appends index, bloom, blob-ref list and
// footer, and writes the file with one Create/Write/Sync/Close. Flush feeds
// it from the frozen memtable's skiplist and compaction from the merge
// iterator, so no entry slice, per-entry copy or intermediate block buffer
// sits between the source and the image.
//
// Every table is format v4: each key is stored as the length of the prefix
// it shares with the previous key of its block plus the rest, so the writer
// keeps the previous key, which is also what the index and the table's
// largest key record. A block is cut once its plain size (the layout readers
// expand it to) reaches targetBlock, so it holds the entries a v2 block did.
//
// The bloom filter's size depends on the entry count, which is unknown until
// the table is cut, so add only records each key's 64-bit probe hash and
// finish builds the filter — directly inside the image.
//
// A blob handle's file and length are tallied as it is added; finish writes
// the blob-ref list, empty when the table holds no handle, taking each
// file's size from blobBytes.
//
// One writer produces any number of tables in sequence (finish resets it);
// its buffers come from a process-wide pool and go back on release.
type tableWriter struct {
	fsys  faultfs.FS
	dir   string
	retry retryPolicy
	level int
	// blobBytes reports the size of a blob file the added handles name.
	blobBytes func(num uint64) uint64

	*tableBuffers
	blockOff   int // image offset where the open data block starts
	blockPlain int // the open block's size in the plain layout
	smallest   []byte
	tombstones uint64 // tombstones in the open table
}

// tableBuffers is the reusable memory of a tableWriter.
type tableBuffers struct {
	img     []byte            // table image: finished blocks plus the open one
	index   []byte            // index block payload
	prevKey []byte            // the newest entry's key
	hashes  []uint64          // bloom probe hash of every entry so far
	refs    map[uint64]uint64 // blob file -> bytes the open table's handles cover
}

var tableBufferPool = sync.Pool{New: func() any { return new(tableBuffers) }}

// newTableWriter returns a writer for tables on level. dataBytes is the
// caller's estimate of one table's key+value bytes; the image is pre-sized
// from it so a table is encoded without regrowth. retry wraps the file I/O
// of finish and nothing else.
func newTableWriter(fsys faultfs.FS, dir string, retry retryPolicy, level, dataBytes int) *tableWriter {
	w := &tableWriter{
		fsys: fsys, dir: dir, retry: retry, level: level,
		tableBuffers: tableBufferPool.Get().(*tableBuffers),
	}
	// Framing, block trailers, index and bloom add ~10% to small-entry
	// tables; a short guess only costs an append regrowth.
	if want := dataBytes + dataBytes/8 + 4<<10; cap(w.img) < want {
		w.img = make([]byte, 0, want)
	}
	w.reset()
	return w
}

// release returns the writer's buffers to the pool. The writer must not be
// used afterwards.
func (w *tableWriter) release() {
	tableBufferPool.Put(w.tableBuffers)
	w.tableBuffers = nil
}

func (w *tableWriter) reset() {
	w.img, w.index, w.prevKey, w.hashes = w.img[:0], w.index[:0], w.prevKey[:0], w.hashes[:0]
	w.blockOff, w.blockPlain, w.smallest, w.tombstones = 0, 0, nil, 0
	clear(w.refs)
}

// entries reports how many entries the open table holds.
func (w *tableWriter) entries() int { return len(w.hashes) }

// add appends one entry. Keys must arrive strictly ascending. The writer
// keeps no reference to key or value.
func (w *tableWriter) add(key, value []byte, tombstone bool) {
	w.addEntry(entry{key: key, value: value, tombstone: tombstone})
}

// addEntry is add for an entry that may carry a blob handle, which it
// tallies against the handle's blob file; the handle must decode (table
// iterators and the flush hand over only handles that do).
func (w *tableWriter) addEntry(e entry) {
	key, value := e.key, e.value
	if len(w.hashes) == 0 {
		w.smallest = append([]byte(nil), key...)
	}
	var flags byte
	if e.tombstone {
		flags |= flagTombstone
		w.tombstones++
	}
	if e.handle {
		flags |= flagBlob
		h, _ := decodeHandle(value)
		if w.refs == nil {
			w.refs = make(map[uint64]uint64)
		}
		w.refs[h.num] += h.length
	}
	shared := 0
	if len(w.img) > w.blockOff {
		shared = sharedPrefixLen(w.prevKey, key)
	}
	img := append(w.img, flags)
	img = binary.AppendUvarint(img, uint64(shared))
	img = binary.AppendUvarint(img, uint64(len(key)-shared))
	img = append(img, key[shared:]...)
	img = binary.AppendUvarint(img, uint64(len(value)))
	w.img = append(img, value...)
	w.prevKey = append(w.prevKey[:0], key...)
	w.hashes = append(w.hashes, bloomHash(key))
	w.blockPlain += 1 + uvarintLen(len(key)) + len(key) + uvarintLen(len(value)) + len(value)
	if w.blockPlain >= targetBlock {
		w.closeBlock()
	}
}

// closeSection seals the section that started at image offset start with its
// checksum trailer and returns its stored extent length.
func (w *tableWriter) closeSection(start int) uint64 {
	w.img = binary.LittleEndian.AppendUint32(w.img, crc32.ChecksumIEEE(w.img[start:]))
	return uint64(len(w.img) - start)
}

// closeBlock seals the open data block, if any, and records it in the index
// under the last key added.
func (w *tableWriter) closeBlock() {
	if len(w.img) == w.blockOff {
		return
	}
	off := w.blockOff
	extent := w.closeSection(off)
	w.index = binary.AppendUvarint(w.index, uint64(len(w.prevKey)))
	w.index = append(w.index, w.prevKey...)
	w.index = binary.AppendUvarint(w.index, uint64(off))
	w.index = binary.AppendUvarint(w.index, extent)
	w.blockOff, w.blockPlain = len(w.img), 0
}

// finish completes the open table as file number num, persists it and resets
// the writer for the next table. The file is synced before finish returns —
// table installs (and the WAL deletions that follow them) may only happen
// once the table is crash-durable — and write, sync and close errors all
// propagate. The image is encoded exactly once: a transient fault retries
// only the create-write-sync-close sequence (a failed attempt leaves no
// partial durable state to clean up: Create truncates).
func (w *tableWriter) finish(num uint64) (tableMeta, error) {
	n := len(w.hashes)
	if n == 0 {
		return tableMeta{}, errors.New("lsm: refusing to write empty table")
	}
	w.closeBlock()

	indexOff := len(w.img)
	w.img = append(w.img, w.index...)
	indexLen := w.closeSection(indexOff)

	// The pooled image holds stale bytes past its length: append zeroes for
	// the filter, then set bits in place.
	bloomOff := len(w.img)
	w.img = append(w.img, make([]byte, bloomBytes(n))...)
	bloom := bloomFromBytes(w.img[bloomOff:], bloomProbes)
	for _, h := range w.hashes {
		bloom.addHash(h)
	}
	bloomLen := w.closeSection(bloomOff)

	var blobs []blobRef
	for num, n := range w.refs {
		blobs = append(blobs, blobRef{num: num, fileBytes: w.blobBytes(num), refBytes: n})
	}
	slices.SortFunc(blobs, func(a, b blobRef) int { return cmp.Compare(a.num, b.num) })
	refOff := len(w.img)
	w.img = appendBlobRefs(w.img, blobs)
	w.closeSection(refOff)

	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:], indexLen)
	binary.LittleEndian.PutUint64(footer[16:], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[24:], bloomLen)
	binary.LittleEndian.PutUint32(footer[32:], bloomProbes)
	binary.LittleEndian.PutUint64(footer[36:], uint64(n))
	binary.LittleEndian.PutUint32(footer[44:], crc32.ChecksumIEEE(footer[:44]))
	binary.LittleEndian.PutUint64(footer[48:], tableMagicV4)
	w.img = append(w.img, footer[:]...)

	meta := tableMeta{
		num:        num,
		level:      w.level,
		size:       int64(len(w.img)),
		smallest:   w.smallest,
		largest:    append([]byte(nil), w.prevKey...),
		entries:    uint64(n),
		tombstones: w.tombstones,
		blobs:      blobs,
		h:          new(tableHandle),
	}
	path := tablePath(w.dir, num)
	err := w.retry.do(func() error { return faultfs.WriteFileSync(w.fsys, path, w.img) })
	w.reset()
	if err != nil {
		return tableMeta{}, err
	}
	return meta, nil
}
