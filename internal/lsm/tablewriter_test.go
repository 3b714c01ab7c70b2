package lsm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
)

// writeTable materialises ents through the streaming tableWriter — the slice
// hand-off tests want, kept out of the store's own code.
func writeTable(fsys faultfs.FS, dir string, num uint64, level int, ents []entry) (tableMeta, error) {
	var size int
	for _, e := range ents {
		size += len(e.key) + len(e.value)
	}
	w := newTableWriter(fsys, dir, retryPolicy{}, level, size)
	defer w.release()
	for _, e := range ents {
		w.add(e.key, e.value, e.tombstone)
	}
	return w.finish(num)
}

// resealSection recomputes the checksum trailer of the section stored at
// img[off:off+length], so deliberate damage to its payload gets past the
// checksum and reaches the parse-time checks behind it.
func resealSection(img []byte, off, length uint64) {
	end := off + length - blockCRCSize
	binary.LittleEndian.PutUint32(img[end:], crc32.ChecksumIEEE(img[off:end]))
}

// resealFooter recomputes a table image's footer checksum after a test
// rewrote footer fields.
func resealFooter(img []byte) {
	footer := img[len(img)-footerSize:]
	binary.LittleEndian.PutUint32(footer[44:], crc32.ChecksumIEEE(footer[:44]))
}

// goldenKey is a fixed-width ascending key: 8-byte big-endian counter.
// probe is a point lookup on one table as a DB read would make it, for tests
// that drive a reader directly; bytesRead is what it fetched from the file.
func (t *tableReader) probe(key []byte) (value []byte, found, deleted bool, bytesRead int, err error) {
	var rc readCounts
	value, flags, found, err := t.get(key, bloomHash(key), &rc)
	return value, found, flags&flagTombstone != 0, rc.physicalBytes, err
}

// mayContain hashes key and probes it.
func (f *bloomFilter) mayContain(key []byte) bool {
	return f.mayContainHash(bloomHash(key))
}

// walkBlock yields the entries of one data block in order until yield
// returns false — the linear decoder point reads used before blocks were
// indexed (block.go), kept as the reference the binary search is checked
// against. Damaged framing returns errTableCorrupt.
func walkBlock(block []byte, yield func(entry) bool) error {
	for len(block) > 0 {
		flags := block[0]
		block = block[1:]
		klen, n := binary.Uvarint(block)
		if n <= 0 || uint64(len(block)-n) < klen {
			return fmt.Errorf("%w: entry key framing", errTableCorrupt)
		}
		block = block[n:]
		key := block[:klen]
		block = block[klen:]
		vlen, n := binary.Uvarint(block)
		if n <= 0 || uint64(len(block)-n) < vlen {
			return fmt.Errorf("%w: entry value framing", errTableCorrupt)
		}
		block = block[n:]
		value := block[:vlen]
		block = block[vlen:]
		if !yield(entry{key: key, value: value, tombstone: flags&1 != 0}) {
			return nil
		}
	}
	return nil
}

func goldenKey(i int) []byte {
	k := make([]byte, 8)
	binary.BigEndian.PutUint64(k, uint64(i))
	return k
}

// goldenCorpus is the seeded set of tables whose images are pinned by
// TestTableWriterGoldenBytes. Changing it invalidates the recorded hashes.
func goldenCorpus() []struct {
	name string
	ents []entry
} {
	rng := rand.New(rand.NewSource(20250925))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var corpus []struct {
		name string
		ents []entry
	}
	add := func(name string, ents []entry) {
		corpus = append(corpus, struct {
			name string
			ents []entry
		}{name, ents})
	}

	add("one", []entry{{key: []byte("k"), value: []byte("v")}})
	add("one-tombstone", []entry{{key: []byte("gone"), tombstone: true}})

	var empties []entry
	for i := 0; i < 700; i++ {
		empties = append(empties, entry{key: goldenKey(i)})
	}
	add("empty-values", empties)

	var tombs []entry
	for i := 0; i < 900; i++ {
		e := entry{key: goldenKey(i * 3)}
		if i%3 == 1 {
			e.tombstone = true
		} else {
			e.value = fill(1 + i%97)
		}
		tombs = append(tombs, e)
	}
	add("tombstones", tombs)

	// An entry with an 8-byte key and a v-byte value (128 <= v < 16384)
	// encodes to 1+1+8+2+v bytes, so v = 4084 fills a 4096-byte block
	// exactly, 4083 leaves it one byte short (the next entry lands in the
	// same block) and 4085 overshoots by one.
	var edge []entry
	for i, v := range []int{4084, 4083, 0, 4085, 4084, 4084, 4083, 1, 4082, 2, 9000, 4083} {
		edge = append(edge, entry{key: goldenKey(i), value: fill(v)})
	}
	add("block-boundary", edge)

	// Varied key and value lengths, a few tombstones, enough data for many
	// blocks and a multi-kilobyte index and bloom.
	seen := map[string]bool{}
	var mixed []entry
	for len(mixed) < 6000 {
		k := fill(1 + rng.Intn(40))
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		e := entry{key: k}
		switch rng.Intn(10) {
		case 0:
			e.tombstone = true
		case 1:
		default:
			e.value = fill(rng.Intn(300))
		}
		mixed = append(mixed, e)
	}
	sort.Slice(mixed, func(i, j int) bool { return string(mixed[i].key) < string(mixed[j].key) })
	add("mixed", mixed)
	return corpus
}

// goldenTableSHA256 pins the exact bytes of every corpus table. The v4
// images are the writer's; the v2 ones are the fixtures in testdata/golden,
// written by the v2 writer this format replaced (they pinned its output
// since the streaming writer replaced the slice-based one at f14e24a).
var goldenTableSHA256 = map[string]string{
	"one/v2":            "8a6541edefd5ea79b6f98e8d85d34fb552f19d4e9f65362747980716a098fb10",
	"one-tombstone/v2":  "475e685428cc0e141fb9dfcc715bc3fab20c280a9802a9ce811efb9329d594d0",
	"empty-values/v2":   "9870d90676b8bc87ac830a29c101e7dfb75cef163fa8971583631757eb7f4f08",
	"tombstones/v2":     "d807fefd66307195d6cd2be86abf2ba7a9b3eba1466567c47e42da1787199480",
	"block-boundary/v2": "be98efb127e96d9a5ef610ea3689204cf72775a6eab108e0a1e03f7ba857a54c",
	"mixed/v2":          "058524918fc5fc1a40f77a8ade3b5717d19c55dd7b8413bb27554bc869d30e87",
	"one/v4":            "0b0eaf57232810a6fc79c57ce10ee6cee62258a21ebbccbe0b8f37e00d2e59b3",
	"one-tombstone/v4":  "45665655959099502211ace0283a3d6c7a965dd6cf61f4b3a8e84e782d5c851c",
	"empty-values/v4":   "a2e617f7635ffd267c97e59c7c9f4d6cb8b76cbc649688cbca3f8678f3553e69",
	"tombstones/v4":     "cc8d932237d007722b359221104b033ebe2b033408e86f6d281fa90051d34328",
	"block-boundary/v4": "0edcaf4609c405468b845f39e08e36159b1717b3ffc671c26dde45d3960b05eb",
	"mixed/v4":          "a34eee7a700287a77ef3d8bbd4315ea7ae51ed4a245d8e2fae9d81b8711fa20d",
}

// goldenFixture reads a table image checked in under testdata/golden and
// requires its sha256 to be want.
func goldenFixture(t *testing.T, file, want string) []byte {
	t.Helper()
	img, err := os.ReadFile(filepath.Join("testdata", "golden", file))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(img); got != want {
		t.Fatalf("fixture %s: sha256 %s, want %s", file, got, want)
	}
	return img
}

func sha256Hex(img []byte) string {
	sum := sha256.Sum256(img)
	return hex.EncodeToString(sum[:])
}

// tableContents reads an image back through both read paths: the entries a
// walk yields, copied, and for each what a point read of its key returns.
// The two must agree.
func tableContents(t *testing.T, what string, img []byte, meta tableMeta) []entry {
	t.Helper()
	r, err := newTableReader(img, meta)
	if err != nil {
		t.Fatalf("%s: open: %v", what, err)
	}
	var ents []entry
	it := r.iterator(nil, true)
	for it.next() {
		e := it.cur
		ents = append(ents, entry{key: bytes.Clone(e.key), value: bytes.Clone(e.value), tombstone: e.tombstone, handle: e.handle})
	}
	if it.err != nil {
		t.Fatalf("%s: walk: %v", what, it.err)
	}
	for _, e := range ents {
		var rc readCounts
		v, flags, found, err := r.get(e.key, bloomHash(e.key), &rc)
		if err != nil || !found || !bytes.Equal(v, e.value) ||
			flags&flagTombstone != 0 != e.tombstone || flags&flagBlob != 0 != e.handle {
			t.Fatalf("%s: point read of %q disagrees with the walk (found=%v, err=%v)", what, e.key, found, err)
		}
	}
	return ents
}

// requireEntries requires a walk to have yielded want, handle flags
// included.
func requireEntries(t *testing.T, what string, got, want []entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !bytes.Equal(g.key, w.key) || !bytes.Equal(g.value, w.value) || g.tombstone != w.tombstone || g.handle != w.handle {
			t.Fatalf("%s: entry %d is %q (%d value bytes, tombstone=%v, handle=%v), want %q (%d, %v, %v)",
				what, i, g.key, len(g.value), g.tombstone, g.handle, w.key, len(w.value), w.tombstone, w.handle)
		}
	}
}

// TestTableWriterGoldenBytes pins the writer's v4 image of every corpus
// table, checks the returned metadata describes it, and requires the reader
// to yield the corpus from it and, identically, from the v2 image of the
// same table. The two cut their blocks after the same entries, and the v4
// image is the smaller wherever a block holds keys sharing a prefix. One writer produces the whole corpus, largest table first, so
// every later image is encoded over a recycled buffer full of stale bytes.
func TestTableWriterGoldenBytes(t *testing.T) {
	corpus := goldenCorpus()
	sort.SliceStable(corpus, func(i, j int) bool { return len(corpus[i].ents) > len(corpus[j].ents) })
	m := faultfs.NewMemFS()
	w := newTableWriter(m, "d", retryPolicy{}, 2, 0)
	defer w.release()
	for _, c := range corpus {
		name := c.name + "/v4"
		for _, e := range c.ents {
			w.add(e.key, e.value, e.tombstone)
		}
		meta, err := w.finish(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		img, err := m.ReadFile(tablePath("d", 7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := sha256Hex(img), goldenTableSHA256[name]; got != want {
			t.Errorf("%s: image sha256 %s, want %s", name, got, want)
		}
		first, last := c.ents[0].key, c.ents[len(c.ents)-1].key
		if meta.num != 7 || meta.level != 2 || meta.size != int64(len(img)) ||
			meta.entries != uint64(len(c.ents)) ||
			string(meta.smallest) != string(first) || string(meta.largest) != string(last) {
			t.Errorf("%s: meta %+v does not describe the image (%d bytes, %d entries)",
				name, meta, len(img), len(c.ents))
		}
		v2 := goldenFixture(t, c.name+".v2.sst", goldenTableSHA256[c.name+"/v2"])
		got := tableContents(t, name, img, meta)
		requireEntries(t, name, got, c.ents)
		requireEntries(t, c.name+": v4 against v2", got, tableContents(t, c.name+"/v2", v2, tableMeta{num: 7}))
		r4, err := newTableReader(img, meta)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := newTableReader(v2, tableMeta{num: 7})
		if err != nil {
			t.Fatal(err)
		}
		if len(r4.index) != len(r2.index) {
			t.Fatalf("%s: %d blocks, the v2 image has %d", name, len(r4.index), len(r2.index))
		}
		for i := range r4.index {
			if !bytes.Equal(r4.index[i].lastKey, r2.index[i].lastKey) {
				t.Fatalf("%s: block %d ends at %q, the v2 block at %q", name, i, r4.index[i].lastKey, r2.index[i].lastKey)
			}
		}
	}
}

// opLogFS records the write-path calls a table write makes and fails the
// first failSyncs Syncs with a transient fault.
type opLogFS struct {
	faultfs.FS
	ops       []string
	failSyncs int
}

func (l *opLogFS) Create(path string) (faultfs.File, error) {
	l.ops = append(l.ops, "create")
	f, err := l.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &opLogFile{File: f, fs: l}, nil
}

type opLogFile struct {
	faultfs.File
	fs *opLogFS
}

func (f *opLogFile) Write(p []byte) (int, error) {
	f.fs.ops = append(f.fs.ops, "write")
	return f.File.Write(p)
}

func (f *opLogFile) Sync() error {
	f.fs.ops = append(f.fs.ops, "sync")
	if f.fs.failSyncs > 0 {
		f.fs.failSyncs--
		return &faultfs.FaultError{Op: "sync", Transient: true}
	}
	return f.File.Sync()
}

func (f *opLogFile) Close() error {
	f.fs.ops = append(f.fs.ops, "close")
	return f.File.Close()
}

// TestTableWriterRetriesOnlyIO pins the filesystem sequence of a table write
// — one Create/Write/Sync/Close — and that a transient fault repeats exactly
// that sequence over the image already encoded: the entries are added once,
// the retry hands the same bytes to the device again.
func TestTableWriterRetriesOnlyIO(t *testing.T) {
	c := goldenCorpus()[3] // tombstones
	fsys := &opLogFS{FS: faultfs.NewMemFS(), failSyncs: 1}
	var retries atomic.Uint64
	w := newTableWriter(fsys, "d", retryPolicy{&retries}, 1, 0)
	defer w.release()
	for _, e := range c.ents {
		w.add(e.key, e.value, e.tombstone)
	}
	if _, err := w.finish(9); err != nil {
		t.Fatal(err)
	}
	want := "create write sync close create write sync close"
	if got := strings.Join(fsys.ops, " "); got != want || retries.Load() != 1 {
		t.Fatalf("filesystem ops %q with %d retries, want %q with 1", got, retries.Load(), want)
	}
	img, err := fsys.ReadFile(tablePath("d", 9))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sha256Hex(img), goldenTableSHA256[c.name+"/v4"]; got != want {
		t.Fatalf("image after a retried write: sha256 %s, want the golden %s", got, want)
	}
	if w.entries() != 0 {
		t.Fatal("finish left entries in the writer")
	}
}

// TestOpenServesV2Tables: a store whose MANIFEST names a v2 table — the
// fixture of TestTableWriterGoldenBytes' tombstones corpus — opens and
// serves it, and a full compaction rewrites it as v4 with every read
// unchanged.
func TestOpenServesV2Tables(t *testing.T) {
	c := goldenCorpus()[3] // tombstones
	img := goldenFixture(t, "tombstones.v2.sst", goldenTableSHA256["tombstones/v2"])
	m := faultfs.NewMemFS()
	if err := m.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}
	if err := faultfs.WriteFileSync(m, tablePath("db", 7), img); err != nil {
		t.Fatal(err)
	}
	meta := tableMeta{num: 7, level: 1, size: int64(len(img)), entries: uint64(len(c.ents)),
		smallest: c.ents[0].key, largest: c.ents[len(c.ents)-1].key}
	if err := faultfs.WriteFileSync(m, "db/MANIFEST", encodeManifest(8, version{1: {meta}})); err != nil {
		t.Fatal(err)
	}
	db, err := Open("db", Options{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check := func(when string) {
		t.Helper()
		for _, e := range c.ents {
			v, err := db.Get(e.key)
			if e.tombstone && err != kv.ErrNotFound || !e.tombstone && (err != nil || !bytes.Equal(v, e.value)) {
				t.Fatalf("%s: Get(%x) = %d bytes, %v", when, e.key, len(v), err)
			}
		}
	}
	check("v2 table")
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	var tables []tableMeta
	for _, metas := range db.current {
		tables = append(tables, metas...)
	}
	db.mu.RUnlock()
	for _, tm := range tables {
		raw, err := m.ReadFile(tablePath("db", tm.num))
		if err != nil {
			t.Fatal(err)
		}
		if tm.num == 7 || binary.LittleEndian.Uint64(raw[len(raw)-8:]) != tableMagicV4 {
			t.Fatalf("after CompactAll table %06d is not a rewritten v4 table", tm.num)
		}
	}
	if len(tables) == 0 {
		t.Fatal("CompactAll left no table")
	}
	check("rewritten as v4")
}
