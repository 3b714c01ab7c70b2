package lsm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ethkv/internal/faultfs"
)

// writeTable materialises ents through the streaming tableWriter — the slice
// hand-off tests want, kept out of the store's own code.
func writeTable(fsys faultfs.FS, dir string, num uint64, level int, ents []entry) (tableMeta, error) {
	var size int
	for _, e := range ents {
		size += len(e.key) + len(e.value)
	}
	w := newTableWriter(fsys, dir, passRetry, level, size)
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

// goldenTableSHA256 pins the exact bytes of every corpus table, recorded
// from the slice-based writer at f14e24a that the streaming tableWriter
// replaced.
var goldenTableSHA256 = map[string]string{
	"one/v2":            "8a6541edefd5ea79b6f98e8d85d34fb552f19d4e9f65362747980716a098fb10",
	"one-tombstone/v2":  "475e685428cc0e141fb9dfcc715bc3fab20c280a9802a9ce811efb9329d594d0",
	"empty-values/v2":   "9870d90676b8bc87ac830a29c101e7dfb75cef163fa8971583631757eb7f4f08",
	"tombstones/v2":     "d807fefd66307195d6cd2be86abf2ba7a9b3eba1466567c47e42da1787199480",
	"block-boundary/v2": "be98efb127e96d9a5ef610ea3689204cf72775a6eab108e0a1e03f7ba857a54c",
	"mixed/v2":          "058524918fc5fc1a40f77a8ade3b5717d19c55dd7b8413bb27554bc869d30e87",
}

// TestTableWriterGoldenBytes checks the streaming writer emits, byte for
// byte, the images the materialise-then-encode writer did, and that the
// returned metadata describes them. One writer produces the whole corpus,
// largest table first, so every later image is encoded over a recycled
// buffer full of stale bytes.
func TestTableWriterGoldenBytes(t *testing.T) {
	corpus := goldenCorpus()
	sort.SliceStable(corpus, func(i, j int) bool { return len(corpus[i].ents) > len(corpus[j].ents) })
	m := faultfs.NewMemFS()
	w := newTableWriter(m, "d", passRetry, 2, 0)
	defer w.release()
	for _, c := range corpus {
		name := c.name + "/v2"
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
		sum := sha256.Sum256(img)
		got := hex.EncodeToString(sum[:])
		if want := goldenTableSHA256[name]; got != want {
			t.Errorf("%s: image sha256 %s, want %s", name, got, want)
		}
		first, last := c.ents[0].key, c.ents[len(c.ents)-1].key
		if meta.num != 7 || meta.level != 2 || meta.size != int64(len(img)) ||
			meta.entries != uint64(len(c.ents)) ||
			string(meta.smallest) != string(first) || string(meta.largest) != string(last) {
			t.Errorf("%s: meta %+v does not describe the image (%d bytes, %d entries)",
				name, meta, len(img), len(c.ents))
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
	retries := 0
	retry := func(op func() error) error {
		for {
			err := op()
			if err == nil || !faultfs.IsTransient(err) {
				return err
			}
			retries++
		}
	}
	w := newTableWriter(fsys, "d", retry, 1, 0)
	defer w.release()
	for _, e := range c.ents {
		w.add(e.key, e.value, e.tombstone)
	}
	if _, err := w.finish(9); err != nil {
		t.Fatal(err)
	}
	want := "create write sync close create write sync close"
	if got := strings.Join(fsys.ops, " "); got != want || retries != 1 {
		t.Fatalf("filesystem ops %q with %d retries, want %q with 1", got, retries, want)
	}
	img, err := fsys.ReadFile(tablePath("d", 9))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(img)
	if got := hex.EncodeToString(sum[:]); got != goldenTableSHA256[c.name+"/v2"] {
		t.Fatalf("image after a retried write: sha256 %s, want the golden %s", got, goldenTableSHA256[c.name+"/v2"])
	}
	if w.entries() != 0 {
		t.Fatal("finish left entries in the writer")
	}
}
