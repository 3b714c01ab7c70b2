package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"ethkv/internal/compaction"
	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
	"ethkv/internal/obs"
)

// blobOpts is a small tree on MemFS whose merges run through several levels.
func blobOpts() Options {
	return Options{
		FS:                   faultfs.NewMemFS(),
		MemtableBytes:        16 << 10,
		L0CompactionTrigger:  2,
		LevelBaseBytes:       32 << 10,
		CompactionTableBytes: 8 << 10,
	}
}

// blobKey and blobValue make a deterministic workload: every third key holds
// a value of 1–8 KiB, the rest small ones; gen varies the bytes.
func blobKey(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }

func blobValue(i, gen int) []byte {
	n := 20 + i%50
	if i%3 == 0 {
		n = blobValueThreshold + (i*977)%(7<<10)
	}
	v := bytes.Repeat([]byte{byte('a' + (i+gen)%26)}, n)
	copy(v, fmt.Sprintf("%d/%d/", gen, i))
	return v
}

// checkContents requires Get, Has and a full scan to agree with want.
func checkContents(t *testing.T, db *DB, want map[string][]byte) {
	t.Helper()
	for k, v := range want {
		got, err := db.Get([]byte(k))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%s) = %d bytes, %v; want %d bytes", k, len(got), err, len(v))
		}
		if ok, err := db.Has([]byte(k)); !ok || err != nil {
			t.Fatalf("Has(%s) = %v, %v", k, ok, err)
		}
	}
	it := db.NewIterator(nil, nil)
	defer it.Release()
	n := 0
	for it.Next() {
		if v, ok := want[string(it.Key())]; !ok || !bytes.Equal(it.Value(), v) {
			t.Fatalf("scan: %s = %d bytes, want %d (present %v)", it.Key(), len(it.Value()), len(v), ok)
		}
		n++
	}
	if err := it.Error(); err != nil || n != len(want) {
		t.Fatalf("scan: %d of %d pairs, err %v", n, len(want), err)
	}
}

// blobFilesOnDisk lists the blob file numbers in the store's directory.
func blobFilesOnDisk(t *testing.T, fsys faultfs.FS, dir string) []uint64 {
	t.Helper()
	paths, err := fsys.Glob(filepath.Join(dir, "*.blob"))
	if err != nil {
		t.Fatal(err)
	}
	var nums []uint64
	for _, p := range paths {
		var num uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "%d.blob", &num); err != nil {
			t.Fatalf("stray blob file name %s", p)
		}
		nums = append(nums, num)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums
}

// referencedBlobs lists the blob files the store's version references.
func referencedBlobs(db *DB) []uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var nums []uint64
	for num := range db.current.blobUsage() {
		nums = append(nums, num)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums
}

// TestValueSeparation: values of blobValueThreshold bytes or more leave the
// tables for blob files at flush, every read path returns them intact before
// and after a full compaction and a reopen, merges never write a blob byte,
// and a value one byte short of the threshold stays inline.
func TestValueSeparation(t *testing.T) {
	opts := blobOpts()
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	want := make(map[string][]byte)
	var large uint64
	for i := 0; i < 300; i++ {
		v := blobValue(i, 0)
		if len(v) >= blobValueThreshold {
			large += uint64(len(v))
		}
		if err := db.Put(blobKey(i), v); err != nil {
			t.Fatal(err)
		}
		want[string(blobKey(i))] = v
	}
	edge := map[string][]byte{
		"edge-inline": bytes.Repeat([]byte{'i'}, blobValueThreshold-1),
		"edge-blob":   bytes.Repeat([]byte{'b'}, blobValueThreshold),
	}
	for k, v := range edge {
		db.Put([]byte(k), v)
		want[k] = v
	}
	large += blobValueThreshold
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	checkContents(t, db, want)
	bs := db.BlobStats()
	if bs.Files == 0 || bs.LiveBytes != large || bs.DeadBytes != 0 || bs.WrittenBytes != large {
		t.Fatalf("after flush: %+v, want %d live and written bytes, none dead", bs, large)
	}
	written := db.Stats().PhysicalBytesWrite
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	checkContents(t, db, want)
	if got := db.BlobStats(); got != bs {
		t.Fatalf("CompactAll moved the blob files: %+v, was %+v", got, bs)
	}
	// The merges wrote tables of handles, nowhere near the separated bytes.
	if merged := db.Stats().PhysicalBytesWrite - written; merged >= large {
		t.Fatalf("CompactAll wrote %d bytes over %d separated value bytes", merged, large)
	}
	v3 := 0
	db.mu.RLock()
	for _, metas := range db.current {
		for _, m := range metas {
			if len(m.blobs) > 0 {
				v3++
			}
		}
	}
	db.mu.RUnlock()
	if v3 == 0 {
		t.Fatal("no table references a blob file")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open("db", opts); err != nil {
		t.Fatal(err)
	}
	checkContents(t, db, want)
	if got := db.BlobStats(); got.Files != bs.Files || got.LiveBytes != bs.LiveBytes || got.DeadBytes != 0 {
		t.Fatalf("after reopen: %+v, was %+v", got, bs)
	}
}

// TestBlobSpaceIsReclaimedWhole: a merge that drops a superseded handle
// leaves its bytes dead in the blob file until every value of the file is
// gone; then the file is unlinked. Overwriting every large value and
// compacting everything leaves no dead bytes and no superseded blob file.
func TestBlobSpaceIsReclaimedWhole(t *testing.T) {
	opts := blobOpts()
	opts.MemtableBytes = 1 << 20 // one flush, one blob file, per phase
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	want := make(map[string][]byte)
	put := func(i, gen int) {
		t.Helper()
		v := blobValue(i, gen)
		if err := db.Put(blobKey(i), v); err != nil {
			t.Fatal(err)
		}
		want[string(blobKey(i))] = v
	}
	for i := 0; i < 300; i++ {
		put(i, 0)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	first := referencedBlobs(db)
	if len(first) != 1 {
		t.Fatalf("one flush made blob files %v", first)
	}
	// Overwrite half the large values: after a full merge their old bytes
	// are dead, and the first blob file stays for the other half.
	var dead uint64
	for i := 0; i < 300; i += 6 {
		dead += uint64(len(blobValue(i, 0)))
		put(i, 1)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	checkContents(t, db, want)
	if bs := db.BlobStats(); bs.DeadBytes != dead || bs.Files != 2 {
		t.Fatalf("half overwritten: %+v, want %d dead bytes in 2 files", bs, dead)
	}
	for i := 3; i < 300; i += 6 {
		put(i, 1)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	checkContents(t, db, want)
	if bs := db.BlobStats(); bs.DeadBytes != 0 {
		t.Fatalf("every large value overwritten and compacted: %d dead bytes", bs.DeadBytes)
	}
	live := referencedBlobs(db)
	if len(live) == 0 || live[0] == first[0] {
		t.Fatalf("referenced blob files %v still include the superseded %d", live, first[0])
	}
	// Unlinks follow the manifest; Close waits for them.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := blobFilesOnDisk(t, opts.FS, "db"); !reflect.DeepEqual(got, live) {
		t.Fatalf("blob files on disk %v, referenced %v", got, live)
	}
}

// TestOpenRemovesUnreferencedBlobs: a blob file no table names — a flush
// that crashed before its manifest — is deleted at Open; referenced ones
// stay.
func TestOpenRemovesUnreferencedBlobs(t *testing.T) {
	opts := blobOpts()
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		db.Put(blobKey(i), blobValue(i, 0))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	live := blobFilesOnDisk(t, opts.FS, "db")
	if len(live) == 0 {
		t.Fatal("no blob file written")
	}
	if err := faultfs.WriteFileSync(opts.FS, blobPath("db", 999999), []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	if db, err = Open("db", opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := blobFilesOnDisk(t, opts.FS, "db"); !reflect.DeepEqual(got, live) {
		t.Fatalf("after Open: blob files %v, want %v", got, live)
	}
}

// TestScanOutlivesBlobUnlink: an iterator opened before a merge that
// retires every blob file it reads still reads them all, on the OS
// filesystem, where the unlink is real: its table readers hold the blob
// files open.
func TestScanOutlivesBlobUnlink(t *testing.T) {
	opts := blobOpts()
	opts.FS = nil
	db := openTestDB(t, opts)
	old := make(map[string][]byte)
	for i := 0; i < 120; i++ {
		db.Put(blobKey(i), blobValue(i, 0))
		old[string(blobKey(i))] = blobValue(i, 0)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	before := referencedBlobs(db)
	it := db.NewIterator(nil, nil)
	defer it.Release()
	for i := 0; i < 120; i++ {
		db.Put(blobKey(i), blobValue(i, 1))
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	db.bgWG.Wait() // the unlinks run after the job's install
	for _, num := range before {
		if _, err := db.fs.Open(blobPath(db.dir, num)); err == nil {
			t.Fatalf("superseded blob file %d still on disk", num)
		}
	}
	n := 0
	for it.Next() {
		if !bytes.Equal(it.Value(), old[string(it.Key())]) {
			t.Fatalf("scan read %s wrong after its blob file was unlinked", it.Key())
		}
		n++
	}
	if err := it.Error(); err != nil || n != len(old) {
		t.Fatalf("scan: %d of %d pairs, err %v", n, len(old), err)
	}
}

// TestScanResolvesHandlesAcrossTableBoundary: a deeper level's tables are
// one merge source, which is already walking the next table when the merge
// hands out the previous table's last entry. Tables side by side in L1, each
// with its own blob file and handles on both sides of every boundary, must
// scan back every value: a handle resolves through the table it came from.
func TestScanResolvesHandlesAcrossTableBoundary(t *testing.T) {
	opts := blobOpts()
	opts.L0CompactionTrigger = 100 // the flushes stay in L0 until moved below
	db := openTestDB(t, opts)
	want := make(map[string][]byte)
	for i := 0; i < 30; i++ {
		v := bytes.Repeat([]byte{byte('a' + i%26)}, blobValueThreshold+i)
		if err := db.Put(blobKey(i), v); err != nil {
			t.Fatal(err)
		}
		want[string(blobKey(i))] = v
		if i%10 == 9 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The flushes wrote ascending, key-disjoint tables: relabel them L1.
	db.mu.Lock()
	l0 := db.current[0]
	var moved []tableMeta
	for _, m := range l0 {
		m.level = 1
		moved = append(moved, m)
	}
	db.current = db.current.apply(versionEdit{removed: l0, added: moved})
	l1 := db.current[1]
	db.mu.Unlock()
	if len(l1) < 3 {
		t.Fatalf("L1 holds %d tables, want 3", len(l1))
	}
	for i := 1; i < len(l1); i++ {
		if len(l1[i-1].blobs) != 1 || len(l1[i].blobs) != 1 || l1[i-1].blobs[0].num == l1[i].blobs[0].num {
			t.Fatalf("tables %06d and %06d do not each hold their own blob file: %v, %v",
				l1[i-1].num, l1[i].num, l1[i-1].blobs, l1[i].blobs)
		}
	}
	checkContents(t, db, want)
}

// TestBlobDamageIsCorruption: a flipped byte in a blob file fails the
// point read and the scan that reach it with errTableCorrupt; every other
// value still reads.
func TestBlobDamageIsCorruption(t *testing.T) {
	opts := blobOpts()
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		db.Put(blobKey(i), blobValue(i, 0))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	nums := blobFilesOnDisk(t, opts.FS, "db")
	path := blobPath("db", nums[0])
	img, err := opts.FS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img = append([]byte(nil), img...)
	img[len(img)/2] ^= 0x40
	if err := faultfs.WriteFileSync(opts.FS, path, img); err != nil {
		t.Fatal(err)
	}
	if db, err = Open("db", opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	corrupt := 0
	for i := 0; i < 30; i++ {
		v, err := db.Get(blobKey(i))
		switch {
		case errors.Is(err, errTableCorrupt):
			corrupt++
		case err != nil || !bytes.Equal(v, blobValue(i, 0)):
			t.Fatalf("Get(%s) = %d bytes, %v: wrong data from a damaged blob file", blobKey(i), len(v), err)
		}
	}
	if corrupt != 1 {
		t.Fatalf("%d reads failed on one flipped byte, want 1", corrupt)
	}
	it := db.NewIterator(nil, nil)
	for it.Next() {
	}
	if err := it.Error(); !errors.Is(err, errTableCorrupt) {
		t.Fatalf("scan over a damaged blob file: err %v", err)
	}
	it.Release()
}

// TestBlobMetrics: what BlobStats reads is exported — the file count as a
// gauge of its own, the live and dead bytes as the store's value-log data
// bytes (kv.Stats.LiveDataBytes and DeadDataBytes), as the flat store
// reports its segments'.
func TestBlobMetrics(t *testing.T) {
	db := openTestDB(t, blobOpts())
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < 90; i += 1 + gen {
			db.Put(blobKey(i), blobValue(i, gen))
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	db.RegisterMetrics(r, "store", "lsm")
	g := r.Snapshot().Gauges
	bs := db.BlobStats()
	for name, want := range map[string]float64{
		"ethkv_lsm_blob_files":        float64(bs.Files),
		"ethkv_store_live_data_bytes": float64(bs.LiveBytes),
		"ethkv_store_dead_data_bytes": float64(bs.DeadBytes),
	} {
		if got, ok := g[obs.Name(name, "store", "lsm")]; !ok || got != want {
			t.Fatalf("%s = %v (exported %v), want %v", name, got, ok, want)
		}
	}
	if st := db.Stats(); st.LiveDataBytes != bs.LiveBytes || st.DeadDataBytes != bs.DeadBytes {
		t.Fatalf("Stats reports %d live, %d dead data bytes; BlobStats %+v", st.LiveDataBytes, st.DeadDataBytes, bs)
	}
	if bs.Files == 0 || bs.LiveBytes == 0 || bs.DeadBytes == 0 {
		t.Fatalf("no live and dead blob bytes to export: %+v", bs)
	}
}

// goldenV3 is a table with handles into two blob files, as tableWriter
// writes it: an inline value, a tombstone, and three handles.
func goldenV3(t *testing.T, w *tableWriter) (tableMeta, error) {
	t.Helper()
	sizes := map[uint64]uint64{5: 2524, 7: 2000}
	w.blobBytes = func(num uint64) uint64 { return sizes[num] }
	handle := func(num, off, length uint64) []byte {
		return appendHandle(nil, blobHandle{num: num, off: off, length: length, crc: uint32(num*1000 + off)})
	}
	w.add([]byte("a"), []byte("inline"), false)
	w.addEntry(entry{key: []byte("b"), value: handle(5, 0, 1500), handle: true})
	w.add([]byte("c"), nil, true)
	w.addEntry(entry{key: []byte("d"), value: handle(7, 0, 2000), handle: true})
	w.addEntry(entry{key: []byte("e"), value: handle(5, 1500, 1024), handle: true})
	return w.finish(9)
}

// TestTableWriterGoldenV3 pins the v4 image of a table holding handles —
// entries under the blob flag, the blob-ref list between bloom and footer —
// and what the reader and Open's footer check decode from it, and requires
// the same from the v3 image of the table (testdata/golden), the format
// that held handles before v4.
func TestTableWriterGoldenV3(t *testing.T) {
	const (
		wantV3 = "8b78d1631d6b7e4a7c46de89b58052870bc2a14c570c7077fd7133a3e6effcb6"
		wantV4 = "41a3e4d38ea28c8d612db4b2935eab98c798be5937bd8071b050d3169ee062b7"
	)
	m := faultfs.NewMemFS()
	w := newTableWriter(m, "d", retryPolicy{}, 1, 0)
	defer w.release()
	meta, err := goldenV3(t, w)
	if err != nil {
		t.Fatal(err)
	}
	img, err := m.ReadFile(tablePath("d", 9))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(img); got != wantV4 {
		t.Errorf("v4 image sha256 %s, want %s", got, wantV4)
	}
	v3 := goldenFixture(t, "blob-handles.v3.sst", wantV3)
	refs := []blobRef{{num: 5, fileBytes: 2524, refBytes: 2524}, {num: 7, fileBytes: 2000, refBytes: 2000}}
	if !reflect.DeepEqual(meta.blobs, refs) {
		t.Fatalf("meta blob refs %+v, want %+v", meta.blobs, refs)
	}
	var walks [][]entry
	for _, c := range []struct {
		name  string
		img   []byte
		magic uint64
	}{{"v4", img, tableMagicV4}, {"v3", v3, tableMagicV3}} {
		if magic := binary.LittleEndian.Uint64(c.img[len(c.img)-8:]); magic != c.magic {
			t.Fatalf("%s: magic %x, want %x", c.name, magic, c.magic)
		}
		if err := faultfs.WriteFileSync(m, tablePath("d", 9), c.img); err != nil {
			t.Fatal(err)
		}
		got, err := checkTableFooter(m, "d", meta, retryPolicy{})
		if err != nil || !reflect.DeepEqual(got, refs) {
			t.Fatalf("%s: footer check: %+v, %v; want %+v", c.name, got, err, refs)
		}
		ents := tableContents(t, c.name, c.img, meta)
		var flags []string
		for _, e := range ents {
			flags = append(flags, fmt.Sprintf("%s:%v/%v", e.key, e.tombstone, e.handle))
		}
		if strings.Join(flags, " ") != "a:false/false b:false/true c:true/false d:false/true e:false/true" {
			t.Fatalf("%s: walk %v", c.name, flags)
		}
		walks = append(walks, ents)
		r, err := newTableReader(c.img, meta)
		if err != nil {
			t.Fatal(err)
		}
		// The byte-backed reader has no blob files: a handle cannot resolve.
		if _, err := r.readBlob(nil, appendHandle(nil, blobHandle{num: 5, length: 10})); !errors.Is(err, errTableCorrupt) {
			t.Fatalf("%s: readBlob without blob files: %v", c.name, err)
		}
	}
	requireEntries(t, "v4 against v3", walks[0], walks[1])
}

// TestTableFormatVersions: readFooter accepts v2, v3 and v4 and refuses
// every other version of the ethkv magic as corrupt.
func TestTableFormatVersions(t *testing.T) {
	m := faultfs.NewMemFS()
	meta, err := writeTable(m, "d", 1, 0, []entry{{key: []byte("k"), value: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := m.ReadFile(tablePath("d", 1))
	if err != nil {
		t.Fatal(err)
	}
	for version := uint64(0); version < 6; version++ {
		img := append([]byte(nil), clean...)
		binary.LittleEndian.PutUint64(img[len(img)-8:], tableMagic&^0xffff|version)
		resealFooter(img)
		r := &tableReader{meta: meta, src: bytes.NewReader(img), size: int64(len(img)), retry: retryPolicy{}}
		_, err := r.readFooter()
		if ok := version >= 2 && version <= 4; ok != (err == nil) || err != nil && !errors.Is(err, errTableCorrupt) {
			t.Fatalf("format v%d: readFooter err %v", version, err)
		}
	}
}

// TestHandleNamingUnreferencedBlobIsCorrupt: a table carrying the blob flag
// on a handle that names a file its blob-ref list does not — here an empty
// list — fails point reads and walks with errTableCorrupt.
func TestHandleNamingUnreferencedBlobIsCorrupt(t *testing.T) {
	m := faultfs.NewMemFS()
	w := newTableWriter(m, "d", retryPolicy{}, 0, 0)
	defer w.release()
	w.add([]byte("k"), appendHandle(nil, blobHandle{num: 3, length: 1 << 10}), false)
	meta, err := w.finish(1)
	if err != nil {
		t.Fatal(err)
	}
	img, _ := m.ReadFile(tablePath("d", 1))
	img = append([]byte(nil), img...)
	img[0] |= flagBlob // the entry's flags byte: a handle no ref covers
	r, err := newTableReader(img, meta)
	if err != nil {
		t.Fatal(err)
	}
	resealSection(img, r.index[0].offset, r.index[0].length)
	if r, err = newTableReader(img, meta); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := r.probe([]byte("k")); !errors.Is(err, errTableCorrupt) {
		t.Fatalf("point read of an unreferenced handle: %v", err)
	}
	it := r.iterator(nil, true)
	for it.next() {
	}
	if !errors.Is(it.err, errTableCorrupt) {
		t.Fatalf("walk over an unreferenced handle: %v", it.err)
	}
}

// TestHasOnHandleReadsNoBlob: Has answers from the handle and counts the
// value's length as a read, touching no blob byte; Get reads the blob once.
func TestHasOnHandleReadsNoBlob(t *testing.T) {
	opts := blobOpts()
	db := openTestDB(t, opts)
	v := bytes.Repeat([]byte("x"), 4<<10)
	db.Put([]byte("big"), v)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Get([]byte("big")) // cache the block
	before := db.Stats()
	if ok, err := db.Has([]byte("big")); !ok || err != nil {
		t.Fatalf("Has = %v, %v", ok, err)
	}
	mid := db.Stats()
	if mid.PhysicalBytesRead != before.PhysicalBytesRead || mid.LogicalBytesRead-before.LogicalBytesRead != uint64(len(v)) {
		t.Fatalf("Has: %d physical, %d logical bytes", mid.PhysicalBytesRead-before.PhysicalBytesRead,
			mid.LogicalBytesRead-before.LogicalBytesRead)
	}
	got, err := db.Get([]byte("big"))
	after := db.Stats()
	if err != nil || !bytes.Equal(got, v) || after.PhysicalBytesRead-mid.PhysicalBytesRead != uint64(len(v)) {
		t.Fatalf("Get: %d bytes, %v, %d physical bytes read", len(got), err, after.PhysicalBytesRead-mid.PhysicalBytesRead)
	}
	if _, err := db.Get([]byte("absent")); err != kv.ErrNotFound {
		t.Fatal(err)
	}
}

// TestGetSeparatedValueAllocatesOnlyTheValue: a Get that resolves a blob
// handle over cached blocks allocates the value it returns and nothing else
// — the blob read's retry wrapper costs no closure on the heap.
func TestGetSeparatedValueAllocatesOnlyTheValue(t *testing.T) {
	db := openTestDB(t, blobOpts())
	key, v := []byte("big"), bytes.Repeat([]byte("x"), 4<<10)
	db.Put(key, v)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := db.Get(key); err != nil || len(got) != len(v) {
			t.Fatalf("Get: %d bytes, %v", len(got), err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Get of a separated value: %.1f allocations, want 1 (the value)", allocs)
	}
}

// unlinkAuditFS checks, at every blob file removal, that the durable
// MANIFEST names no table referencing the file.
type unlinkAuditFS struct {
	faultfs.FS
	dir                 string
	removed, violations atomic.Int64
}

func (f *unlinkAuditFS) Remove(path string) error {
	var num uint64
	if _, err := fmt.Sscanf(filepath.Base(path), "%d.blob", &num); err == nil {
		f.removed.Add(1)
		raw, err := f.FS.ReadFile(filepath.Join(f.dir, "MANIFEST"))
		if err != nil {
			f.violations.Add(1)
		} else if _, v, err := decodeManifest(raw); err != nil {
			f.violations.Add(1)
		} else {
			for _, metas := range v {
				for _, m := range metas {
					// A table gone already was retired by a manifest newer
					// than the one read here.
					refs, err := checkTableFooter(f.FS, f.dir, m, retryPolicy{})
					if err == nil && findRef(refs, num) >= 0 {
						f.violations.Add(1)
					}
				}
			}
		}
	}
	return f.FS.Remove(path)
}

// TestBlobUnlinkFollowsManifest: a blob file is unlinked only once a
// durable manifest drops the last table referencing it — otherwise a crash
// between the unlink and the manifest reopens on tables whose values are
// gone.
func TestBlobUnlinkFollowsManifest(t *testing.T) {
	for _, workers := range []int{1, 4} {
		fsys := &unlinkAuditFS{FS: faultfs.NewMemFS(), dir: "db"}
		opts := blobOpts()
		opts.FS, opts.Pool = fsys, compaction.NewPool(workers)
		db, err := Open("db", opts)
		if err != nil {
			t.Fatal(err)
		}
		for gen := 0; gen < 4; gen++ {
			for i := 0; i < 150; i++ {
				if err := db.Put(blobKey(i), blobValue(i, gen)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if fsys.removed.Load() == 0 || fsys.violations.Load() != 0 {
			t.Fatalf("workers=%d: %d blob files removed, %d while the durable manifest still referenced them",
				workers, fsys.removed.Load(), fsys.violations.Load())
		}
	}
}
