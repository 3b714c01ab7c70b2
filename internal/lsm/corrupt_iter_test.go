package lsm

// Regression tests for the silent-scan-truncation bug: a data block whose
// entry framing is damaged used to end iteration quietly, so a scan over a
// corrupt table looked identical to a scan over a short table. These tests
// pin the fixed behaviour: corruption latches errTableCorrupt and every
// layer — tableIterator, mergeIterator, dbIterator.Error(), Get, compaction
// — surfaces it instead of returning a truncated result.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ethkv/internal/faultfs"
)

// multiBlockEntries builds enough entries to span several 4 KiB data blocks.
func multiBlockEntries(n int) []entry {
	ents := make([]entry, 0, n)
	for i := 0; i < n; i++ {
		ents = append(ents, entry{
			key:   []byte(fmt.Sprintf("key-%05d", i)),
			value: bytes.Repeat([]byte{byte(i)}, 64),
		})
	}
	return ents
}

// corruptSecondBlock stomps continuation-bit bytes over the key-length
// varint at the start of the table's second data block, breaking entry
// framing mid-table while leaving the footer, index, and first block intact.
// It returns the damaged image and the last key of the corrupted block (a
// key whose point lookup must now fail).
func corruptSecondBlock(t *testing.T, raw []byte) ([]byte, []byte) {
	t.Helper()
	r, err := newTableReader(append([]byte(nil), raw...), tableMeta{num: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.index) < 2 {
		t.Fatalf("need a multi-block table, got %d blocks", len(r.index))
	}
	blk := r.index[1]
	mut := append([]byte(nil), raw...)
	for i := uint64(1); i < 11 && i < blk.length; i++ {
		mut[blk.offset+i] = 0xFF // uvarint that never terminates
	}
	return mut, append([]byte(nil), blk.lastKey...)
}

func TestTableIteratorCorruptBlock(t *testing.T) {
	m := faultfs.NewMemFS()
	ents := multiBlockEntries(500)
	meta, err := writeTable(m, "d", 1, 0, ents)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.ReadFile(tablePath("d", 1))
	if err != nil {
		t.Fatal(err)
	}
	mut, badKey := corruptSecondBlock(t, raw)

	r, err := newTableReader(mut, meta)
	if err != nil {
		t.Fatalf("footer is intact, open must succeed: %v", err)
	}
	it := r.iterator(nil, true)
	n := 0
	for {
		if !it.next() {
			break
		}
		n++
	}
	if n == 0 || n >= len(ents) {
		t.Fatalf("walked %d of %d entries, want a proper prefix", n, len(ents))
	}
	if !errors.Is(it.err, errTableCorrupt) {
		t.Fatalf("iterator err = %v, want errTableCorrupt", it.err)
	}
	// The latched error is sticky: further calls stay failed.
	if it.next() {
		t.Fatal("iterator yielded entries after latching corruption")
	}

	// Point lookup landing in the corrupt block errors too.
	if _, _, _, _, err := r.probe(badKey); !errors.Is(err, errTableCorrupt) {
		t.Fatalf("get in corrupt block = %v, want errTableCorrupt", err)
	}
	// Lookups served by the intact first block still succeed.
	v, found, _, _, err := r.probe(ents[0].key)
	if err != nil || !found || !bytes.Equal(v, ents[0].value) {
		t.Fatalf("get in intact block = %q, %v, %v", v, found, err)
	}
}

func TestMergeIteratorSurfacesSourceError(t *testing.T) {
	m := faultfs.NewMemFS()
	meta, err := writeTable(m, "d", 1, 0, multiBlockEntries(500))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.ReadFile(tablePath("d", 1))
	if err != nil {
		t.Fatal(err)
	}
	mut, _ := corruptSecondBlock(t, raw)
	r, err := newTableReader(mut, meta)
	if err != nil {
		t.Fatal(err)
	}
	// A healthy memtable merged with the corrupt table: the merge must stop
	// with an error rather than continue serving the healthy source.
	mt := newMemtable(7)
	mt.put([]byte("zzz"), []byte("v"))
	merged := newMergeIterator([]source{
		newMemSource(mt, nil),
		newRunSource([]*tableReader{r}, nil, true),
	})
	for merged.next() {
	}
	if !errors.Is(merged.err(), errTableCorrupt) {
		t.Fatalf("merge err = %v, want errTableCorrupt", merged.err())
	}
	if merged.next() {
		t.Fatal("merge advanced after latching an error")
	}
}

func TestDBScanCorruptTableSurfacesError(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MemtableBytes: 8 << 10}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const total = 2000
	for i := 0; i < total; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i))
		if err := db.Put(key, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Bit-flip a mid-table block in every multi-block table on disk. The
	// footer stays valid, so reopening succeeds; only a scan that actually
	// walks the damaged block can notice.
	paths, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no tables on disk (err=%v)", err)
	}
	corrupted := 0
	var badKey []byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newTableReader(append([]byte(nil), raw...), tableMeta{num: 1})
		if err != nil || len(r.index) < 2 {
			continue
		}
		mut, bk := corruptSecondBlock(t, raw)
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		badKey = bk
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no multi-block table to corrupt; shrink MemtableBytes")
	}

	db, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	it := db.NewIterator(nil, nil)
	n := 0
	for it.Next() {
		n++
	}
	it.Release()
	if !errors.Is(it.Error(), errTableCorrupt) {
		t.Fatalf("scan over corrupt table: Error() = %v after %d/%d keys, want errTableCorrupt",
			it.Error(), n, total)
	}
	if n >= total {
		t.Fatalf("scan returned %d keys from a corrupt tree", n)
	}

	// Point lookup in the corrupted block reports the corruption as well.
	if _, err := db.Get(badKey); !errors.Is(err, errTableCorrupt) {
		t.Fatalf("Get(%q) = %v, want errTableCorrupt", badKey, err)
	}
}

func TestCompactionAbortsOnCorruptInput(t *testing.T) {
	m := faultfs.NewMemFS()
	meta, err := writeTable(m, "d", 1, 0, multiBlockEntries(500))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.ReadFile(tablePath("d", 1))
	if err != nil {
		t.Fatal(err)
	}
	mut, _ := corruptSecondBlock(t, raw)
	if err := faultfs.WriteFileSync(m, tablePath("d", 1), mut); err != nil {
		t.Fatal(err)
	}

	db := &DB{dir: "d", fs: m, opts: Options{FS: m}.withDefaults()}
	db.next.Store(2)
	_, _, err = db.runCompaction(compactionPlan{
		level:    0,
		dst:      1,
		srcMetas: []tableMeta{meta},
	}, nil)
	if !errors.Is(err, errTableCorrupt) {
		t.Fatalf("compaction over corrupt input = %v, want errTableCorrupt", err)
	}
}

func TestPrefixSuccessor(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{nil, nil},
		{[]byte{}, nil},
		{[]byte{0xFF}, nil},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte("a"), []byte("b")},
		{[]byte("abc"), []byte("abd")},
		{[]byte{0x01, 0xFF}, []byte{0x02}},
		{[]byte{0xFF, 0x00, 0xFF}, []byte{0xFF, 0x01}},
	}
	for _, c := range cases {
		if got := prefixSuccessor(c.in); !bytes.Equal(got, c.want) {
			t.Errorf("prefixSuccessor(%x) = %x, want %x", c.in, got, c.want)
		}
	}
	// The successor bounds exactly the prefixed keyspace.
	p := []byte("acct-")
	succ := prefixSuccessor(p)
	if bytes.Compare(append(append([]byte(nil), p...), 0xFF), succ) >= 0 {
		t.Error("successor does not bound prefixed keys")
	}
	if bytes.Compare(succ, p) <= 0 {
		t.Error("successor not greater than prefix")
	}
}

func TestIteratorPrunesNonOverlappingTables(t *testing.T) {
	dir := t.TempDir()
	// Tiny compaction output tables force L1+ to hold many small tables,
	// so a prefix scan has something to prune.
	opts := Options{
		MemtableBytes:        8 << 10,
		CompactionTableBytes: 4 << 10,
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		key := []byte(fmt.Sprintf("aaa-%05d", i))
		if err := db.Put(key, bytes.Repeat([]byte{1}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1500; i++ {
		key := []byte(fmt.Sprintf("zzz-%05d", i))
		if err := db.Put(key, bytes.Repeat([]byte{2}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen so every reader is cold: openTables then counts exactly the
	// tables a scan had to touch.
	db, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	totalTables := 0
	for _, s := range db.LevelSizes() {
		totalTables += s.Tables
	}
	if totalTables < 4 {
		t.Fatalf("want a multi-table tree, got %d tables", totalTables)
	}

	it := db.NewIterator([]byte("zzz-"), nil)
	n := 0
	for it.Next() {
		n++
	}
	it.Release()
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if n != 1500 {
		t.Fatalf("prefix scan returned %d keys, want 1500", n)
	}

	opened := db.openTables()
	if opened >= totalTables {
		t.Fatalf("prefix scan opened %d of %d tables; upper-bound pruning is not working",
			opened, totalTables)
	}
	t.Logf("prefix scan opened %d of %d tables", opened, totalTables)
}
