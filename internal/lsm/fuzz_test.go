package lsm

// Fuzz targets for the two on-disk decoders that crash recovery feeds with
// arbitrary surviving bytes: WAL replay and SSTable opening. The invariant
// is that no input — torn, bit-flipped, or adversarial — makes recovery
// panic; corruption must surface as a clean stop (WAL) or an error
// (SSTable).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
)

// walBytes builds a well-formed log in memory for the seed corpus.
func walBytes(f *testing.F, build func(w *wal)) []byte {
	f.Helper()
	m := faultfs.NewMemFS()
	w, err := openWAL(m, "w", retryPolicy{})
	if err != nil {
		f.Fatal(err)
	}
	build(w)
	if err := w.close(); err != nil {
		f.Fatal(err)
	}
	raw, err := m.ReadFile("w")
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(walBytes(f, func(w *wal) {
		w.append(encodeRecord(kv.Op{Key: []byte("key"), Value: []byte("value")}))
		w.append(encodeRecord(kv.Op{Key: []byte("gone"), Delete: true}))
	}))
	f.Add(walBytes(f, func(w *wal) {
		w.append(encodeGroup([]kv.Op{
			{Key: []byte("a"), Value: bytes.Repeat([]byte{1}, 300)},
			{Key: []byte("b"), Delete: true},
		}))
	}))
	// A record torn mid-payload and one with a flipped CRC byte.
	whole := walBytes(f, func(w *wal) {
		w.append(encodeRecord(kv.Op{Key: []byte("kk"), Value: bytes.Repeat([]byte{2}, 64)}))
	})
	f.Add(whole[:len(whole)/2])
	flipped := append([]byte(nil), whole...)
	flipped[0] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		var applied int
		err := replayWALStream(bytes.NewReader(data), func(op byte, key, value []byte) error {
			if op != walOpPut && op != walOpDelete {
				t.Fatalf("replay surfaced unknown op %d", op)
			}
			applied++
			return nil
		})
		// Replay never fails on corrupt input — it stops at the tear — and
		// never applies more ops than the input could possibly frame.
		if err != nil {
			t.Fatalf("replay error on arbitrary input: %v", err)
		}
		if applied > len(data) {
			t.Fatalf("replayed %d ops from %d bytes", applied, len(data))
		}
	})
}

func FuzzSSTableOpen(f *testing.F) {
	// Seed with a real table, its truncations, and targeted corruptions of
	// the footer region (offsets, lengths, bloom parameters).
	m := faultfs.NewMemFS()
	meta, err := writeTable(m, "d", 1, 0, []entry{
		{key: []byte("alpha"), value: bytes.Repeat([]byte{3}, 100)},
		{key: []byte("beta"), tombstone: true},
		{key: []byte("gamma"), value: []byte("v")},
	})
	if err != nil {
		f.Fatal(err)
	}
	raw, err := m.ReadFile(tablePath("d", meta.num))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-footerSize/2])
	f.Add(raw[:footerSize])
	for _, off := range []int{0, footerSize - 9, footerSize - 20, footerSize - 40} {
		mut := append([]byte(nil), raw...)
		mut[len(mut)-1-off] ^= 0x55
		f.Add(mut)
	}
	for _, mut := range prefixDamage(f, raw) {
		f.Add(mut)
	}
	// The formats v4 replaced, which stay readable.
	for _, file := range []string{"tombstones.v2.sst", "blob-handles.v3.sst"} {
		img, err := os.ReadFile(filepath.Join("testdata", "golden", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := newTableReader(append([]byte(nil), data...), tableMeta{num: 1})
		if err != nil {
			return // rejecting corrupt input is the correct outcome
		}
		// An accepted table must be fully traversable without panicking and
		// with bounded output. Entry ORDER is not asserted: an input whose
		// sections carry valid checksums over garbage framing is still one
		// the reader must walk safely. FuzzBlockRead pins down that damage
		// under the checksums is always detected, never misread.
		it := r.iterator(nil, true)
		for n := 0; ; n++ {
			if !it.next() {
				break
			}
			if n > len(data) {
				t.Fatalf("iterator yielded %d entries from %d bytes", n, len(data))
			}
		}
		// Point lookups on arbitrary keys must also be panic-free.
		r.probe([]byte("alpha"))
		r.probe([]byte{})
	})
}

// FuzzSSTableScan targets the scan path specifically: tables whose footer
// and index validate but whose block payloads are damaged. The invariant is
// the silent-truncation fix — an iterator that stops before yielding the
// footer's entry count must carry a non-nil error. (Garbage blocks can also
// frame MORE entries than the footer claims; that direction walks cleanly
// and is bounded by the input-size check, so only under-counts are
// asserted.)
func FuzzSSTableScan(f *testing.F) {
	m := faultfs.NewMemFS()
	var ents []entry
	for i := 0; i < 400; i++ {
		ents = append(ents, entry{
			key:   []byte(fmt.Sprintf("scan-%04d", i)),
			value: bytes.Repeat([]byte{byte(i)}, 48),
		})
	}
	meta, err := writeTable(m, "d", 1, 0, ents)
	if err != nil {
		f.Fatal(err)
	}
	raw, err := m.ReadFile(tablePath("d", meta.num))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	clean, err := newTableReader(raw, meta)
	if err != nil {
		f.Fatal(err)
	}
	// resealed re-computes the checksum of every block, so damage to block
	// payloads reaches the scan's framing checks instead of stopping at the
	// checksum.
	resealed := func(img []byte) []byte {
		img = append([]byte(nil), img...)
		for _, e := range clean.index {
			resealSection(img, e.offset, e.length)
		}
		return img
	}
	// Mid-block damage at several depths: entry flags, length varints, and
	// the boundary between two blocks; each as written and under resealed
	// block checksums.
	for _, off := range []int{1, 100, targetBlock / 2, targetBlock, targetBlock + 5, 2 * targetBlock} {
		if off >= len(raw)-footerSize {
			continue
		}
		mut := append([]byte(nil), raw...)
		mut[off] = 0xFF
		f.Add(mut)
		f.Add(resealed(mut))
		run := append([]byte(nil), raw...)
		for i := 0; i < 10 && off+i < len(run)-footerSize; i++ {
			run[off+i] = 0xFF
		}
		f.Add(run)
		f.Add(resealed(run))
	}
	for _, mut := range prefixDamage(f, raw) {
		f.Add(mut)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := newTableReader(append([]byte(nil), data...), tableMeta{num: 1})
		if err != nil {
			return // rejected at open; nothing to scan
		}
		it := r.iterator(nil, true)
		n := uint64(0)
		for {
			if !it.next() {
				break
			}
			n++
			if n > uint64(len(data)) {
				t.Fatalf("iterator yielded %d entries from %d bytes", n, len(data))
			}
		}
		entryCount := binary.LittleEndian.Uint64(data[len(data)-footerSize+36:])
		if n < entryCount && it.err == nil {
			t.Fatalf("scan yielded %d of %d entries with nil error: silent truncation", n, entryCount)
		}
		// A latched error must be sticky and the iterator must stay dead.
		if it.err != nil {
			if it.next() {
				t.Fatal("iterator revived after latching an error")
			}
		}
		// Seek from an arbitrary position must be equally panic-free.
		sit := r.iterator([]byte("scan-0200"), true)
		for {
			if !sit.next() {
				break
			}
		}
	})
}

// FuzzBlockRead pins down the per-block checksum guarantee: flip any
// byte inside the data region of a checksummed table and every access path
// — point read, cache-aware scan, compaction bypass scan — must either
// return correct data (blocks the flip missed) or errTableCorrupt. Wrong
// data must never escape.
func FuzzBlockRead(f *testing.F) {
	m := faultfs.NewMemFS()
	var ents []entry
	want := map[string]string{}
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("blk-%04d", i)
		v := fmt.Sprintf("val-%04d-%s", i, bytes.Repeat([]byte{'x'}, 40))
		ents = append(ents, entry{key: []byte(k), value: []byte(v)})
		want[k] = v
	}
	meta, err := writeTable(m, "d", 1, 0, ents)
	if err != nil {
		f.Fatal(err)
	}
	raw, err := m.ReadFile(tablePath("d", meta.num))
	if err != nil {
		f.Fatal(err)
	}
	// Data region = [0, indexOff): everything before the index is block
	// extents (payload + CRC trailer), laid out back to back.
	dataLimit := binary.LittleEndian.Uint64(raw[len(raw)-footerSize:])
	if dataLimit == 0 || dataLimit > uint64(len(raw)) {
		f.Fatalf("implausible index offset %d", dataLimit)
	}
	f.Add(uint32(0), byte(0x01))
	f.Add(uint32(targetBlock/2), byte(0xFF))
	f.Add(uint32(dataLimit-1), byte(0x80))
	// The prefix fields: a first entry with shared != 0, a shared length
	// beyond the previous key's, an unshared length past the payload.
	shared, unshared, _ := prefixFields(f, raw)
	f.Add(uint32(shared[0]), byte(0x01))
	f.Add(uint32(shared[1]), byte(0x78))
	f.Add(uint32(unshared[len(unshared)-1]), byte(0x7e))

	f.Fuzz(func(t *testing.T, pos uint32, xor byte) {
		if xor == 0 {
			xor = 0xA5 // a zero xor is the identity; force a real flip
		}
		mut := append([]byte(nil), raw...)
		mut[uint64(pos)%dataLimit] ^= xor
		r, err := newTableReader(mut, tableMeta{num: 1})
		if err != nil {
			t.Fatalf("open rejected a table with only data-block damage: %v", err)
		}
		// Point reads: correct value or errTableCorrupt, nothing else.
		for _, e := range ents {
			v, found, deleted, _, err := r.probe(e.key)
			if err != nil {
				if !errors.Is(err, errTableCorrupt) {
					t.Fatalf("get(%q): unexpected error %v", e.key, err)
				}
				continue
			}
			if !found || deleted || string(v) != want[string(e.key)] {
				t.Fatalf("get(%q) returned wrong data from a damaged table: %q found=%v deleted=%v",
					e.key, v, found, deleted)
			}
		}
		// Both scan flavours: every yielded entry must be correct, and a
		// short walk must carry errTableCorrupt.
		for _, checkCache := range []bool{true, false} {
			it := r.iterator(nil, checkCache)
			n := 0
			for it.next() {
				if got, ok := want[string(it.cur.key)]; !ok || string(it.cur.value) != got {
					t.Fatalf("scan yielded wrong entry %q=%q (checkCache=%v)",
						it.cur.key, it.cur.value, checkCache)
				}
				n++
			}
			if n < len(ents) && !errors.Is(it.err, errTableCorrupt) {
				t.Fatalf("scan stopped at %d/%d with err=%v (checkCache=%v)",
					n, len(ents), it.err, checkCache)
			}
			if n == len(ents) && it.err != nil {
				t.Fatalf("full scan with err=%v (checkCache=%v)", it.err, checkCache)
			}
		}
	})
}

// FuzzBlobHandles pins value separation's read guarantee: flip one byte of
// a v3 table's handles or blob-ref list — with the section checksum resealed
// over the damage, or not — or of its blob file, and every access path
// returns the right value or errTableCorrupt. A damaged handle or blob-ref
// list never resolves to wrong data; with its checksum intact it is always
// errTableCorrupt.
func FuzzBlobHandles(f *testing.F) {
	blob := blobWriter{newNum: func() uint64 { return 5 }}
	m := faultfs.NewMemFS()
	w := newTableWriter(m, "d", retryPolicy{}, 0, 0)
	want := map[string]string{}
	var handles [][]byte
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("h-%03d", i)
		v := fmt.Sprintf("small-%03d", i)
		if i%3 == 0 {
			v = fmt.Sprintf("%03d%s", i, bytes.Repeat([]byte{byte('a' + i%26)}, blobValueThreshold+i*7))
			h := blob.add(nil, []byte(v))
			handles = append(handles, h)
			w.addEntry(entry{key: []byte(k), value: h, handle: true})
		} else {
			w.add([]byte(k), []byte(v), false)
		}
		want[k] = v
	}
	blobBytes, err := blob.finish(m, "d", retryPolicy{})
	if err != nil {
		f.Fatal(err)
	}
	w.blobBytes = func(uint64) uint64 { return uint64(blobBytes) }
	meta, err := w.finish(9)
	w.release()
	if err != nil {
		f.Fatal(err)
	}
	table, _ := m.ReadFile(tablePath("d", 9))
	blobImg, _ := m.ReadFile(blobPath("d", 5))
	clean, err := newTableReader(table, meta)
	if err != nil {
		f.Fatal(err)
	}
	// The damage targets: every handle byte, the blob-ref section, the blob.
	var targets []int
	for _, h := range handles {
		at := bytes.Index(table, h)
		for i := range h {
			targets = append(targets, at+i)
		}
	}
	bloomEnd := int(binary.LittleEndian.Uint64(table[len(table)-footerSize+16:]) +
		binary.LittleEndian.Uint64(table[len(table)-footerSize+24:]))
	for i := bloomEnd; i < len(table)-footerSize; i++ {
		targets = append(targets, i)
	}
	f.Add(uint32(0), byte(1), false)
	f.Add(uint32(len(handles)), byte(0x80), true)
	f.Add(uint32(len(targets)-1), byte(0x01), true)
	f.Add(uint32(len(targets)+100), byte(0x10), false)

	f.Fuzz(func(t *testing.T, pos uint32, xor byte, reseal bool) {
		if xor == 0 {
			xor = 0xA5
		}
		tbl, bl := append([]byte(nil), table...), append([]byte(nil), blobImg...)
		p := int(pos) % (len(targets) + len(bl))
		if p < len(targets) {
			at := targets[p]
			tbl[at] ^= xor
			if reseal {
				if at >= bloomEnd {
					resealSection(tbl, uint64(bloomEnd), uint64(len(tbl)-footerSize-bloomEnd))
				}
				for _, e := range clean.index {
					if uint64(at) >= e.offset && uint64(at) < e.offset+e.length {
						resealSection(tbl, e.offset, e.length)
					}
				}
			}
		} else {
			bl[p-len(targets)] ^= xor
		}
		fs := faultfs.NewMemFS()
		faultfs.WriteFileSync(fs, tablePath("d", 9), tbl)
		faultfs.WriteFileSync(fs, blobPath("d", 5), bl)
		r, err := openTable(fs, "d", meta, nil, retryPolicy{})
		if err != nil {
			if p < len(targets) && !reseal && !errors.Is(err, errTableCorrupt) {
				t.Fatalf("open of a table with a torn checksum: %v", err)
			}
			return // a resealed blob-ref list may name a missing file
		}
		defer r.unref()
		check := func(key, value []byte, handle bool, err error) {
			if err == nil && handle {
				value, err = r.readBlob(nil, value)
			}
			if err != nil {
				if !errors.Is(err, errTableCorrupt) {
					t.Fatalf("%s: unexpected error %v", key, err)
				}
				return
			}
			if string(value) != want[string(key)] {
				t.Fatalf("%s: wrong data (%d bytes) from a damaged table or blob", key, len(value))
			}
		}
		for k := range want {
			v, flags, found, err := r.get([]byte(k), bloomHash([]byte(k)), &readCounts{})
			if err == nil && !found {
				t.Fatalf("%s: lost", k)
			}
			check([]byte(k), v, flags&flagBlob != 0, err)
		}
		for _, checkCache := range []bool{true, false} {
			it := r.iterator(nil, checkCache)
			for it.next() {
				check(it.cur.key, it.cur.value, it.cur.handle, nil)
			}
			if it.err != nil && !errors.Is(it.err, errTableCorrupt) {
				t.Fatalf("walk: %v", it.err)
			}
			it.close()
		}
	})
}
