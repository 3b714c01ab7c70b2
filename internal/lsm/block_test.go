package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"ethkv/internal/faultfs"
)

// encodeBlock frames ents as one data block payload, the way the table
// writer does.
func encodeBlock(ents []entry) []byte {
	var b []byte
	for _, e := range ents {
		flags := byte(0)
		if e.tombstone {
			flags = 1
		}
		b = append(b, flags)
		b = binary.AppendUvarint(b, uint64(len(e.key)))
		b = append(b, e.key...)
		b = binary.AppendUvarint(b, uint64(len(e.value)))
		b = append(b, e.value...)
	}
	return b
}

// linearSearch is the point-read probe as it was before blocks were indexed:
// walk the block, stop at the first key >= key.
func linearSearch(payload, key []byte) (value []byte, found, tombstone bool, err error) {
	err = walkBlock(payload, func(ent entry) bool {
		c := bytes.Compare(ent.key, key)
		if c == 0 {
			value, found, tombstone = ent.value, true, ent.tombstone
		}
		return c < 0
	})
	return value, found, tombstone, err
}

// modelEntries draws a sorted, duplicate-free entry set shaped to stress the
// block search: long shared prefixes, keys that are prefixes of their
// successors, the empty key, empty values, tombstones, and (when big is set)
// one value larger than a whole block.
func modelEntries(rng *rand.Rand, n int, big bool) []entry {
	prefixes := []string{"", "a", "acct-", "acct-\x00", "acct-storage-0000000000000000", "\xff\xff"}
	seen := map[string]bool{}
	var ents []entry
	for len(ents) < n {
		k := prefixes[rng.Intn(len(prefixes))]
		for i := rng.Intn(6); i > 0; i-- {
			k += string(rune("\x00\x01az\xfe\xff"[rng.Intn(6)]))
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		e := entry{key: []byte(k)}
		switch rng.Intn(4) {
		case 0:
			e.tombstone = true
		case 1: // empty value
		default:
			e.value = make([]byte, 1+rng.Intn(200))
			rng.Read(e.value)
		}
		ents = append(ents, e)
	}
	if big {
		e := &ents[rng.Intn(len(ents))]
		e.tombstone, e.value = false, make([]byte, targetBlock+1+rng.Intn(targetBlock))
		rng.Read(e.value)
	}
	sort.Slice(ents, func(i, j int) bool { return bytes.Compare(ents[i].key, ents[j].key) < 0 })
	return ents
}

// probeKeys returns every key of ents plus keys in the gaps around each:
// its immediate successor, its longest proper prefix, and its last byte
// nudged either way — so below-first, above-last and between-neighbours are
// all covered.
func probeKeys(ents []entry) [][]byte {
	probes := [][]byte{{}, {0xff, 0xff, 0xff, 0xff}}
	for _, e := range ents {
		k := e.key
		probes = append(probes, k, append(append([]byte(nil), k...), 0))
		if len(k) > 0 {
			up, down := append([]byte(nil), k...), append([]byte(nil), k...)
			up[len(k)-1]++
			down[len(k)-1]--
			probes = append(probes, k[:len(k)-1], up, down)
		}
	}
	return probes
}

// checkBlockAgainstLinear requires blk to answer every probe exactly as the
// linear walk of its payload does.
func checkBlockAgainstLinear(t *testing.T, blk *block, probes [][]byte) {
	t.Helper()
	n := 0
	if err := walkBlock(blk.data, func(entry) bool { n++; return true }); err != nil {
		t.Fatalf("reference walk failed on an accepted block: %v", err)
	}
	if len(blk.offsets) != n {
		t.Fatalf("block indexed %d entries, linear walk sees %d", len(blk.offsets), n)
	}
	for _, key := range probes {
		wantV, wantFound, wantTomb, _ := linearSearch(blk.data, key)
		v, found, flags := blk.search(key)
		tomb := flags&flagTombstone != 0
		if found != wantFound || tomb != wantTomb || !bytes.Equal(v, wantV) {
			t.Fatalf("search(%q) = (%d bytes, found=%v, tombstone=%v), linear walk says (%d bytes, %v, %v)",
				key, len(v), found, tomb, len(wantV), wantFound, wantTomb)
		}
	}
}

// TestBlockSearchModel checks the indexed block search against the linear
// walk it replaced, on seeded random blocks: directly on encoded payloads
// (empty, one entry, many), and on every block of real v1 and v2 tables,
// where the table-level point read must agree as well.
func TestBlockSearchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 60; round++ {
		n := []int{0, 1, 2, 1 + rng.Intn(40)}[round%4]
		ents := modelEntries(rng, n, false)
		blk, err := decodeBlock(encodeBlock(ents), false)
		if err != nil {
			t.Fatalf("round %d: decodeBlock: %v", round, err)
		}
		if len(blk.offsets) != len(ents) {
			t.Fatalf("round %d: %d offsets for %d entries", round, len(blk.offsets), len(ents))
		}
		checkBlockAgainstLinear(t, blk, probeKeys(ents))
	}

	for round := 0; round < 16; round++ {
		ents := modelEntries(rng, 50+rng.Intn(400), round%2 == 0)
		probes := probeKeys(ents)
		m := faultfs.NewMemFS()
		meta, err := writeTable(m, "d", 1, 0, ents)
		if err != nil {
			t.Fatal(err)
		}
		// With a cache (the second pass searches cached blocks) and
		// without: one lookup routine either way.
		for _, cache := range []*blockCache{newBlockCache(1 << 20), nil} {
			r, err := openTable(m, "d", meta, cache, retryPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			oversized := false
			for i := range r.index {
				blk, _, err := r.block(i)
				if err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
				oversized = oversized || len(blk.data) > targetBlock
				checkBlockAgainstLinear(t, blk, probes)
			}
			if round%2 == 0 && !oversized {
				t.Fatalf("round %d: no block larger than targetBlock", round)
			}
			want := map[string]entry{}
			for _, e := range ents {
				want[string(e.key)] = e
			}
			for pass := 0; pass < 2; pass++ {
				for _, key := range probes {
					v, found, deleted, _, err := r.probe(key)
					e, ok := want[string(key)]
					if err != nil || found != ok || deleted != e.tombstone || !bytes.Equal(v, e.value) {
						t.Fatalf("probe(%q) = (%d bytes, found=%v, deleted=%v, err=%v), want (%d bytes, %v, %v)",
							key, len(v), found, deleted, err, len(e.value), ok, e.tombstone)
					}
				}
			}
			r.unref()
		}
	}
}

// TestParseBlockValidatesFraming damages plain-layout (v2, v3) block payloads
// — every truncation point, then seeded byte flips — and requires the
// decoder to reject exactly the payloads a full linear walk rejects, with
// errTableCorrupt, and to keep the rest byte for byte, indexed the way the
// walk frames them: the check that used to happen entry by entry during a
// probe happens once, when the block is filled.
func TestParseBlockValidatesFraming(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	check := func(what string, payload []byte) {
		t.Helper()
		// Entry i+1 starts where entry i's value ends; with the capacity
		// clipped, a sub-slice's capacity tells its offset.
		payload = payload[:len(payload):len(payload)]
		var starts []int
		next := 0
		walkErr := walkBlock(payload, func(e entry) bool {
			starts = append(starts, next)
			next = len(payload) - cap(e.value) + len(e.value)
			return true
		})
		blk, err := decodeBlock(payload, false)
		if (err != nil) != (walkErr != nil) {
			t.Fatalf("%s: decodeBlock err=%v, linear walk err=%v", what, err, walkErr)
		}
		if err != nil {
			if !errors.Is(err, errTableCorrupt) {
				t.Fatalf("%s: decodeBlock failed with %v, want errTableCorrupt", what, err)
			}
			return
		}
		if !bytes.Equal(blk.data, payload) {
			t.Fatalf("%s: decoded %d bytes differ from the %d-byte payload", what, len(blk.data), len(payload))
		}
		if len(blk.offsets) != len(starts) {
			t.Fatalf("%s: %d offsets, linear walk frames %d entries", what, len(blk.offsets), len(starts))
		}
		for i, off := range blk.offsets {
			if int(off) != starts[i] {
				t.Fatalf("%s: entry %d indexed at %d, framed at %d", what, i, off, starts[i])
			}
		}
	}
	for round := 0; round < 10; round++ {
		payload := encodeBlock(modelEntries(rng, 1+rng.Intn(12), false))
		for cut := 0; cut <= len(payload); cut++ {
			check(fmt.Sprintf("round %d truncated at %d", round, cut), payload[:cut:cut])
		}
		for flip := 0; flip < 200; flip++ {
			mut := append([]byte(nil), payload...)
			pos := rng.Intn(len(mut))
			mut[pos] ^= byte(1 << rng.Intn(8))
			check(fmt.Sprintf("round %d bit flip at %d", round, pos), mut)
		}
	}
}

// TestDamagedFrameReportedAtFill: a table whose second block has a broken
// frame behind the key being read, under a checksum recomputed over the
// damage so the read gets past it. The linear probe stopped at the key and
// served it; the indexed read validates the whole block when it fills it, so
// the damage is reported, nothing of the block is cached, and the undamaged
// blocks stay readable.
func TestDamagedFrameReportedAtFill(t *testing.T) {
	var ents []entry
	for i := 0; i < 200; i++ {
		ents = append(ents, entry{key: []byte(fmt.Sprintf("key-%04d", i)), value: bytes.Repeat([]byte{byte(i)}, 50)})
	}
	m := faultfs.NewMemFS()
	meta, err := writeTable(m, "d", 1, 0, ents)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.ReadFile(tablePath("d", 1))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := newTableReader(raw, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.index) < 3 {
		t.Fatalf("table has %d blocks, want several", len(clean.index))
	}
	// The last entry of block 1 is flags | shared | unshared | key suffix |
	// vlen | value(50): its value length byte sits 51 bytes before the
	// payload's end, which the checksum trailer follows. Inflate it and
	// re-seal the block.
	mut := append([]byte(nil), raw...)
	ext := clean.index[1]
	mut[ext.offset+ext.length-blockCRCSize-51] = 0x7f
	resealSection(mut, ext.offset, ext.length)
	if err := faultfs.WriteFileSync(m, tablePath("d", 1), mut); err != nil {
		t.Fatal(err)
	}
	cache := newBlockCache(1 << 20)
	r, err := openTable(m, "d", meta, cache, retryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.unref()
	inBlock0 := sort.Search(len(ents), func(i int) bool { return bytes.Compare(ents[i].key, clean.index[0].lastKey) > 0 })
	if _, _, _, _, err := r.probe(ents[inBlock0].key); !errors.Is(err, errTableCorrupt) {
		t.Fatalf("probe of a key in front of the damaged frame: err=%v, want errTableCorrupt", err)
	}
	if used := cache.usedBytes(); used != 0 {
		t.Fatalf("%d bytes of a damaged block were cached", used)
	}
	last := ents[len(ents)-1]
	if v, found, _, _, err := r.probe(last.key); err != nil || !found || !bytes.Equal(v, last.value) {
		t.Fatalf("probe in an undamaged block: found=%v err=%v", found, err)
	}
	// A scan checks each block whole as it expands it: it stops at the
	// damaged block with the error latched, after the intact block in front
	// of it.
	it := r.iterator(nil, true)
	n := 0
	for it.next() {
		n++
	}
	if !errors.Is(it.err, errTableCorrupt) || n != inBlock0 {
		t.Fatalf("scan over the damaged frame: %d entries, err=%v; want the %d of block 0 and errTableCorrupt", n, it.err, inBlock0)
	}
}

// encodePrefixedBlock frames ents as one v4 data block payload, the way the
// table writer does.
func encodePrefixedBlock(ents []entry) []byte {
	var b, prev []byte
	for i, e := range ents {
		flags := byte(0)
		if e.tombstone {
			flags = 1
		}
		shared := 0
		if i > 0 {
			shared = sharedPrefixLen(prev, e.key)
		}
		b = append(b, flags)
		b = binary.AppendUvarint(b, uint64(shared))
		b = binary.AppendUvarint(b, uint64(len(e.key)-shared))
		b = append(b, e.key[shared:]...)
		b = binary.AppendUvarint(b, uint64(len(e.value)))
		b = append(b, e.value...)
		prev = e.key
	}
	return b
}

// TestExpandBlockModel checks v4 decoding against the plain layout: a
// prefix-encoded block decodes to exactly the plain encoding of its entries,
// with each entry's offset in that encoding; and damaged payloads — every
// truncation point, then seeded byte flips — either fail with
// errTableCorrupt or decode to a block whose plain framing the linear walk
// accepts, entry for entry.
func TestExpandBlockModel(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for round := 0; round < 60; round++ {
		ents := modelEntries(rng, []int{0, 1, 2, 1 + rng.Intn(40)}[round%4], round%8 == 3)
		payload := encodePrefixedBlock(ents)
		plain := encodeBlock(ents)
		var offs []uint32
		for i := range ents {
			offs = append(offs, uint32(len(encodeBlock(ents[:i]))))
		}
		blk, err := decodeBlock(payload, true)
		if err != nil || !bytes.Equal(blk.data, plain) || !slices.Equal(blk.offsets, offs) {
			t.Fatalf("round %d: decoded to %d bytes, %d offsets; plain layout has %d, %d (err %v)",
				round, len(blk.data), len(blk.offsets), len(plain), len(offs), err)
		}
		checkBlockAgainstLinear(t, blk, probeKeys(ents))
		if len(payload) == 0 {
			continue
		}
		check := func(what string, mut []byte) {
			t.Helper()
			blk, err := decodeBlock(mut, true)
			if err != nil {
				if !errors.Is(err, errTableCorrupt) {
					t.Fatalf("round %d, %s: %v, want errTableCorrupt", round, what, err)
				}
				return
			}
			n := 0
			if err := walkBlock(blk.data, func(entry) bool { n++; return true }); err != nil || n != len(blk.offsets) {
				t.Fatalf("round %d, %s: decoding accepted, its plain framing is not (%d entries of %d): %v",
					round, what, n, len(blk.offsets), err)
			}
		}
		for cut := 0; cut < len(payload); cut++ {
			check(fmt.Sprintf("truncated at %d", cut), payload[:cut:cut])
		}
		for flip := 0; flip < 100; flip++ {
			mut := append([]byte(nil), payload...)
			pos := rng.Intn(len(mut))
			mut[pos] ^= byte(1 << rng.Intn(8))
			check(fmt.Sprintf("bit flip at %d", pos), mut)
		}
	}
}

// prefixFields returns the image offsets of the shared and unshared length
// fields of every entry in the first block of the v4 table image img, whose
// entries must all have one-byte length fields, and the block's extent.
func prefixFields(tb testing.TB, img []byte) (shared, unshared []int, ext indexEntry) {
	tb.Helper()
	r, err := newTableReader(img, tableMeta{num: 1})
	if err != nil || !r.prefixed {
		tb.Fatalf("not a v4 table: %v", err)
	}
	ext = r.index[0]
	payload := img[ext.offset : ext.offset+ext.length-blockCRCSize]
	for pos := 0; pos < len(payload); {
		at := int(ext.offset) + pos
		shared, unshared = append(shared, at+1), append(unshared, at+2)
		pos += 3 + int(payload[pos+2])
		pos += 1 + int(payload[pos])
	}
	if len(shared) < 2 {
		tb.Fatalf("first block holds %d entries, want several", len(shared))
	}
	return shared, unshared, ext
}

// prefixDamage returns copies of the v4 table image img, each with one kind
// of prefix-framing damage in its first block under a resealed checksum: a
// first entry with shared != 0, a shared length beyond the previous key's,
// and an unshared length that runs past the payload. The block's keys must
// be shorter than 0x7f bytes, as must its last entry.
func prefixDamage(tb testing.TB, img []byte) map[string][]byte {
	tb.Helper()
	shared, unshared, ext := prefixFields(tb, img)
	last := unshared[len(unshared)-1]
	if end := int(ext.offset + ext.length - blockCRCSize); end-last > 0x7f {
		tb.Fatalf("last entry has %d bytes behind its unshared length", end-last)
	}
	damaged := map[string][]byte{}
	for what, at := range map[string]int{"first shared": shared[0], "shared past previous key": shared[1], "unshared past payload": last} {
		mut := append([]byte(nil), img...)
		mut[at] = 0x7f
		if what == "first shared" {
			mut[at] = 1
		}
		resealSection(mut, ext.offset, ext.length)
		damaged[what] = mut
	}
	return damaged
}

// TestPrefixFramingCorrupt: prefix-framing damage under a valid checksum —
// what FuzzSSTableOpen and FuzzSSTableScan are seeded with — opens (the
// index and footer are intact) but fails every read of the block with
// errTableCorrupt: a point read, caching nothing, and both scans, yielding
// nothing. The other blocks stay readable.
func TestPrefixFramingCorrupt(t *testing.T) {
	var ents []entry
	for i := 0; i < 200; i++ {
		ents = append(ents, entry{key: []byte(fmt.Sprintf("key-%04d", i)), value: bytes.Repeat([]byte{byte(i)}, 50)})
	}
	m := faultfs.NewMemFS()
	meta, err := writeTable(m, "d", 1, 0, ents)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.ReadFile(tablePath("d", 1))
	if err != nil {
		t.Fatal(err)
	}
	reason := map[string]string{
		"first shared":             "entry key prefix",
		"shared past previous key": "entry key prefix",
		"unshared past payload":    "entry key framing",
	}
	for what, img := range prefixDamage(t, raw) {
		cache := newBlockCache(1 << 20)
		if err := faultfs.WriteFileSync(m, tablePath("d", 1), img); err != nil {
			t.Fatal(err)
		}
		r, err := openTable(m, "d", meta, cache, retryPolicy{})
		if err != nil {
			t.Fatalf("%s: open: %v", what, err)
		}
		if _, _, _, _, err := r.probe(ents[0].key); !errors.Is(err, errTableCorrupt) || !strings.Contains(err.Error(), reason[what]) {
			t.Fatalf("%s: probe: err=%v, want errTableCorrupt (%s)", what, err, reason[what])
		}
		if used := cache.usedBytes(); used != 0 {
			t.Fatalf("%s: %d bytes of a damaged block were cached", what, used)
		}
		last := ents[len(ents)-1]
		if v, found, _, _, err := r.probe(last.key); err != nil || !found || !bytes.Equal(v, last.value) {
			t.Fatalf("%s: probe in an undamaged block: found=%v err=%v", what, found, err)
		}
		for _, checkCache := range []bool{true, false} {
			it := r.iterator(nil, checkCache)
			n := 0
			for it.next() {
				n++
			}
			if n != 0 || !errors.Is(it.err, errTableCorrupt) {
				t.Fatalf("%s: scan (checkCache=%v) yielded %d entries, err=%v; want none and errTableCorrupt", what, checkCache, n, it.err)
			}
			it.close()
		}
		r.unref()
	}
}
