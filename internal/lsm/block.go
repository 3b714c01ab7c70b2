package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// block is one data block as every read walks it: its entries in the plain
// layout (sstable.go) plus the start offset of every entry. The offsets are
// not part of the table format — decode derives them, validating every
// entry's framing on the way, when the block is read from the file; they
// live as long as the block does (in the cache, for one lookup when caching
// is off, or in a table iterator's buffer until it decodes the block after
// next) and their bytes are charged to the cache budget with the data's. A
// block is immutable once cached: readers share it without locking.
type block struct {
	data    []byte
	offsets []uint32
}

// size is the block's charge against the cache budget.
func (b *block) size() int64 { return int64(len(b.data) + 4*len(b.offsets)) }

// blockPool recycles the blocks reads decode into before copying them out at
// their exact size (a cache miss), and the two a table iterator alternates
// between. A block's data starts at the room decode reserves for a full
// block.
var blockPool = sync.Pool{New: func() any {
	return &block{data: make([]byte, 0, 4*targetBlock)}
}}

// decodeBlock decodes a verified data block payload into a block of its own,
// sized exactly: what the cache holds.
func decodeBlock(payload []byte, prefixed bool) (*block, error) {
	scratch := blockPool.Get().(*block)
	defer blockPool.Put(scratch)
	if err := scratch.decode(payload, prefixed); err != nil {
		return nil, err
	}
	return &block{data: slices.Clone(scratch.data), offsets: slices.Clone(scratch.offsets)}, nil
}

// decode rebuilds b, reusing its buffers, from a verified data block payload
// — the one decoder of all three formats. A v4 (prefixed) entry stores its
// key as the length of the prefix it shares with the key before it plus the
// rest, and is rewritten into the plain layout; a v2 or v3 entry is read as
// a v4 entry with no shared field, so it shares nothing and is copied as it
// stands. Damaged framing returns errTableCorrupt, before the block can be
// cached or walked: a shared length beyond the previous key (so any on a
// block's first entry), a key or value running past the payload, or an
// expansion larger than a writer produces. The writer cuts a block once its
// plain size reaches targetBlock, and a shared prefix is shorter than the key
// before it, so a block expands to less than its payload plus 2*targetBlock.
func (b *block) decode(payload []byte, prefixed bool) error {
	if uint64(len(payload)) > math.MaxUint32-2*targetBlock {
		return fmt.Errorf("%w: block of %d bytes", errTableCorrupt, len(payload))
	}
	limit := len(payload) + 2*targetBlock
	dst, offs := slices.Grow(b.data[:0], limit)[:limit], b.offsets[:0]
	w, prevOff, prevLen := 0, 0, 0 // bytes written; the previous key, within dst
	for pos := 0; pos < len(payload); {
		start := pos
		flags := payload[pos]
		pos++
		var shared, unshared uint64
		var n int
		switch {
		case prefixed && pos+1 < len(payload) && payload[pos]|payload[pos+1] < 0x80:
			// Keys shorter than 128 bytes, which is all of them in practice,
			// have one-byte shared and unshared lengths: decode those inline.
			shared, unshared, pos = uint64(payload[pos]), uint64(payload[pos+1]), pos+2
		case prefixed:
			if shared, n = readUvarint(payload, pos); n <= 0 {
				return fmt.Errorf("%w: entry key prefix", errTableCorrupt)
			}
			pos += n
			fallthrough
		default:
			if unshared, n = readUvarint(payload, pos); n <= 0 {
				return fmt.Errorf("%w: entry key framing", errTableCorrupt)
			}
			pos += n
		}
		if shared > uint64(prevLen) {
			return fmt.Errorf("%w: entry key prefix", errTableCorrupt)
		}
		if uint64(len(payload)-pos) < unshared {
			return fmt.Errorf("%w: entry key framing", errTableCorrupt)
		}
		// A v4 entry's key suffix, value length and value are laid out as
		// in the plain layout, and a plain entry is kept as it stands: one
		// copy moves each from tail on.
		tail := start + 1
		if prefixed {
			tail = pos
		}
		pos += int(unshared)
		vlen, n := uint64(0), 1
		if pos < len(payload) && payload[pos] < 0x80 {
			vlen = uint64(payload[pos])
		} else {
			vlen, n = readUvarint(payload, pos)
		}
		if n <= 0 || uint64(len(payload)-pos-n) < vlen {
			return fmt.Errorf("%w: entry value framing", errTableCorrupt)
		}
		pos += n + int(vlen)
		klen := int(shared) + int(unshared)
		if w+1+uvarintLen(klen)+int(shared)+pos-tail > limit {
			return fmt.Errorf("%w: block expands past %d bytes", errTableCorrupt, limit)
		}
		offs = append(offs, uint32(w))
		dst[w] = flags
		w++
		if prefixed {
			w += binary.PutUvarint(dst[w:], uint64(klen))
			copy(dst[w:], dst[prevOff:prevOff+int(shared)])
			prevOff, prevLen = w, klen
			w += int(shared)
		}
		w += copy(dst[w:], payload[tail:pos])
	}
	b.data, b.offsets = dst[:w], offs
	return nil
}

// readUvarint decodes the uvarint at b[pos:]; n <= 0 when it is malformed
// or runs past b.
func readUvarint(b []byte, pos int) (v uint64, n int) {
	if pos < len(b) && b[pos] < 0x80 {
		return uint64(b[pos]), 1
	}
	if pos >= len(b) {
		return 0, 0
	}
	return binary.Uvarint(b[pos:])
}

// sharedPrefixLen is the length of the longest common prefix of a and b,
// compared eight bytes at a time.
func sharedPrefixLen(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// keyAt returns entry i's key and the offset just past it, where the
// entry's value length starts: a view of the block. Lengths under 128 —
// every key, most values — are one byte and decoded inline.
func (b *block) keyAt(i int) (key []byte, end int) {
	pos := int(b.offsets[i]) + 1
	klen, n := uint64(b.data[pos]), 1
	if klen >= 0x80 {
		klen, n = readUvarint(b.data, pos)
	}
	pos += n
	return b.data[pos : pos+int(klen)], pos + int(klen)
}

// at returns entry i's flags, key and value: views of the block.
func (b *block) at(i int) (flags byte, key, value []byte) {
	key, pos := b.keyAt(i)
	vlen, n := uint64(b.data[pos]), 1
	if vlen >= 0x80 {
		vlen, n = readUvarint(b.data, pos)
	}
	pos += n
	return b.data[b.offsets[i]], key, b.data[pos : pos+int(vlen)]
}

// lowerBound binary-searches the block for the first entry whose key is >=
// key — len(b.offsets) when there is none — and reports whether that key is
// key itself.
func (b *block) lowerBound(key []byte) (i int, exact bool) {
	lo, hi := 0, len(b.offsets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, _ := b.keyAt(mid)
		switch c := bytes.Compare(k, key); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// search returns the entry for key — its value, a view of the block, and its
// flags — if the block holds one.
func (b *block) search(key []byte) (value []byte, found bool, flags byte) {
	if i, ok := b.lowerBound(key); ok {
		flags, _, value = b.at(i)
		return value, true, flags
	}
	return nil, false, 0
}
