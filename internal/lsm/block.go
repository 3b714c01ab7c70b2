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

// block is one data block prepared for point lookups: its entries in the
// plain layout (sstable.go) plus the start offset of every entry. The
// offsets are not part of the table format — parseBlock derives them,
// validating every entry's framing on the way, when the block is read from
// the file; they live as long as the block does (in the cache, or for one
// lookup when caching is off) and their bytes are charged to the cache
// budget with the data's. A v2 or v3 block's data is its verified payload; a
// v4 block's is the payload expanded (parsePrefixedBlock), so a lookup never
// sees the prefix encoding. A block is immutable once built: readers share
// it without locking.
type block struct {
	data    []byte
	offsets []uint32
}

// size is the block's charge against the cache budget.
func (b *block) size() int64 { return int64(len(b.data) + 4*len(b.offsets)) }

// parseBlock indexes payload. Damaged framing returns errTableCorrupt here,
// before the block can be cached or searched: lookups then decode entries
// they know to be in bounds.
func parseBlock(payload []byte) (*block, error) {
	if uint64(len(payload)) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: block of %d bytes", errTableCorrupt, len(payload))
	}
	var scratch [64]uint32 // a 4 KiB block of trace-sized pairs holds ~20 entries
	offsets := scratch[:0]
	for pos := 0; pos < len(payload); {
		offsets = append(offsets, uint32(pos))
		rest := payload[pos+1:] // past the flags byte
		klen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < klen {
			return nil, fmt.Errorf("%w: entry key framing", errTableCorrupt)
		}
		rest = rest[n+int(klen):]
		vlen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < vlen {
			return nil, fmt.Errorf("%w: entry value framing", errTableCorrupt)
		}
		pos = len(payload) - len(rest) + n + int(vlen)
	}
	return &block{data: payload, offsets: append([]uint32(nil), offsets...)}, nil
}

// expandBufferPool recycles the buffers v4 blocks are read and expanded
// into: a cache miss's read and the scratch it expands through before
// copying the block out at its exact size, and the two a table iterator
// alternates between. A buffer starts at the room expandBlock reserves for
// a full block.
var expandBufferPool = sync.Pool{New: func() any {
	buf := make([]byte, 0, 4*targetBlock)
	return &buf
}}

// parsePrefixedBlock expands a v4 payload and indexes the result, in one
// pass; the block holds exactly the expanded bytes.
func parsePrefixedBlock(payload []byte) (*block, error) {
	buf := expandBufferPool.Get().(*[]byte)
	defer expandBufferPool.Put(buf)
	var scratch [64]uint32 // a 4 KiB block of trace-sized pairs holds ~20 entries
	data, offsets, err := expandBlock((*buf)[:0], scratch[:0], payload)
	*buf = data[:0] // keep any growth for the next block
	if err != nil {
		return nil, err
	}
	return &block{data: append([]byte(nil), data...), offsets: append([]uint32(nil), offsets...)}, nil
}

// expandBlock rewrites a v4 payload — each entry's key stored as the length
// of the prefix it shares with the key before it plus the rest — into the
// plain layout, appended to dst (which must be empty), and appends every
// entry's offset in it to offs. Damaged framing returns errTableCorrupt: a
// shared length beyond the previous key (so any on a block's first entry), a
// key or value running past the payload, or an expansion larger than a
// writer produces. The writer cuts a block once its plain size reaches
// targetBlock, and a shared prefix is shorter than the key before it, so a
// block expands to less than its payload plus 2*targetBlock.
func expandBlock(dst []byte, offs []uint32, payload []byte) ([]byte, []uint32, error) {
	if uint64(len(payload)) > math.MaxUint32-2*targetBlock {
		return dst, offs, fmt.Errorf("%w: block of %d bytes", errTableCorrupt, len(payload))
	}
	limit := len(payload) + 2*targetBlock
	dst = slices.Grow(dst, limit)[:limit]
	w, prevOff, prevLen := 0, 0, 0 // bytes written; the previous key, within dst
	for pos := 0; pos < len(payload); {
		flags := payload[pos]
		// Keys shorter than 128 bytes, which is all of them in practice,
		// have one-byte shared and unshared lengths: decode those inline.
		var shared, unshared uint64
		if pos+2 < len(payload) && payload[pos+1]|payload[pos+2] < 0x80 {
			shared, unshared = uint64(payload[pos+1]), uint64(payload[pos+2])
			pos += 3
		} else {
			var n int
			if shared, n = readUvarint(payload, pos+1); n <= 0 {
				return dst[:w], offs, fmt.Errorf("%w: entry key prefix", errTableCorrupt)
			}
			pos += 1 + n
			if unshared, n = readUvarint(payload, pos); n <= 0 {
				return dst[:w], offs, fmt.Errorf("%w: entry key framing", errTableCorrupt)
			}
			pos += n
		}
		if shared > uint64(prevLen) {
			return dst[:w], offs, fmt.Errorf("%w: entry key prefix", errTableCorrupt)
		}
		if uint64(len(payload)-pos) < unshared {
			return dst[:w], offs, fmt.Errorf("%w: entry key framing", errTableCorrupt)
		}
		// The key's suffix, the value length and the value are laid out
		// alike in both layouts: one copy moves all three.
		tail := pos
		pos += int(unshared)
		vlen, n := uint64(0), 1
		if pos < len(payload) && payload[pos] < 0x80 {
			vlen = uint64(payload[pos])
		} else {
			vlen, n = readUvarint(payload, pos)
		}
		if n <= 0 || uint64(len(payload)-pos-n) < vlen {
			return dst[:w], offs, fmt.Errorf("%w: entry value framing", errTableCorrupt)
		}
		pos += n + int(vlen)
		klen := int(shared) + int(unshared)
		if w+1+uvarintLen(klen)+int(shared)+pos-tail > limit {
			return dst[:w], offs, fmt.Errorf("%w: block expands past %d bytes", errTableCorrupt, limit)
		}
		offs = append(offs, uint32(w))
		dst[w] = flags
		w += 1 + binary.PutUvarint(dst[w+1:], uint64(klen))
		copy(dst[w:], dst[prevOff:prevOff+int(shared)])
		prevOff, prevLen = w, klen
		w += int(shared) + copy(dst[w+int(shared):], payload[tail:pos])
	}
	return dst[:w], offs, nil
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

// uvarint decodes the length prefix at the head of b, which parseBlock has
// already validated; lengths under 128 — every key, most values — are one
// byte and skip the general decoder.
func uvarint(b []byte) (v, n int) {
	if b[0] < 0x80 {
		return int(b[0]), 1
	}
	u, n := binary.Uvarint(b)
	return int(u), n
}

// keyAt returns the key of entry i and the offset just past it, where the
// entry's value length starts.
func (b *block) keyAt(i int) (key []byte, end int) {
	pos := int(b.offsets[i]) + 1
	klen, n := uvarint(b.data[pos:])
	pos += n
	return b.data[pos : pos+klen], pos + klen
}

// search binary-searches the block for key and returns the entry's value —
// a view of the block's payload — and flags.
func (b *block) search(key []byte) (value []byte, found bool, flags byte) {
	lo, hi := 0, len(b.offsets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, end := b.keyAt(mid)
		switch c := bytes.Compare(k, key); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			vlen, n := uvarint(b.data[end:])
			end += n
			return b.data[end : end+vlen], true, b.data[b.offsets[mid]]
		}
	}
	return nil, false, 0
}
