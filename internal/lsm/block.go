package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// block is one data block prepared for point lookups: the verified payload
// plus the start offset of every entry in it. The offsets are not part of
// the table format — parseBlock derives them, validating every entry's
// framing on the way, when the block is read from the file; they live as
// long as the block does (in the cache, or for one lookup when caching is
// off) and their bytes are charged to the cache budget with the payload's.
// A block is immutable once built: readers share it without locking.
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
