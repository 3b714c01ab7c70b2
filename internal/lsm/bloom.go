package lsm

import (
	"encoding/binary"

	"ethkv/internal/keccak"
)

// bloomFilter is a fixed-width Bloom filter attached to each SSTable to
// short-circuit point lookups for absent keys. We use ~10 bits per key and
// 7 hash probes (k = m/n * ln2), the classic LevelDB parameters.
//
// The probe hash is versioned by the table format (selected via the footer
// magic): v2 tables use fastHash64, a non-cryptographic FNV-1a/splitmix64
// combination — a full Keccak-256 permutation per point-read probe was
// pure waste on the hot path — while v1 tables keep the original keccak
// hashing so filters written by older code still answer correctly.
type bloomFilter struct {
	bits []byte
	k    int
	fast bool // v2: fastHash64 probes; v1: keccak
}

// bloomBitsPerKey controls the filter size; 10 gives ~1% false positives.
const bloomBitsPerKey = 10

// bloomProbes is k, the probes per key (m/n * ln2 at 10 bits per key).
const bloomProbes = 7

// bloomBytes is the filter size for a table of n keys.
func bloomBytes(n int) int {
	nbits := n * bloomBitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	return (nbits + 7) / 8
}

// bloomFromBytes wraps a serialized filter (as written by the sstable
// writer); fast must reflect the table format it was read from.
func bloomFromBytes(bits []byte, k int, fast bool) *bloomFilter {
	return &bloomFilter{bits: bits, k: k, fast: fast}
}

// fastHash64 is an FNV-1a 64-bit pass with a splitmix64 finalizer: the
// multiply-xor chain gives full avalanche, so the two 32-bit halves are
// independent enough for double hashing. No allocation, a few ns per key.
func fastHash64(key []byte) uint64 {
	h := uint64(14695981039346656037) // FNV offset basis
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211 // FNV prime
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// bloomHash is the table format's 64-bit probe hash of key: the low and high
// halves are the two hashes of the double-hashing probe sequence.
func bloomHash(key []byte, fast bool) uint64 {
	if fast {
		return fastHash64(key)
	}
	d := keccak.Hash256(key)
	return binary.LittleEndian.Uint64(d[:8])
}

// addHash inserts the key whose bloomHash is h.
func (f *bloomFilter) addHash(h uint64) {
	h1, h2 := uint32(h), uint32(h>>32)
	nbits := uint32(len(f.bits) * 8)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint32(i)*h2) % nbits
		f.bits[pos/8] |= 1 << (pos % 8)
	}
}

// mayContainHash reports whether the key whose bloomHash is h might be in
// the set (false positives possible, false negatives impossible).
func (f *bloomFilter) mayContainHash(h uint64) bool {
	if len(f.bits) == 0 {
		return true
	}
	h1, h2 := uint32(h), uint32(h>>32)
	nbits := uint32(len(f.bits) * 8)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint32(i)*h2) % nbits
		if f.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}
