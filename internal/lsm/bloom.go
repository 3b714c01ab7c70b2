package lsm

// bloomFilter is a fixed-width Bloom filter attached to each SSTable to
// short-circuit point lookups for absent keys. We use ~10 bits per key and
// 7 hash probes (k = m/n * ln2), the classic LevelDB parameters.
//
// Probes come from bloomHash, a non-cryptographic FNV-1a/splitmix64
// combination computed once per key.
type bloomFilter struct {
	bits []byte
	k    int
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
// writer).
func bloomFromBytes(bits []byte, k int) *bloomFilter {
	return &bloomFilter{bits: bits, k: k}
}

// bloomHash is the 64-bit probe hash of key: an FNV-1a pass with a
// splitmix64 finalizer. The multiply-xor chain gives full avalanche, so the
// low and high halves are independent enough to be the two hashes of the
// double-hashing probe sequence. No allocation, a few ns per key.
func bloomHash(key []byte) uint64 {
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
