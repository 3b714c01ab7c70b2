// Package keccak implements the Keccak-f[1600] permutation and the
// Keccak-256 hash function used by Ethereum.
//
// Ethereum predates the final FIPS-202 standard and uses the original Keccak
// padding (0x01) rather than the SHA-3 padding (0x06). This package
// implements that original variant, so Hash256 matches Ethereum's
// "keccak256" exactly.
package keccak

import (
	"encoding/binary"
	"math/bits"
)

const (
	rate = 136 // Keccak-256 sponge rate in bytes (capacity 512 bits)
	size = 32  // Keccak-256 digest length in bytes
)

// roundConstants are the 24 iota-step round constants of Keccak-f[1600].
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a,
	0x8000000080008000, 0x000000000000808b, 0x0000000080000001,
	0x8000000080008081, 0x8000000000008009, 0x000000000000008a,
	0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089,
	0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
	0x000000000000800a, 0x800000008000000a, 0x8000000080008081,
	0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// permute applies the full 24-round Keccak-f[1600] permutation to the state.
//
// Lane a[x+5y] is A[x,y] in the Keccak reference. Each round keeps the 25
// lanes in locals and fuses the five steps:
//
//	theta: A[x,y] ^= C[x-1] ^ rot(C[x+1], 1), C[x] = A[x,0] ^ ... ^ A[x,4]
//	rho+pi: B[y, 2x+3y] = rot(A[x,y], r[x,y])
//	chi:   A[x,y] = B[x,y] ^ (^B[x+1,y] & B[x+2,y])
//	iota:  A[0,0] ^= RC[round]
//
// Output row y of chi reads B[0..4,y], which pi takes from the lanes
// A[(x+3y)%5, x]; the five groups below spell those lanes and their
// rho offsets out as constants.
func permute(a *[25]uint64) {
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	a5, a6, a7, a8, a9 := a[5], a[6], a[7], a[8], a[9]
	a10, a11, a12, a13, a14 := a[10], a[11], a[12], a[13], a[14]
	a15, a16, a17, a18, a19 := a[15], a[16], a[17], a[18], a[19]
	a20, a21, a22, a23, a24 := a[20], a[21], a[22], a[23], a[24]

	for _, rc := range roundConstants {
		// Theta.
		c0 := a0 ^ a5 ^ a10 ^ a15 ^ a20
		c1 := a1 ^ a6 ^ a11 ^ a16 ^ a21
		c2 := a2 ^ a7 ^ a12 ^ a17 ^ a22
		c3 := a3 ^ a8 ^ a13 ^ a18 ^ a23
		c4 := a4 ^ a9 ^ a14 ^ a19 ^ a24
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)

		// Row 0 from A[0,0] A[1,1] A[2,2] A[3,3] A[4,4], then iota.
		b0 := a0 ^ d0
		b1 := bits.RotateLeft64(a6^d1, 44)
		b2 := bits.RotateLeft64(a12^d2, 43)
		b3 := bits.RotateLeft64(a18^d3, 21)
		b4 := bits.RotateLeft64(a24^d4, 14)
		e0 := b0 ^ (^b1 & b2) ^ rc
		e1 := b1 ^ (^b2 & b3)
		e2 := b2 ^ (^b3 & b4)
		e3 := b3 ^ (^b4 & b0)
		e4 := b4 ^ (^b0 & b1)

		// Row 1 from A[3,0] A[4,1] A[0,2] A[1,3] A[2,4].
		b0 = bits.RotateLeft64(a3^d3, 28)
		b1 = bits.RotateLeft64(a9^d4, 20)
		b2 = bits.RotateLeft64(a10^d0, 3)
		b3 = bits.RotateLeft64(a16^d1, 45)
		b4 = bits.RotateLeft64(a22^d2, 61)
		e5 := b0 ^ (^b1 & b2)
		e6 := b1 ^ (^b2 & b3)
		e7 := b2 ^ (^b3 & b4)
		e8 := b3 ^ (^b4 & b0)
		e9 := b4 ^ (^b0 & b1)

		// Row 2 from A[1,0] A[2,1] A[3,2] A[4,3] A[0,4].
		b0 = bits.RotateLeft64(a1^d1, 1)
		b1 = bits.RotateLeft64(a7^d2, 6)
		b2 = bits.RotateLeft64(a13^d3, 25)
		b3 = bits.RotateLeft64(a19^d4, 8)
		b4 = bits.RotateLeft64(a20^d0, 18)
		e10 := b0 ^ (^b1 & b2)
		e11 := b1 ^ (^b2 & b3)
		e12 := b2 ^ (^b3 & b4)
		e13 := b3 ^ (^b4 & b0)
		e14 := b4 ^ (^b0 & b1)

		// Row 3 from A[4,0] A[0,1] A[1,2] A[2,3] A[3,4].
		b0 = bits.RotateLeft64(a4^d4, 27)
		b1 = bits.RotateLeft64(a5^d0, 36)
		b2 = bits.RotateLeft64(a11^d1, 10)
		b3 = bits.RotateLeft64(a17^d2, 15)
		b4 = bits.RotateLeft64(a23^d3, 56)
		e15 := b0 ^ (^b1 & b2)
		e16 := b1 ^ (^b2 & b3)
		e17 := b2 ^ (^b3 & b4)
		e18 := b3 ^ (^b4 & b0)
		e19 := b4 ^ (^b0 & b1)

		// Row 4 from A[2,0] A[3,1] A[4,2] A[0,3] A[1,4].
		b0 = bits.RotateLeft64(a2^d2, 62)
		b1 = bits.RotateLeft64(a8^d3, 55)
		b2 = bits.RotateLeft64(a14^d4, 39)
		b3 = bits.RotateLeft64(a15^d0, 41)
		b4 = bits.RotateLeft64(a21^d1, 2)
		a20 = b0 ^ (^b1 & b2)
		a21 = b1 ^ (^b2 & b3)
		a22 = b2 ^ (^b3 & b4)
		a23 = b3 ^ (^b4 & b0)
		a24 = b4 ^ (^b0 & b1)

		a0, a1, a2, a3, a4 = e0, e1, e2, e3, e4
		a5, a6, a7, a8, a9 = e5, e6, e7, e8, e9
		a10, a11, a12, a13, a14 = e10, e11, e12, e13, e14
		a15, a16, a17, a18, a19 = e15, e16, e17, e18, e19
	}

	a[0], a[1], a[2], a[3], a[4] = a0, a1, a2, a3, a4
	a[5], a[6], a[7], a[8], a[9] = a5, a6, a7, a8, a9
	a[10], a[11], a[12], a[13], a[14] = a10, a11, a12, a13, a14
	a[15], a[16], a[17], a[18], a[19] = a15, a16, a17, a18, a19
	a[20], a[21], a[22], a[23], a[24] = a20, a21, a22, a23, a24
}

// Hasher is a streaming Keccak-256 sponge. The zero value is ready to use.
type Hasher struct {
	state [25]uint64
	buf   [rate]byte // partial block not yet absorbed
	n     int        // bytes buffered in buf, always < rate between calls
}

// New256 returns a Keccak-256 hasher.
func New256() *Hasher { return new(Hasher) }

// Reset restores the hasher to its initial state.
func (h *Hasher) Reset() { *h = Hasher{} }

// Size returns the digest length in bytes.
func (h *Hasher) Size() int { return size }

// BlockSize returns the sponge rate in bytes.
func (h *Hasher) BlockSize() int { return rate }

// Write absorbs p into the sponge. It never fails.
func (h *Hasher) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		c := copy(h.buf[h.n:], p)
		h.n += c
		p = p[c:]
		if h.n == rate {
			h.absorb()
			h.n = 0
		}
	}
	return n, nil
}

// absorb XORs the full buffer into the state and permutes.
func (h *Hasher) absorb() {
	for i := range rate / 8 {
		h.state[i] ^= binary.LittleEndian.Uint64(h.buf[i*8:])
	}
	permute(&h.state)
}

// pad absorbs the buffered tail with the original Keccak padding
// (0x01 ... 0x80, multi-rate pad10*1). The sponge is finished afterwards:
// the digest is the first size bytes of the state.
func (h *Hasher) pad() {
	clear(h.buf[h.n:])
	h.buf[h.n] = 0x01
	h.buf[rate-1] |= 0x80
	h.absorb()
}

// digest returns the first size bytes of the state.
func (h *Hasher) digest() (out [size]byte) {
	for i := range size / 8 {
		binary.LittleEndian.PutUint64(out[i*8:], h.state[i])
	}
	return out
}

// Sum appends the digest to b and returns the result. The hasher state is
// not modified, so Sum may be called repeatedly and Write may continue.
func (h *Hasher) Sum(b []byte) []byte {
	d := *h
	d.pad()
	out := d.digest()
	return append(b, out[:]...)
}

// Hash256 computes the Keccak-256 digest of data.
func Hash256(data ...[]byte) [32]byte {
	var h Hasher
	for _, d := range data {
		h.Write(d)
	}
	h.pad()
	return h.digest()
}
