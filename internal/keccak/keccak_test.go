package keccak

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"
	"time"
)

// Known-answer vectors for the original Keccak (Ethereum variant, 0x01 pad).
var kat256 = []struct {
	in  string
	out string
}{
	// keccak256("") — the famous Ethereum empty hash.
	{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
	// keccak256("abc")
	{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	// keccak256 of the ASCII alphabet.
	{"abcdefghijklmnopqrstuvwxyz", "9230175b13981da14d2f3334f321eb78fa0473133f6da3de896feb22fb258936"},
	// RLP of empty string 0x80 hashes to the empty-trie root.
	{"\x80", "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"},
}

func TestKeccak256KnownAnswers(t *testing.T) {
	for _, kat := range kat256 {
		got := Hash256([]byte(kat.in))
		want, err := hex.DecodeString(kat.out)
		if err != nil {
			t.Fatalf("bad vector %q: %v", kat.out, err)
		}
		if !bytes.Equal(got[:], want) {
			t.Errorf("Hash256(%q) = %x, want %s", kat.in, got, kat.out)
		}
	}
}

// TestStreamingEqualsOneShot checks that chunked Write sequences produce the
// same digest as a single Write, for arbitrary chunkings.
func TestStreamingEqualsOneShot(t *testing.T) {
	f := func(data []byte, split uint8) bool {
		whole := Hash256(data)

		h := New256()
		n := int(split) % (len(data) + 1)
		h.Write(data[:n])
		h.Write(data[n:])
		var chunked [32]byte
		copy(chunked[:], h.Sum(nil))
		return whole == chunked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSumDoesNotConsume checks Sum can be called mid-stream without
// disturbing subsequent writes.
func TestSumDoesNotConsume(t *testing.T) {
	h := New256()
	h.Write([]byte("hello "))
	first := h.Sum(nil)
	second := h.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatalf("consecutive Sum calls differ: %x vs %x", first, second)
	}
	h.Write([]byte("world"))
	full := Hash256([]byte("hello world"))
	if !bytes.Equal(h.Sum(nil), full[:]) {
		t.Fatalf("Sum after continued Write mismatch")
	}
}

func TestReset(t *testing.T) {
	h := New256()
	h.Write([]byte("garbage"))
	h.Reset()
	h.Write([]byte("abc"))
	want := Hash256([]byte("abc"))
	if !bytes.Equal(h.Sum(nil), want[:]) {
		t.Fatal("Reset did not restore initial state")
	}
}

func TestMultiSliceHash(t *testing.T) {
	a := Hash256([]byte("foo"), []byte("bar"))
	b := Hash256([]byte("foobar"))
	if a != b {
		t.Fatalf("multi-slice hash mismatch: %x vs %x", a, b)
	}
}

func TestSizesAndRates(t *testing.T) {
	if got := New256().Size(); got != 32 {
		t.Errorf("New256 Size = %d, want 32", got)
	}
	if got := New256().BlockSize(); got != 136 {
		t.Errorf("New256 BlockSize = %d, want 136", got)
	}
}

// TestRateBoundary exercises inputs straddling the 136-byte rate boundary,
// where padding bugs typically hide.
func TestRateBoundary(t *testing.T) {
	for _, n := range []int{135, 136, 137, 271, 272, 273} {
		data := bytes.Repeat([]byte{0xaa}, n)
		one := Hash256(data)

		h := New256()
		for _, b := range data {
			h.Write([]byte{b})
		}
		var streamed [32]byte
		copy(streamed[:], h.Sum(nil))
		if one != streamed {
			t.Errorf("length %d: byte-at-a-time digest differs", n)
		}
	}
}

// TestKeccak256Golden pins multi-block hashing independently of the
// implementation: the SHA-256 of the Keccak-256 digests of every prefix
// p[:0] .. p[:1024] of a fixed pattern, which crosses the 136-byte rate
// boundary seven times.
func TestKeccak256Golden(t *testing.T) {
	const want = "9d896f3793bdf2905a7b6e191ba4ed18b5463cb52f9716ed35318fdce05534e3"
	p := make([]byte, 1024)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	acc := sha256.New()
	for n := 0; n <= len(p); n++ {
		d := Hash256(p[:n])
		acc.Write(d[:])
	}
	if got := hex.EncodeToString(acc.Sum(nil)); got != want {
		t.Fatalf("digest of prefix digests = %s, want %s", got, want)
	}
}

// TestZeroValueHasher checks that a zero Hasher is a ready Keccak-256
// sponge: Write returns instead of spinning, and the digest is right.
func TestZeroValueHasher(t *testing.T) {
	done := make(chan []byte, 1)
	go func() {
		var h Hasher
		h.Write([]byte("abc"))
		done <- h.Sum(nil)
	}()
	select {
	case got := <-done:
		want := Hash256([]byte("abc"))
		if !bytes.Equal(got, want[:]) {
			t.Fatalf("zero Hasher digest = %x, want %x", got, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Write on a zero Hasher did not return")
	}
}

// rotc holds the rho-step rotation offsets in the order visited by the
// combined rho+pi loop of permuteRef.
var rotc = [24]uint{
	1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14,
	27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
}

// piln holds the pi-step lane permutation in the same visitation order.
var piln = [24]int{
	10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4,
	15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
}

// permuteRef is the loop form of Keccak-f[1600], one step at a time: the
// reference the unrolled permute is checked against.
func permuteRef(a *[25]uint64) {
	rotl := func(x uint64, n uint) uint64 { return x<<n | x>>(64-n) }
	var bc [5]uint64
	for round := 0; round < 24; round++ {
		// Theta.
		for i := 0; i < 5; i++ {
			bc[i] = a[i] ^ a[i+5] ^ a[i+10] ^ a[i+15] ^ a[i+20]
		}
		for i := 0; i < 5; i++ {
			t := bc[(i+4)%5] ^ rotl(bc[(i+1)%5], 1)
			for j := 0; j < 25; j += 5 {
				a[j+i] ^= t
			}
		}
		// Rho and Pi.
		t := a[1]
		for i := 0; i < 24; i++ {
			j := piln[i]
			bc[0] = a[j]
			a[j] = rotl(t, rotc[i])
			t = bc[0]
		}
		// Chi.
		for j := 0; j < 25; j += 5 {
			for i := 0; i < 5; i++ {
				bc[i] = a[j+i]
			}
			for i := 0; i < 5; i++ {
				a[j+i] ^= (^bc[(i+1)%5]) & bc[(i+2)%5]
			}
		}
		// Iota.
		a[0] ^= roundConstants[round]
	}
}

// stateFrom fills a state from up to 200 bytes of data, zero-extended.
func stateFrom(data []byte) (a [25]uint64) {
	var raw [200]byte
	copy(raw[:], data)
	for i := range a {
		a[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	return a
}

func FuzzPermute(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 200))
	f.Add([]byte("the quick brown fox"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a := stateFrom(data)
		want := a
		permuteRef(&want)
		permute(&a)
		if a != want {
			t.Fatalf("permute(%x) differs from the reference", data)
		}
	})
}

func BenchmarkPermute(b *testing.B) {
	var a [25]uint64
	for i := 0; i < b.N; i++ {
		permute(&a)
	}
}

// BenchmarkHash256_32B hashes one trie key.
func BenchmarkHash256_32B(b *testing.B) {
	data := make([]byte, 32)
	b.SetBytes(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Hash256(data)
	}
}

func BenchmarkKeccak256_1KiB(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Hash256(data)
	}
}
