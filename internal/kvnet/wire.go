// Package kvnet is the network serving layer: a length-framed binary wire
// protocol over TCP exposing the full kv.Store surface, a Server that
// fronts any backend with per-connection worker goroutines, and a Client
// that implements kv.Store by coalescing concurrent callers' operations
// into batched round-trips.
//
// The protocol exists to amortize per-operation network cost: a point op
// is tens of bytes, so at cloud-KV rates the syscall + framing + dispatch
// overhead of one-request-per-op dominates throughput. The client's batch
// buffers aggregate up to ~1k ops into one frame, self-clocked by a
// pipelined in-flight window: while the window is saturated, concurrent
// callers pile into the op queue, and each freed slot ships the
// accumulation as one frame.
//
// Wire format. Every frame, in both directions, is:
//
//	u32 bodyLen (LE) | u32 crc32c(body) | body
//
// The CRC makes torn or bit-flipped frames a detected protocol error, never
// a silently short batch — the same discipline PR 4 established for scans
// over corrupt SSTables. Request bodies are:
//
//	u64 reqID | u8 opcode | opcode-specific payload
//
// and response bodies are:
//
//	u64 reqID | u8 status | payload (status==statusError: error message)
//
// Frames may be answered out of order; reqID is the correlation key. A
// connection starts with a 9-byte handshake (8 magic bytes + version) so a
// stray client of some other protocol fails fast instead of feeding the
// frame reader garbage.
//
// Scans are stateless. One opScan request (prefix | start | max) is answered
// by one page (done | hasErr [msg] | count | entries): the server opens a
// backend iterator, fills the page, reads its Error and releases it before
// answering, so no iterator outlives a request and a peer can pin nothing
// between requests. The client resumes a page that is not final at the key
// right after its last one (last + 0x00). Each page is therefore its own
// view of the store: a key present for the whole scan is returned exactly
// once, in ascending order; a key written or deleted during the scan may or
// may not appear — as in a local LSM scan, whose memtable walk sees live
// writes too.
package kvnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// handshakeMagic opens every connection, followed by protocolVersion.
var handshakeMagic = [8]byte{'e', 't', 'h', 'k', 'v', 'n', 'e', 't'}

// protocolVersion is bumped on any incompatible wire change.
const protocolVersion = 2

// frameHeaderLen is bodyLen + crc.
const frameHeaderLen = 8

// DefaultMaxFrameBytes bounds a single frame body. Large enough for a
// coalesced batch of big values or an atomic import batch, small enough
// that a corrupt length prefix cannot trigger a multi-GiB allocation.
const DefaultMaxFrameBytes = 64 << 20

// Request opcodes.
const (
	opOps    = 1 // coalesced non-atomic get/has/put/delete batch
	opAtomic = 2 // atomic write batch (kv.Batch.Write)
	opScan   = 3 // one page of a scan
	opStats  = 4 // kv.Stats snapshot of the backing store
)

// Sub-operation kinds inside opOps and opAtomic payloads.
const (
	kindGet    = 0
	kindHas    = 1
	kindPut    = 2
	kindDelete = 3
)

// Response statuses.
const (
	statusOK    = 0
	statusError = 1 // request-level failure; payload is the message
)

// Per-op result codes inside an opOps response.
const (
	rcOK       = 0
	rcNotFound = 1
	rcError    = 2
)

// Protocol errors surfaced by the frame reader. Both sides treat any of
// these as fatal for the connection: once framing is suspect, nothing
// later on the stream can be trusted.
var (
	// ErrCorruptFrame reports a CRC mismatch between header and body —
	// a bit flip, overwrite, or desynchronized stream.
	ErrCorruptFrame = errors.New("kvnet: corrupt frame (crc mismatch)")
	// ErrFrameTooLarge reports a length prefix beyond DefaultMaxFrameBytes,
	// which in practice means a desynchronized or malicious stream. The
	// client also returns it, without touching the connection, for a
	// request too large to send in one frame.
	ErrFrameTooLarge = errors.New("kvnet: frame exceeds size limit")
	// ErrTruncatedFrame reports a stream that ended mid-frame.
	ErrTruncatedFrame = errors.New("kvnet: truncated frame")
	// ErrBadHandshake reports a connection that did not open with the
	// protocol magic and a supported version.
	ErrBadHandshake = errors.New("kvnet: bad handshake")
	// ErrBadPayload reports a frame whose CRC checked out but whose
	// payload does not decode — a peer speaking a broken dialect.
	ErrBadPayload = errors.New("kvnet: malformed frame payload")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameWriterBytes is the buffer both ends put between writeFrame and the
// connection.
const frameWriterBytes = 256 << 10

// newFrameWriter returns the buffered writer frames go to conn through.
// writeFrame's two Writes — header, body — land in its buffer, and the Flush
// that follows hands the connection header, body and any frames folded in
// behind them in a single Write: one syscall per flush, not two per frame,
// for anything smaller than the buffer. There is no gather-write left to win.
func newFrameWriter(conn io.Writer) *bufio.Writer {
	return bufio.NewWriterSize(conn, frameWriterBytes)
}

// writeFrame emits one frame to w (a newFrameWriter on a live connection).
// The body is not retained.
func writeFrame(w io.Writer, body []byte) error {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(body, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame body from r. A clean EOF before any header
// byte returns io.EOF; an EOF mid-frame returns ErrTruncatedFrame. The
// returned slice is freshly allocated and owned by the caller.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > DefaultMaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, DefaultMaxFrameBytes)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
	}
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrCorruptFrame
	}
	return body, nil
}

// writeHandshake sends the magic + version that opens a client connection.
func writeHandshake(w io.Writer) error {
	var buf [9]byte
	copy(buf[:8], handshakeMagic[:])
	buf[8] = protocolVersion
	_, err := w.Write(buf[:])
	return err
}

// readHandshake validates the 9 opening bytes of a server-side connection.
func readHandshake(r io.Reader) error {
	var buf [9]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if [8]byte(buf[:8]) != handshakeMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadHandshake, buf[:8])
	}
	if buf[8] != protocolVersion {
		return fmt.Errorf("%w: version %d (want %d)", ErrBadHandshake, buf[8], protocolVersion)
	}
	return nil
}

// appendUvarint appends v in uvarint encoding.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendBytes appends a uvarint length prefix followed by p.
func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// payloadReader decodes a frame body with bounds checking. Every method
// latches the first error; callers check Err once at the end (or wherever
// a decoded value gates further decoding).
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (r *payloadReader) fail() {
	if r.err == nil {
		r.err = ErrBadPayload
	}
}

// Err returns the latched decode error, if any.
func (r *payloadReader) Err() error { return r.err }

// Remaining reports how many undecoded bytes are left.
func (r *payloadReader) Remaining() int { return len(r.b) - r.off }

// U8 decodes one byte.
func (r *payloadReader) U8() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U64 decodes a fixed-width little-endian u64.
func (r *payloadReader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Uvarint decodes a varint-encoded unsigned integer.
func (r *payloadReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Bytes decodes a uvarint-prefixed byte string. The returned slice aliases
// the frame body, which is immutable once handed to the decoder.
func (r *payloadReader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return v
}
