package kvnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ethkv/internal/kv"
)

// TestFrameRoundTrip pins the framing layer's happy path.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 10000)}
	for _, b := range bodies {
		if err := writeFrame(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range bodies {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

// TestTruncatedFrameSurfaces cuts a valid frame at every possible byte
// boundary and asserts the reader reports truncation — never a clean EOF
// that a caller could mistake for end-of-stream, and never a short body.
func TestTruncatedFrameSurfaces(t *testing.T) {
	var full bytes.Buffer
	if err := writeFrame(&full, []byte("the quick brown fox")); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		_, err := readFrame(bytes.NewReader(raw[:cut]))
		if !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("cut at %d/%d bytes: err = %v, want ErrTruncatedFrame", cut, len(raw), err)
		}
	}
}

// TestBitFlippedFrameSurfaces flips every bit of a frame in turn; every
// flip must yield a protocol error (CRC mismatch, length corruption, or
// truncation) — silent acceptance of a damaged frame is the bug class this
// test exists for.
func TestBitFlippedFrameSurfaces(t *testing.T) {
	body := []byte("payload that must not be silently altered")
	var full bytes.Buffer
	if err := writeFrame(&full, body); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	for bit := 0; bit < len(raw)*8; bit++ {
		damaged := append([]byte(nil), raw...)
		damaged[bit/8] ^= 1 << (bit % 8)
		got, err := readFrame(bytes.NewReader(damaged))
		if err == nil {
			// The only acceptable "success" would be a read that still
			// returns the exact original body — impossible here because
			// every flipped bit is inside the frame.
			t.Fatalf("bit %d: corrupt frame accepted (body %q)", bit, got)
		}
		if !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrTruncatedFrame) &&
			!errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("bit %d: unexpected error class %v", bit, err)
		}
	}
}

// TestOversizedFrameRejected checks a wild length prefix cannot trigger an
// arbitrary allocation.
func TestOversizedFrameRejected(t *testing.T) {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<31)
	_, err := readFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestHandshakeRejected checks the server drops connections that don't
// speak the protocol.
func TestHandshakeRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		{"http", []byte("GET / HTTP/1.1\r\n\r\n")},
		{"bad-version", append(append([]byte{}, handshakeMagic[:]...), 99)},
		{"version-1", append(append([]byte{}, handshakeMagic[:]...), 1)},
		{"short", []byte("eth")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := readHandshake(bytes.NewReader(tc.bytes))
			if !errors.Is(err, ErrBadHandshake) {
				t.Fatalf("err = %v, want ErrBadHandshake", err)
			}
		})
	}
}

// TestServerDropsCorruptStream connects raw TCP, completes the handshake,
// then streams a bit-flipped frame: the server must drop the connection
// (observed as EOF on our side), not execute anything.
func TestServerDropsCorruptStream(t *testing.T) {
	store := kv.NewMemStore()
	addr, _ := startServer(t, store, silentOpts())

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := writeHandshake(nc); err != nil {
		t.Fatal(err)
	}
	// A valid opOps frame with one put, then flip a payload bit but keep
	// the stale CRC.
	body := makeOpsBody(1, kindPut, []byte("k"), []byte("v"))
	var frame bytes.Buffer
	if err := writeFrame(&frame, body); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	raw[frameHeaderLen+9] ^= 0x40 // inside the body, past reqID
	if _, err := nc.Write(raw); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(nc); err != nil {
		t.Fatalf("waiting for server close: %v", err)
	}
	if store.Len() != 0 {
		t.Fatal("server executed an op from a corrupt frame")
	}
}

// makeOpsBody builds an opOps request body.
func makeOpsBody(reqID uint64, kind byte, key, val []byte) []byte {
	body := binary.LittleEndian.AppendUint64(nil, reqID)
	body = append(body, opOps)
	body = appendUvarint(body, 1)
	body = append(body, kind)
	body = appendBytes(body, key)
	if kind == kindPut {
		body = appendBytes(body, val)
	}
	return body
}

// fakeServer accepts one kvnet connection and hands the test raw control
// of the stream, for injecting malformed responses into a real client.
func fakeServer(t *testing.T, handle func(t *testing.T, nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if err := readHandshake(nc); err != nil {
			t.Errorf("fake server handshake: %v", err)
			return
		}
		handle(t, nc)
	}()
	return ln.Addr().String()
}

// readOneFrame reads a request frame off the raw connection.
func readOneFrame(t *testing.T, nc net.Conn) []byte {
	t.Helper()
	body, err := readFrame(nc)
	if err != nil {
		t.Errorf("fake server read: %v", err)
		return nil
	}
	return body
}

// TestClientSurfacesBitFlippedResponse has a fake server answer a Get with
// a CRC-corrupt frame: the client must fail the op with a protocol error
// and latch, never deliver data from the damaged frame.
func TestClientSurfacesBitFlippedResponse(t *testing.T) {
	addr := fakeServer(t, func(t *testing.T, nc net.Conn) {
		req := readOneFrame(t, nc)
		if req == nil {
			return
		}
		reqID := binary.LittleEndian.Uint64(req[:8])
		// Well-formed ops response: 1 result, get found, value "v".
		resp := binary.LittleEndian.AppendUint64(nil, reqID)
		resp = append(resp, statusOK)
		resp = appendUvarint(resp, 1)
		resp = append(resp, rcOK)
		resp = appendBytes(resp, []byte("v"))
		var frame bytes.Buffer
		writeFrame(&frame, resp)
		raw := frame.Bytes()
		raw[len(raw)-1] ^= 0x01 // flip a value bit, CRC now stale
		nc.Write(raw)
		// Hold the conn open so the failure comes from the CRC, not EOF.
		time.Sleep(2 * time.Second)
	})
	c := dialT(t, addr, ClientOptions{})
	defer c.Close()

	_, err := c.Get([]byte("k"))
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("Get over corrupt response: %v, want ErrCorruptFrame", err)
	}
	// The client must have latched: subsequent ops fail fast.
	if err := c.Put([]byte("k"), []byte("v")); err == nil {
		t.Fatal("client accepted ops after a protocol error")
	}
}

// TestClientSurfacesTruncatedResponse has the fake server die mid-frame:
// the pending op must fail with a truncation error.
func TestClientSurfacesTruncatedResponse(t *testing.T) {
	addr := fakeServer(t, func(t *testing.T, nc net.Conn) {
		req := readOneFrame(t, nc)
		if req == nil {
			return
		}
		reqID := binary.LittleEndian.Uint64(req[:8])
		resp := binary.LittleEndian.AppendUint64(nil, reqID)
		resp = append(resp, statusOK)
		resp = appendUvarint(resp, 1)
		resp = append(resp, rcOK)
		resp = appendBytes(resp, bytes.Repeat([]byte("x"), 1024))
		var frame bytes.Buffer
		writeFrame(&frame, resp)
		nc.Write(frame.Bytes()[:20]) // header + a sliver of body
		// Close tears the stream mid-frame.
	})
	c := dialT(t, addr, ClientOptions{})
	defer c.Close()

	_, err := c.Get([]byte("k"))
	if !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("Get over truncated response: %v, want ErrTruncatedFrame", err)
	}
}

// TestClientRejectsShortBatchResponse has the fake server return a valid,
// CRC-clean frame that answers only 1 of 2 coalesced ops. The client must
// treat the count mismatch as a protocol error for the whole frame — the
// wire-level version of the silent-scan-truncation bug PR 4 killed.
func TestClientRejectsShortBatchResponse(t *testing.T) {
	inFlight, release := make(chan struct{}), make(chan struct{})
	addr := fakeServer(t, func(t *testing.T, nc net.Conn) {
		for first := true; ; first = false {
			req, err := readFrame(nc)
			if err != nil {
				return
			}
			r := &payloadReader{b: req}
			reqID := r.U64()
			if r.U8() != opOps {
				continue
			}
			n := r.Uvarint()
			if first {
				// Hold the window's only slot until the test has queued
				// the next ops, so they ship together as one frame.
				close(inFlight)
				<-release
			}
			// Answer one fewer result than requested, all "not found".
			resp := binary.LittleEndian.AppendUint64(nil, reqID)
			resp = append(resp, statusOK)
			short := n
			if short > 1 {
				short--
			}
			resp = appendUvarint(resp, short)
			for i := uint64(0); i < short; i++ {
				resp = append(resp, rcNotFound)
			}
			writeFrame(nc, resp)
		}
	})
	c := dialT(t, addr, ClientOptions{Conns: 1, Window: 1})
	defer c.Close()

	calls := make([]*call, 3)
	for i := range calls {
		calls[i] = &call{kind: kindGet, key: []byte(fmt.Sprintf("k%d", i)), done: make(chan struct{})}
	}
	if err := c.enqueue(calls[0]); err != nil {
		t.Fatal(err)
	}
	<-inFlight
	for _, cl := range calls[1:] {
		if err := c.enqueue(cl); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	for i, cl := range calls {
		select {
		case <-cl.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("op %d never completed", i)
		}
	}
	if calls[0].err != nil || calls[0].found {
		t.Fatalf("single-op frame: found=%v err=%v, want a clean miss", calls[0].found, calls[0].err)
	}
	for i, cl := range calls[1:] {
		if !errors.Is(cl.err, ErrBadPayload) {
			t.Fatalf("op %d of the short batch: %v, want ErrBadPayload", i+1, cl.err)
		}
	}
}

// makeScanBody builds an opScan request body.
func makeScanBody(reqID uint64, prefix, start []byte, max uint64) []byte {
	body := binary.LittleEndian.AppendUint64(nil, reqID)
	body = append(body, opScan)
	body = appendBytes(body, prefix)
	body = appendBytes(body, start)
	return appendUvarint(body, max)
}

// TestClientRejectsEmptyNonFinalPage has a fake server answer every scan
// request with a page that holds no entries and is not the last. The scan
// must fail with ErrBadPayload: taking the page as progress would make Next
// ask for the same page forever.
func TestClientRejectsEmptyNonFinalPage(t *testing.T) {
	addr := fakeServer(t, func(t *testing.T, nc net.Conn) {
		for {
			req, err := readFrame(nc)
			if err != nil {
				return
			}
			resp := binary.LittleEndian.AppendUint64(nil, binary.LittleEndian.Uint64(req[:8]))
			resp = append(resp, statusOK, 0, 0) // not done, no error
			resp = appendUvarint(resp, 0)       // no entries
			if writeFrame(nc, resp) != nil {
				return
			}
		}
	})
	c := dialT(t, addr, ClientOptions{})
	defer c.Close()

	it := c.NewIterator([]byte("p/"), nil)
	defer it.Release()
	next := make(chan bool, 1)
	go func() { next <- it.Next() }()
	select {
	case ok := <-next:
		if ok {
			t.Fatal("an empty page yielded a key")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next kept asking for empty pages")
	}
	if err := it.Error(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("scan over an empty non-final page: %v, want ErrBadPayload", err)
	}
}

// FuzzServerRequestDecode throws arbitrary bodies at the server's request
// handler: it must never panic, returning either a response or a protocol
// error.
func FuzzServerRequestDecode(f *testing.F) {
	f.Add(makeOpsBody(1, kindPut, []byte("k"), []byte("v")))
	f.Add(makeOpsBody(2, kindGet, []byte("k"), nil))
	f.Add(makeScanBody(3, []byte("k"), nil, 512))            // a first page
	f.Add(makeScanBody(4, []byte("k"), []byte("ey\x00"), 2)) // a resumed page
	f.Add(makeScanBody(5, nil, nil, 0))                      // max 0
	truncated := makeScanBody(6, []byte("k"), []byte("start"), 512)
	f.Add(truncated[:len(truncated)-4]) // start cut short
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	store := kv.NewMemStore()
	store.Put([]byte("key"), []byte("v"))
	store.Put([]byte("key\x00"), []byte("v"))
	srv := NewServer(store, silentOpts())
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := srv.handle(body)
		if err == nil && resp == nil {
			t.Fatal("handle returned neither response nor error")
		}
		// A scan page the server answers is final or holds an entry.
		if err == nil && body[8] == opScan && resp[8] == statusOK && resp[9] == 0 {
			if n, _ := binary.Uvarint(resp[11:]); n == 0 {
				t.Fatalf("empty non-final page for request %x", body)
			}
		}
	})
}

// writeCounter counts the Write calls that reach it — on a socket, the write
// syscalls.
type writeCounter struct {
	io.Writer
	writes atomic.Int64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Writer.Write(p)
}

// TestFrameLeavesInOneWrite pins what DESIGN.md §14 says of the frame path:
// writeFrame's header and body Writes meet in the frame writer's buffer, so a
// flush hands the connection one Write however many frames it carries. (Only
// a frame that overflows the buffer is split, and then by size, not at the
// header.)
func TestFrameLeavesInOneWrite(t *testing.T) {
	var wire bytes.Buffer
	conn := &writeCounter{Writer: &wire}
	bw := newFrameWriter(conn)
	flushes := int64(0)
	for _, frames := range [][][]byte{
		{[]byte("one small frame")},
		{bytes.Repeat([]byte{1}, 100<<10)}, // a 100 KiB write batch
		{[]byte("three"), []byte("folded"), []byte("responses")},
		{bytes.Repeat([]byte{2}, frameWriterBytes-frameHeaderLen)}, // the largest that fits
	} {
		for _, body := range frames {
			if err := writeFrame(bw, body); err != nil {
				t.Fatal(err)
			}
		}
		if n := conn.writes.Load(); n != flushes {
			t.Fatalf("%d Writes reached the connection before the flush, want %d", n, flushes)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		flushes++
		if n := conn.writes.Load(); n != flushes {
			t.Fatalf("flush %d of %d frames: %d Writes on the connection so far, want one per flush", flushes, len(frames), n)
		}
		for _, body := range frames {
			got, err := readFrame(&wire)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("frame did not survive the trip: %d bytes, %v", len(got), err)
			}
		}
	}
}

// countingListener hands the server connections whose Writes are counted.
type countingListener struct {
	net.Listener
	conn chan *writeCounter
}

type countedConn struct {
	net.Conn
	w *writeCounter
}

func (c countedConn) Write(p []byte) (int, error) { return c.w.Write(p) }

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	w := &writeCounter{Writer: c}
	l.conn <- w
	return countedConn{Conn: c, w: w}, nil
}

// TestServedResponseIsOneConnWrite: end to end, a closed-loop client's every
// call costs the server's connection exactly one Write — the response frame,
// header and body together.
func TestServedResponseIsOneConnWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingListener{Listener: ln, conn: make(chan *writeCounter, 1)}
	srv := NewServer(kv.NewMemStore(), silentOpts())
	go srv.Serve(counted)
	defer srv.Close()
	c := dialT(t, ln.Addr().String(), ClientOptions{})
	defer c.Close()
	conn := <-counted.conn

	if err := c.Put([]byte("k"), bytes.Repeat([]byte("v"), 4096)); err != nil {
		t.Fatal(err)
	}
	const calls = 100
	before, framesBefore := conn.writes.Load(), c.NetStats().FramesSent
	for i := 0; i < calls; i++ {
		if _, err := c.Get([]byte("k")); err != nil {
			t.Fatal(err)
		}
	}
	if frames := c.NetStats().FramesSent - framesBefore; frames != calls {
		t.Fatalf("%d sequential Gets shipped %d request frames, want one each", calls, frames)
	}
	if writes := conn.writes.Load() - before; writes != calls {
		t.Fatalf("%d response frames cost the server's connection %d Writes, want one each", calls, writes)
	}
}
