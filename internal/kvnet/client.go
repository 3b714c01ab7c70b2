package kvnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ethkv/internal/kv"
)

// ClientOptions tunes a Client.
type ClientOptions struct {
	// Conns is the number of TCP connections to multiplex over. Default 1.
	Conns int
	// BatchMaxOps caps how many point ops coalesce into one request
	// frame. 1 disables coalescing (every op is its own frame — the
	// "batching off" baseline). Default 1024.
	BatchMaxOps int
	// Window is the maximum number of in-flight frames per connection.
	// Pipelining hides RTT; the coalescing sweet spot is small — each
	// returning response releases the next, larger batch. Default 2.
	Window int
}

func (o *ClientOptions) withDefaults() ClientOptions {
	v := *o
	if v.Conns <= 0 {
		v.Conns = 1
	}
	if v.BatchMaxOps <= 0 {
		v.BatchMaxOps = 1024
	}
	if v.Window <= 0 {
		v.Window = 2
	}
	return v
}

const (
	// dialTimeout bounds connection establishment.
	dialTimeout = 5 * time.Second
	// batchMaxBytes caps the estimated payload of one coalesced frame.
	batchMaxBytes = 1 << 20
	// opsFrameOverhead bounds an opOps frame's bytes before its ops:
	// reqID, opcode and the op count.
	opsFrameOverhead = 8 + 1 + binary.MaxVarintLen64
)

// iterPageOps is how many entries one scan page requests. A variable only so
// tests can end pages on every key.
var iterPageOps uint64 = 512

// NetStats are client-side transport counters, for load generators that
// want to report achieved coalescing.
type NetStats struct {
	FramesSent uint64 // request frames written (all opcodes)
	OpFrames   uint64 // coalesced point-op frames among them
	OpsSent    uint64 // point ops carried by those frames
	BytesSent  uint64 // request body bytes
	BytesRecv  uint64 // response body bytes
}

// MeanBatch returns point ops per coalesced frame (0 with no traffic).
func (n NetStats) MeanBatch() float64 {
	if n.OpFrames == 0 {
		return 0
	}
	return float64(n.OpsSent) / float64(n.OpFrames)
}

// call is one pending operation: either a point op destined for a
// coalesced frame (kind in kindGet..kindDelete) or a standalone request
// carrying a pre-encoded payload (opcode != 0).
type call struct {
	kind     byte
	key, val []byte

	opcode  byte   // nonzero → standalone request
	payload []byte // standalone opcode-specific payload

	done chan struct{}
	err  error
	// point-op results
	found bool
	value []byte
	// standalone result
	resp []byte
}

func (cl *call) finish(err error) {
	cl.err = err
	close(cl.done)
}

// frameBytes bounds the body of a request frame carrying cl alone.
func (cl *call) frameBytes() int {
	if cl.opcode != 0 {
		return 8 + 1 + len(cl.payload)
	}
	return opsFrameOverhead + pointOpSize(cl)
}

// Client implements kv.Store over a kvnet connection pool. All methods are
// safe for concurrent use; concurrent callers' point operations coalesce
// into shared request frames.
//
// Failure model is fail-stop: the first connection-fatal error (protocol
// violation, peer gone) latches the client; every pending and future
// operation returns the latched error. A lab client prefers a loud,
// deterministic failure over silent retries that could reorder writes.
// A request too large for one frame is refused with ErrFrameTooLarge
// before it is sent, and the client stays usable.
type Client struct {
	opts ClientOptions

	// opq is the shared op queue. Senders drain it; it is closed exactly
	// once, by Close, under qmu.
	opq   chan *call
	qmu   sync.RWMutex
	conns []*clientConn

	closed atomic.Bool // user called Close
	errMu  sync.Mutex
	err    error // first fatal transport error, latched

	frames   atomic.Uint64
	opFrames atomic.Uint64
	ops      atomic.Uint64
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64

	wg sync.WaitGroup
}

var _ kv.Store = (*Client)(nil)
var _ kv.StatsProvider = (*Client)(nil)

// Dial connects to a kvnet server at addr.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	o := opts.withDefaults()
	c := &Client{
		opts: o,
		opq:  make(chan *call, 4*o.BatchMaxOps),
	}
	for i := 0; i < o.Conns; i++ {
		nc, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			if tc, ok := nc.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			if herr := writeHandshake(nc); herr != nil {
				nc.Close()
				err = herr
			}
		}
		if err != nil {
			for _, cc := range c.conns {
				cc.nc.Close()
			}
			return nil, err
		}
		c.conns = append(c.conns, &clientConn{
			client:  c,
			nc:      nc,
			sem:     make(chan struct{}, o.Window),
			down:    make(chan struct{}),
			waiters: make(map[uint64]*inflight),
		})
	}
	for _, cc := range c.conns {
		c.wg.Add(2)
		go func() { defer c.wg.Done(); cc.readLoop() }()
		go func() { defer c.wg.Done(); cc.sendLoop() }()
	}
	return c, nil
}

// latchedErr returns the fatal transport error, or nil.
func (c *Client) latchedErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// fail latches err as the client's fatal error and closes the sockets.
// The first caller's error wins; later calls only re-close.
func (c *Client) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
	for _, cc := range c.conns {
		cc.nc.Close()
	}
}

// deathErr is what operations fail with once the client is unusable.
func (c *Client) deathErr() error {
	if err := c.latchedErr(); err != nil {
		return err
	}
	return kv.ErrClosed
}

// dead reports whether the client can no longer make progress.
func (c *Client) dead() bool {
	return c.closed.Load() || c.latchedErr() != nil
}

// enqueue submits a call to the shared op queue. The read-lock excludes
// the channel close in Close, so a racing send can never panic; a call
// stranded in the queue after a fatal error is failed by a draining
// sender. A call too large for one frame is refused here: shipped, the
// server would drop the connection and so latch the whole client.
func (c *Client) enqueue(cl *call) error {
	if n := cl.frameBytes(); n > DefaultMaxFrameBytes {
		return fmt.Errorf("%w: request of %d bytes (limit %d)", ErrFrameTooLarge, n, DefaultMaxFrameBytes)
	}
	c.qmu.RLock()
	defer c.qmu.RUnlock()
	if c.closed.Load() {
		return kv.ErrClosed
	}
	if err := c.latchedErr(); err != nil {
		return err
	}
	c.opq <- cl
	return nil
}

// do runs one point op to completion.
func (c *Client) do(kind byte, key, val []byte) (*call, error) {
	cl := &call{kind: kind, key: key, val: val, done: make(chan struct{})}
	if err := c.enqueue(cl); err != nil {
		return nil, err
	}
	<-cl.done
	return cl, cl.err
}

// doRequest runs one standalone request to completion.
func (c *Client) doRequest(opcode byte, payload []byte) ([]byte, error) {
	cl := &call{opcode: opcode, payload: payload, done: make(chan struct{})}
	if err := c.enqueue(cl); err != nil {
		return nil, err
	}
	<-cl.done
	return cl.resp, cl.err
}

// Get implements kv.Reader.
func (c *Client) Get(key []byte) ([]byte, error) {
	cl, err := c.do(kindGet, key, nil)
	if err != nil {
		return nil, err
	}
	if !cl.found {
		return nil, kv.ErrNotFound
	}
	return cl.value, nil
}

// Has implements kv.Reader.
func (c *Client) Has(key []byte) (bool, error) {
	cl, err := c.do(kindHas, key, nil)
	if err != nil {
		return false, err
	}
	return cl.found, nil
}

// Put implements kv.Writer.
func (c *Client) Put(key, value []byte) error {
	_, err := c.do(kindPut, key, value)
	return err
}

// Delete implements kv.Writer.
func (c *Client) Delete(key []byte) error {
	_, err := c.do(kindDelete, key, nil)
	return err
}

// Stats implements kv.StatsProvider by fetching the server-side store's
// counters. A dead client reports zeros.
func (c *Client) Stats() kv.Stats {
	resp, err := c.doRequest(opStats, nil)
	if err != nil {
		return kv.Stats{}
	}
	r := &payloadReader{b: resp}
	blob := r.Bytes()
	if r.Err() != nil {
		return kv.Stats{}
	}
	var stats kv.Stats
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&stats); err != nil {
		return kv.Stats{}
	}
	return stats
}

// NetStats returns the client's transport counters.
func (c *Client) NetStats() NetStats {
	return NetStats{
		FramesSent: c.frames.Load(),
		OpFrames:   c.opFrames.Load(),
		OpsSent:    c.ops.Load(),
		BytesSent:  c.bytesOut.Load(),
		BytesRecv:  c.bytesIn.Load(),
	}
}

// Close implements kv.Store. In-flight operations fail with kv.ErrClosed;
// the remote store stays open (the server owns it).
func (c *Client) Close() error {
	c.qmu.Lock()
	if c.closed.Swap(true) {
		c.qmu.Unlock()
		return nil
	}
	close(c.opq)
	c.qmu.Unlock()
	for _, cc := range c.conns {
		cc.nc.Close()
	}
	c.wg.Wait()
	return nil
}

// NewBatch implements kv.Batcher. The batch commits as one atomic frame.
func (c *Client) NewBatch() kv.Batch {
	return &netBatch{client: c}
}

// NewIterator implements kv.Iterable by paging: each page is one opScan
// request, sent at the first Next and whenever a page runs out. An open or
// page failure is reported through the iterator's Error, matching the local
// backends' corrupt-scan behaviour.
func (c *Client) NewIterator(prefix, start []byte) kv.Iterator {
	return &netIterator{client: c, prefix: bytes.Clone(prefix), start: bytes.Clone(start)}
}

// inflight is one request frame awaiting its response.
type inflight struct {
	calls      []*call // point ops, in frame order (nil for standalone)
	standalone *call
}

func (fl *inflight) fail(err error) {
	if fl.standalone != nil {
		fl.standalone.finish(err)
	}
	for _, cl := range fl.calls {
		cl.finish(err)
	}
}

// clientConn is one pool connection, alive as long as the client: the
// socket, its in-flight window, and the waiters keyed by request ID. A
// reader and a sender goroutine share it. It is fail-stop: the first I/O
// or protocol error latches the client and tears every connection down;
// nothing reconnects.
type clientConn struct {
	client *Client
	nc     net.Conn
	sem    chan struct{} // in-flight window slots

	down     chan struct{} // closed when the connection is torn down
	downOnce sync.Once

	mu      sync.Mutex
	nextID  uint64
	waiters map[uint64]*inflight
}

// fail latches err client-wide — unless the client is closing, when err
// is only the teardown — and tears this connection down, failing every
// waiter with the client's death error. In-flight ops die with the
// connection rather than being re-shipped: the server may have executed
// them, and completing an op twice is worse than failing it once.
func (cc *clientConn) fail(err error) {
	c := cc.client
	if !c.closed.Load() {
		c.fail(err)
	}
	// Close down before the abort, so a racing ship can detect that this
	// abort missed its waiter.
	cc.downOnce.Do(func() { close(cc.down) })
	cc.abort(c.deathErr())
}

// abort fails every waiter on this connection with err.
func (cc *clientConn) abort(err error) {
	cc.mu.Lock()
	waiters := cc.waiters
	cc.waiters = make(map[uint64]*inflight)
	cc.mu.Unlock()
	for _, fl := range waiters {
		fl.fail(err)
	}
}

// sendLoop owns the socket's write side: it pulls calls off the shared
// queue, coalesces point ops up to the batch caps, and writes frames
// subject to the in-flight window. Coalescing is self-clocking: the window
// slot is acquired BEFORE the queue is drained, so while the window is
// saturated callers pile into the queue, and the freed slot ships the
// whole accumulation as one frame. Concurrency alone drives batch size —
// no timer sits on the hot path. Once the client is dead the loop keeps
// draining the queue, failing each call, so enqueuers never block; it
// returns when Close closes the queue.
func (cc *clientConn) sendLoop() {
	c := cc.client
	bw := newFrameWriter(cc.nc)
	var held *call
	for {
		first := held
		held = nil
		if first == nil {
			var ok bool
			if first, ok = <-c.opq; !ok {
				return
			}
		}
		if c.dead() {
			first.finish(c.deathErr())
			continue
		}
		// Acquire the window slot before forming the batch: this is
		// where a saturated window blocks, letting the op queue fill.
		select {
		case cc.sem <- struct{}{}: // released by readLoop
		case <-cc.down: // reader gone; nothing will ever free a slot
			first.finish(c.deathErr())
			continue
		}
		if first.opcode != 0 {
			cc.ship(bw, nil, first)
			continue
		}
		var batch []*call
		batch, held = cc.drain(first)
		cc.ship(bw, batch, nil)
	}
}

// drain forms a batch from first plus whatever the queue holds, without
// blocking, stopping at the batch caps, a call that is standalone or would
// push the frame past its size limit (returned as held), or queue closure.
func (cc *clientConn) drain(first *call) (batch []*call, held *call) {
	c := cc.client
	o := c.opts
	batch = []*call{first}
	size := pointOpSize(first)
	for len(batch) < o.BatchMaxOps && size < batchMaxBytes {
		select {
		case cl, ok := <-c.opq:
			if !ok {
				return batch, nil
			}
			if cl.opcode != 0 || opsFrameOverhead+size+pointOpSize(cl) > DefaultMaxFrameBytes {
				return batch, cl
			}
			batch = append(batch, cl)
			size += pointOpSize(cl)
		default:
			return batch, nil
		}
	}
	return batch, nil
}

// pointOpSize bounds an op's encoded size: its kind byte and two length
// prefixes fit in 12 bytes for any op small enough to send.
func pointOpSize(cl *call) int {
	return 12 + len(cl.key) + len(cl.val)
}

// ship encodes and writes one frame (either a coalesced point-op batch or
// a standalone request). The caller has already acquired a window slot.
func (cc *clientConn) ship(bw *bufio.Writer, batch []*call, standalone *call) {
	c := cc.client
	cc.mu.Lock()
	cc.nextID++
	id := cc.nextID
	cc.waiters[id] = &inflight{calls: batch, standalone: standalone}
	cc.mu.Unlock()

	body := make([]byte, 0, 512)
	body = binary.LittleEndian.AppendUint64(body, id)
	if standalone != nil {
		body = append(body, standalone.opcode)
		body = append(body, standalone.payload...)
	} else {
		body = append(body, opOps)
		body = appendUvarint(body, uint64(len(batch)))
		for _, cl := range batch {
			body = append(body, cl.kind)
			body = appendBytes(body, cl.key)
			if cl.kind == kindPut {
				body = appendBytes(body, cl.val)
			}
		}
		c.opFrames.Add(1)
		c.ops.Add(uint64(len(batch)))
	}
	c.frames.Add(1)
	c.bytesOut.Add(uint64(len(body)))

	err := writeFrame(bw, body)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		cc.fail(fmt.Errorf("kvnet: write: %w", err))
		return
	}
	// The reader may have exited between our waiter registration and now
	// (its final abort ran too early to see this frame). Every reader exit
	// path closes down before its final abort, so if down is still open
	// here the reader is guaranteed to see this waiter; if it is closed,
	// abort ourselves. abort swaps the waiter map, so a waiter is failed
	// at most once even when both sides race into it.
	select {
	case <-cc.down:
		cc.abort(c.deathErr())
	default:
	}
}

// readLoop owns the socket's read side: it matches response frames to
// waiters by reqID and decodes per-op results. Every exit goes through
// fail.
func (cc *clientConn) readLoop() {
	c := cc.client
	br := bufio.NewReaderSize(cc.nc, 256<<10)
	for {
		body, err := readFrame(br)
		if err != nil {
			if err == io.EOF {
				cc.fail(errors.New("kvnet: server closed the connection"))
			} else {
				cc.fail(fmt.Errorf("kvnet: read: %w", err))
			}
			return
		}
		c.bytesIn.Add(uint64(len(body)))

		r := &payloadReader{b: body}
		id := r.U64()
		status := r.U8()
		if r.Err() != nil {
			cc.fail(fmt.Errorf("%w: short response header", ErrBadPayload))
			return
		}
		cc.mu.Lock()
		fl, ok := cc.waiters[id]
		delete(cc.waiters, id)
		cc.mu.Unlock()
		if !ok {
			cc.fail(fmt.Errorf("%w: response for unknown request %d", ErrBadPayload, id))
			return
		}
		<-cc.sem // release window slot

		if status == statusError {
			msg := r.Bytes()
			if r.Err() != nil {
				cc.fail(fmt.Errorf("%w: error response", ErrBadPayload))
				return
			}
			fl.fail(errors.New("kvnet: server: " + string(msg)))
			continue
		}
		if fl.standalone != nil {
			fl.standalone.resp = body[r.off:]
			fl.standalone.finish(nil)
			continue
		}
		if err := decodeOpsResponse(r, fl.calls); err != nil {
			// fl was already unregistered above, so fail's abort
			// cannot reach it — fail its calls explicitly.
			fl.fail(err)
			cc.fail(err)
			return
		}
	}
}

// decodeOpsResponse delivers per-op results to the calls of one coalesced
// frame. A count mismatch — the wire-level version of a silently short
// batch — is a protocol error, never a partial delivery. The whole frame
// is decoded before any call is finished, so a mid-frame decode failure
// leaves every call unfinished for the caller to fail exactly once.
func decodeOpsResponse(r *payloadReader, calls []*call) error {
	n := r.Uvarint()
	if r.Err() != nil || n != uint64(len(calls)) {
		return fmt.Errorf("%w: ops response carries %d results, want %d", ErrBadPayload, n, len(calls))
	}
	perOp := make([]error, len(calls))
	for i, cl := range calls {
		rc := r.U8()
		switch rc {
		case rcOK:
			switch cl.kind {
			case kindGet:
				v := r.Bytes()
				if r.Err() != nil {
					return fmt.Errorf("%w: get result", ErrBadPayload)
				}
				cl.found = true
				cl.value = append([]byte(nil), v...)
			case kindHas:
				cl.found = r.U8() == 1
			}
			if r.Err() != nil {
				return fmt.Errorf("%w: op result", ErrBadPayload)
			}
		case rcNotFound:
			cl.found = false
		case rcError:
			msg := r.Bytes()
			if r.Err() != nil {
				return fmt.Errorf("%w: op error result", ErrBadPayload)
			}
			perOp[i] = errors.New("kvnet: server: " + string(msg))
		default:
			return fmt.Errorf("%w: op result code %d", ErrBadPayload, rc)
		}
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in ops response", ErrBadPayload, r.Remaining())
	}
	for i, cl := range calls {
		cl.finish(perOp[i])
	}
	return nil
}

// netBatch implements kv.Batch; Write ships one atomic frame.
type netBatch struct {
	kv.OpBatch
	client *Client
}

func (b *netBatch) Write() error {
	payload := make([]byte, 0, b.ValueSize()+16*len(b.Ops)+8)
	payload = appendUvarint(payload, uint64(len(b.Ops)))
	for _, op := range b.Ops {
		if op.Delete {
			payload = append(payload, kindDelete)
			payload = appendBytes(payload, op.Key)
			continue
		}
		payload = append(payload, kindPut)
		payload = appendBytes(payload, op.Key)
		payload = appendBytes(payload, op.Value)
	}
	_, err := b.client.doRequest(opAtomic, payload)
	return err
}

// netIterator pages a scan, one stateless request per page. A server-side
// iterator error latches here exactly like a local corrupt-scan error: Next()
// goes false and Error() reports it — never a clean-looking short scan.
type netIterator struct {
	client        *Client
	prefix, start []byte // the scan; start moves past each page

	page     [][2][]byte // decoded (key, value) pairs of the current page
	pos      int
	done     bool // the final page has arrived, or the scan failed or was released
	err      error
	key, val []byte
}

func (it *netIterator) Next() bool {
	for it.pos >= len(it.page) {
		if it.done {
			return false
		}
		it.fetch()
	}
	it.key = it.page[it.pos][0]
	it.val = it.page[it.pos][1]
	it.pos++
	return true
}

// fetch replaces it.page with the page that begins at it.start.
func (it *netIterator) fetch() {
	it.page, it.pos = it.page[:0], 0
	payload := appendBytes(nil, it.prefix)
	payload = appendBytes(payload, it.start)
	payload = appendUvarint(payload, iterPageOps)
	resp, err := it.client.doRequest(opScan, payload)
	if err == nil {
		err = it.decodePage(resp)
	}
	if err != nil {
		it.page = it.page[:0]
		it.err, it.done = err, true
	}
}

// decodePage decodes one page into it.page and moves it.start past it. A
// page that is not final must move the scan forward — hold at least one key
// of the scan at or past start — or a broken server could make Next ask for
// the same page forever. Entries before a server-side error are delivered.
func (it *netIterator) decodePage(resp []byte) error {
	r := &payloadReader{b: resp}
	done := r.U8() == 1
	if r.U8() == 1 {
		if msg := r.Bytes(); r.Err() == nil {
			it.err, done = errors.New("kvnet: server iterator: "+string(msg)), true
		}
	}
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		k, v := r.Bytes(), r.Bytes()
		it.page = append(it.page, [2][]byte{k, v})
	}
	if r.Err() != nil {
		return fmt.Errorf("%w: scan page", ErrBadPayload)
	}
	it.done = done
	if done {
		return nil
	}
	if len(it.page) == 0 {
		return fmt.Errorf("%w: empty scan page that is not the last", ErrBadPayload)
	}
	last := it.page[len(it.page)-1][0]
	if !bytes.HasPrefix(last, it.prefix) || bytes.Compare(last[len(it.prefix):], it.start) < 0 {
		return fmt.Errorf("%w: scan page ends at %q, before the page began", ErrBadPayload, last)
	}
	it.start = append(append(it.start[:0], last[len(it.prefix):]...), 0)
	return nil
}

func (it *netIterator) Key() []byte   { return it.key }
func (it *netIterator) Value() []byte { return it.val }
func (it *netIterator) Error() error  { return it.err }

// Release drops the current page. The server holds nothing for the scan,
// so there is nothing to send.
func (it *netIterator) Release() {
	it.page, it.pos, it.done = nil, 0, true
}
