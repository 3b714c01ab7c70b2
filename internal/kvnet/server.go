package kvnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"ethkv/internal/kv"
	"ethkv/internal/obs"
)

// connWorkers is the number of request-executing goroutines per connection.
// Coalesced frames from one client are already a unit of parallelism-free
// work, so a handful of workers per connection is enough to overlap store
// latency with decode/encode.
const connWorkers = 4

// ServerOptions tunes a Server.
type ServerOptions struct {
	// Registry receives server metrics (per-op latency histograms,
	// batch-size histogram, frame/byte counters). Nil disables export;
	// the server still runs.
	Registry *obs.Registry
	// Logf logs connection-fatal protocol errors. Default log.Printf;
	// tests silence it.
	Logf func(format string, args ...any)
}

func (o *ServerOptions) withDefaults() ServerOptions {
	v := *o
	if v.Logf == nil {
		v.Logf = log.Printf
	}
	return v
}

// iterPageBytes caps the payload of one iterator page.
const iterPageBytes = 1 << 20

// serverMetrics is the hot-path metric handle bundle, resolved once.
type serverMetrics struct {
	frames       *obs.Counter   // request frames handled
	bytesIn      *obs.Counter   // request body bytes
	bytesOut     *obs.Counter   // response body bytes
	coalescedOps *obs.Counter   // ops arriving in frames carrying ≥2 ops
	batchOps     *obs.Histogram // ops per opOps frame
	conns        *obs.Gauge     // live connections
	opLat        [4]*obs.Histogram
	scanLat      *obs.Histogram // iterator page fetches
	atomicLat    *obs.Histogram // atomic batch commits
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	if r == nil {
		// A private registry keeps the hot path branch-free; nothing
		// reads it, and obs metrics are cheap atomics.
		r = obs.NewRegistry()
	}
	m := &serverMetrics{
		frames:       r.Counter("ethkv_server_frames_total"),
		bytesIn:      r.Counter("ethkv_server_bytes_in_total"),
		bytesOut:     r.Counter("ethkv_server_bytes_out_total"),
		coalescedOps: r.Counter("ethkv_server_coalesced_ops_total"),
		batchOps:     r.Histogram("ethkv_server_batch_ops"),
		conns:        r.Gauge("ethkv_server_connections"),
	}
	for kind, op := range map[int]string{kindGet: "get", kindHas: "has", kindPut: "put", kindDelete: "delete"} {
		m.opLat[kind] = r.Histogram(obs.Name("ethkv_server_op_latency_ns", "op", op))
	}
	m.scanLat = r.Histogram(obs.Name("ethkv_server_op_latency_ns", "op", "scan"))
	m.atomicLat = r.Histogram(obs.Name("ethkv_server_op_latency_ns", "op", "batch"))
	return m
}

// Server serves a kv.Store over the kvnet wire protocol. One Server may
// serve many connections; each connection gets a frame-reader goroutine, a
// pool of worker goroutines executing requests against the store, and a
// response-writer goroutine that coalesces adjacent responses into one
// buffered flush.
type Server struct {
	store   kv.Store
	opts    ServerOptions
	metrics *serverMetrics

	// Iterators are registered server-wide, not per connection: a client
	// multiplexing one logical store over several TCP connections may
	// open an iterator through one connection and page it through
	// another. Each handle remembers its owning connection so connection
	// teardown still releases everything that connection opened.
	itersMu sync.Mutex
	iters   map[uint64]*iterHandle
	iterSeq uint64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// NewServer returns a Server fronting store.
func NewServer(store kv.Store, opts ServerOptions) *Server {
	o := opts.withDefaults()
	return &Server{
		store:     store,
		opts:      o,
		metrics:   newServerMetrics(o.Registry),
		iters:     make(map[uint64]*iterHandle),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Listen starts accepting on addr in a background goroutine and returns
// the bound address (useful with a ":0" port).
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Serve accepts connections on l until l is closed or the server shuts
// down. It returns nil on server shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return kv.ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()

	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			delete(s.listeners, l)
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live connection, and waits for the
// per-connection goroutines to drain. The backing store is not closed;
// the caller owns it.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// iterHandle is one open server-side iterator. Pages for the same iterator
// serialize on mu; distinct iterators proceed in parallel across workers.
// released guards against a close racing a final page: whichever side wins
// releases the backend iterator exactly once.
type iterHandle struct {
	mu       sync.Mutex
	it       kv.Iterator
	owner    *connState
	released bool
}

// release releases the backend iterator exactly once.
func (h *iterHandle) release() {
	h.mu.Lock()
	if !h.released {
		h.released = true
		h.it.Release()
	}
	h.mu.Unlock()
}

// registerIter assigns a server-wide ID to a fresh iterator and records st
// as its owner for teardown.
func (s *Server) registerIter(st *connState, it kv.Iterator) uint64 {
	h := &iterHandle{it: it, owner: st}
	s.itersMu.Lock()
	s.iterSeq++
	id := s.iterSeq
	s.iters[id] = h
	st.owned[id] = struct{}{}
	s.itersMu.Unlock()
	return id
}

// lookupIter returns the handle for id, or nil if unknown.
func (s *Server) lookupIter(id uint64) *iterHandle {
	s.itersMu.Lock()
	h := s.iters[id]
	s.itersMu.Unlock()
	return h
}

// takeIter removes id from the registry and its owner's set, returning the
// handle (nil if already gone). Exactly one caller wins a racing take.
func (s *Server) takeIter(id uint64) *iterHandle {
	s.itersMu.Lock()
	h := s.iters[id]
	if h != nil {
		delete(s.iters, id)
		delete(h.owner.owned, id)
	}
	s.itersMu.Unlock()
	return h
}

// releaseConnIters releases every iterator st still owns. Called on
// connection teardown so a dead client cannot strand backend iterators.
func (s *Server) releaseConnIters(st *connState) {
	s.itersMu.Lock()
	hs := make([]*iterHandle, 0, len(st.owned))
	for id := range st.owned {
		if h := s.iters[id]; h != nil {
			hs = append(hs, h)
			delete(s.iters, id)
		}
		delete(st.owned, id)
	}
	s.itersMu.Unlock()
	for _, h := range hs {
		h.release()
	}
}

// serveConn runs one connection to completion.
func (s *Server) serveConn(c net.Conn) {
	m := s.metrics
	m.conns.Add(1)
	defer m.conns.Add(-1)
	defer c.Close()

	br := bufio.NewReaderSize(c, 256<<10)
	if err := readHandshake(br); err != nil {
		s.opts.Logf("kvnet: %s: %v", c.RemoteAddr(), err)
		return
	}

	st := &connState{owned: make(map[uint64]struct{})}
	// Release any iterators still open when the connection dies.
	defer s.releaseConnIters(st)

	work := make(chan []byte, connWorkers*2)
	out := make(chan []byte, connWorkers*4)

	var workers sync.WaitGroup
	for i := 0; i < connWorkers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for body := range work {
				resp, err := s.handle(st, body)
				if err != nil {
					// Protocol violation: the stream can't be
					// trusted. Kill the connection; in-flight
					// frames fail with it.
					s.opts.Logf("kvnet: %s: %v", c.RemoteAddr(), err)
					c.Close()
					continue
				}
				out <- resp
			}
		}()
	}
	// Writer: drain out, coalescing adjacent responses into one flush.
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		bw := newFrameWriter(c)
		for body := range out {
			m.bytesOut.Add(uint64(len(body)))
			if err := writeFrame(bw, body); err != nil {
				c.Close()
				continue
			}
			// Opportunistically fold queued responses into this flush.
			for {
				select {
				case more, ok := <-out:
					if !ok {
						bw.Flush()
						return
					}
					m.bytesOut.Add(uint64(len(more)))
					if err := writeFrame(bw, more); err != nil {
						c.Close()
					}
					continue
				default:
				}
				break
			}
			if err := bw.Flush(); err != nil {
				c.Close()
			}
		}
	}()

	for {
		body, err := readFrame(br)
		if err != nil {
			// A clean EOF is the client hanging up; anything else —
			// truncation, CRC mismatch, oversized length — is a
			// protocol error worth logging before the teardown, unless
			// it is just our own Close tearing the socket down.
			s.mu.Lock()
			closing := s.closed
			s.mu.Unlock()
			if err != io.EOF && !closing {
				s.opts.Logf("kvnet: %s: %v", c.RemoteAddr(), err)
			}
			break
		}
		m.frames.Inc()
		m.bytesIn.Add(uint64(len(body)))
		work <- body
	}
	close(work)
	workers.Wait()
	close(out)
	writer.Wait()
}

// connState is per-connection request-independent state: the set of
// iterator IDs this connection opened, guarded by the server's itersMu.
type connState struct {
	owned map[uint64]struct{}
}

// handle executes one decoded request frame and returns the encoded
// response body. A non-nil error is a protocol violation fatal to the
// connection; store-level failures are encoded into the response instead.
func (s *Server) handle(st *connState, body []byte) ([]byte, error) {
	r := &payloadReader{b: body}
	reqID := r.U64()
	opcode := r.U8()
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: short request header", ErrBadPayload)
	}

	resp := make([]byte, 0, 256)
	resp = binary.LittleEndian.AppendUint64(resp, reqID)
	resp = append(resp, statusOK)

	fail := func(err error) []byte {
		resp = resp[:8]
		resp = append(resp, statusError)
		return appendBytes(resp, []byte(err.Error()))
	}

	switch opcode {
	case opOps:
		return s.handleOps(r, resp)
	case opAtomic:
		start := time.Now()
		b := s.store.NewBatch()
		n := r.Uvarint()
		for i := uint64(0); i < n; i++ {
			kind := r.U8()
			key := r.Bytes()
			switch kind {
			case kindPut:
				val := r.Bytes()
				if r.Err() == nil {
					b.Put(key, val)
				}
			case kindDelete:
				if r.Err() == nil {
					b.Delete(key)
				}
			default:
				return nil, fmt.Errorf("%w: atomic batch kind %d", ErrBadPayload, kind)
			}
			if r.Err() != nil {
				return nil, fmt.Errorf("%w: atomic batch entry", ErrBadPayload)
			}
		}
		if err := b.Write(); err != nil {
			return fail(err), nil
		}
		s.metrics.atomicLat.Observe(uint64(time.Since(start)))
		return resp, nil
	case opIterOpen:
		prefix := r.Bytes()
		startKey := r.Bytes()
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: iter open", ErrBadPayload)
		}
		it := s.store.NewIterator(cloneBytes(prefix), cloneBytes(startKey))
		id := s.registerIter(st, it)
		return binary.LittleEndian.AppendUint64(resp, id), nil
	case opIterNext:
		id := r.U64()
		max := r.Uvarint()
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: iter next", ErrBadPayload)
		}
		h := s.lookupIter(id)
		if h == nil {
			// Paging an iterator the server does not know is a broken
			// client, not an empty scan: answering with a clean done
			// page would be exactly the silent truncation the protocol
			// exists to prevent.
			return fail(fmt.Errorf("kvnet: unknown iterator %d", id)), nil
		}
		return s.handleIterNext(h, id, resp, int(max)), nil
	case opIterClose:
		id := r.U64()
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: iter close", ErrBadPayload)
		}
		// Close is idempotent: the server may already have auto-released
		// the iterator on exhaustion or error.
		if h := s.takeIter(id); h != nil {
			h.release()
		}
		return resp, nil
	case opStats:
		var stats kv.Stats
		if sp, ok := s.store.(kv.StatsProvider); ok {
			stats = sp.Stats()
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(stats); err != nil {
			return fail(err), nil
		}
		return appendBytes(resp, buf.Bytes()), nil
	case opPing:
		return resp, nil
	default:
		return nil, fmt.Errorf("%w: unknown opcode %d", ErrBadPayload, opcode)
	}
}

// handleOps executes a coalesced batch of point operations in order.
// Per-op failures are encoded per op; the frame itself always succeeds
// unless malformed.
func (s *Server) handleOps(r *payloadReader, resp []byte) ([]byte, error) {
	m := s.metrics
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: ops count", ErrBadPayload)
	}
	m.batchOps.Observe(n)
	if n >= 2 {
		m.coalescedOps.Add(n)
	}
	resp = appendUvarint(resp, n)
	for i := uint64(0); i < n; i++ {
		kind := r.U8()
		key := r.Bytes()
		var val []byte
		if kind == kindPut {
			val = r.Bytes()
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: op %d/%d", ErrBadPayload, i, n)
		}
		start := time.Now()
		switch kind {
		case kindGet:
			v, err := s.store.Get(key)
			switch {
			case err == nil:
				resp = append(resp, rcOK)
				resp = appendBytes(resp, v)
			case errors.Is(err, kv.ErrNotFound):
				resp = append(resp, rcNotFound)
			default:
				resp = append(resp, rcError)
				resp = appendBytes(resp, []byte(err.Error()))
			}
		case kindHas:
			ok, err := s.store.Has(key)
			if err != nil {
				resp = append(resp, rcError)
				resp = appendBytes(resp, []byte(err.Error()))
			} else {
				resp = append(resp, rcOK)
				if ok {
					resp = append(resp, 1)
				} else {
					resp = append(resp, 0)
				}
			}
		case kindPut:
			if err := s.store.Put(key, val); err != nil {
				resp = append(resp, rcError)
				resp = appendBytes(resp, []byte(err.Error()))
			} else {
				resp = append(resp, rcOK)
			}
		case kindDelete:
			if err := s.store.Delete(key); err != nil {
				resp = append(resp, rcError)
				resp = appendBytes(resp, []byte(err.Error()))
			} else {
				resp = append(resp, rcOK)
			}
		default:
			return nil, fmt.Errorf("%w: op kind %d", ErrBadPayload, kind)
		}
		m.opLat[kind].Observe(uint64(time.Since(start)))
	}
	return resp, nil
}

// handleIterNext pages one open iterator. A page ends at max entries, the
// byte budget, or iterator exhaustion; exhaustion (or an iterator error)
// releases the iterator server-side — the client's explicit close then
// becomes a no-op.
func (s *Server) handleIterNext(h *iterHandle, id uint64, resp []byte, max int) []byte {
	start := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.released {
		// A concurrent close won the race for this handle; the backend
		// iterator is gone, so report it as a scan error, not an empty page.
		resp = append(resp, 1, 1) // done, error
		resp = appendBytes(resp, []byte("kvnet: iterator released during page fetch"))
		return appendUvarint(resp, 0)
	}

	if max <= 0 {
		max = 1
	}
	// Reserve space for flags; entries appended after.
	entries := make([]byte, 0, 4<<10)
	count := 0
	done := false
	for count < max && len(entries) < iterPageBytes {
		if !h.it.Next() {
			done = true
			break
		}
		entries = appendBytes(entries, h.it.Key())
		entries = appendBytes(entries, h.it.Value())
		count++
	}
	var iterErr error
	if done {
		iterErr = h.it.Error()
		h.released = true
		h.it.Release()
		s.takeIter(id)
	}
	s.metrics.scanLat.Observe(uint64(time.Since(start)))

	if done {
		resp = append(resp, 1)
	} else {
		resp = append(resp, 0)
	}
	if iterErr != nil {
		resp = append(resp, 1)
		resp = appendBytes(resp, []byte(iterErr.Error()))
	} else {
		resp = append(resp, 0)
	}
	resp = appendUvarint(resp, uint64(count))
	return append(resp, entries...)
}

func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
