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

// iterPageBytes caps the payload of one scan page.
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
	scanLat      *obs.Histogram // scan pages
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

	work := make(chan []byte, connWorkers*2)
	out := make(chan []byte, connWorkers*4)

	var workers sync.WaitGroup
	for i := 0; i < connWorkers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for body := range work {
				resp, err := s.handle(body)
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

// handle executes one decoded request frame and returns the encoded
// response body. A non-nil error is a protocol violation fatal to the
// connection; store-level failures are encoded into the response instead.
func (s *Server) handle(body []byte) ([]byte, error) {
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
	case opScan:
		prefix := r.Bytes()
		startKey := r.Bytes()
		max := r.Uvarint()
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: scan", ErrBadPayload)
		}
		return s.handleScan(resp, prefix, startKey, max), nil
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

// handleScan answers one page of a scan. It opens a backend iterator at
// prefix+start, fills the page to max entries (at least one) or the byte
// budget, and releases the iterator before answering: nothing a page leaves
// behind outlives the request. An iterator error ends the scan.
func (s *Server) handleScan(resp, prefix, start []byte, max uint64) []byte {
	t0 := time.Now()
	it := s.store.NewIterator(prefix, start)
	entries := make([]byte, 0, 4<<10)
	count := uint64(0)
	done := false
	for (count == 0 || count < max) && len(entries) < iterPageBytes {
		if !it.Next() {
			done = true
			break
		}
		entries = appendBytes(entries, it.Key())
		entries = appendBytes(entries, it.Value())
		count++
	}
	err := it.Error()
	it.Release()
	s.metrics.scanLat.Observe(uint64(time.Since(t0)))

	switch {
	case err != nil:
		resp = appendBytes(append(resp, 1, 1), []byte(err.Error())) // done, error
	case done:
		resp = append(resp, 1, 0)
	default:
		resp = append(resp, 0, 0)
	}
	resp = appendUvarint(resp, count)
	return append(resp, entries...)
}
