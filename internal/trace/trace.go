// Package trace captures KV operation streams at the store interface — the
// instrumentation point the paper uses in its modified Geth client — and
// persists them in a compact binary format suitable for billions of ops.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"ethkv/internal/rawdb"
)

// OpType enumerates the five operation kinds the paper distinguishes.
type OpType uint8

// Operation kinds. A write to an existing key is recorded as OpUpdate,
// matching the paper's write/update split ("we classify a write as an
// update if it is issued to an existing key").
const (
	OpRead OpType = iota
	OpWrite
	OpUpdate
	OpDelete
	OpScan
)

// opNames renders OpType for reports.
var opNames = [...]string{"read", "write", "update", "delete", "scan"}

func (t OpType) String() string {
	if int(t) < len(opNames) {
		return opNames[t]
	}
	return fmt.Sprintf("op(%d)", uint8(t))
}

// Op is one traced KV operation.
type Op struct {
	Seq       uint64      // position in the trace
	Type      OpType      // operation kind
	Class     rawdb.Class // storage class of the key
	Key       []byte      // full key
	ValueSize uint32      // value bytes moved (0 for deletes/misses)
	// Hit marks a read served without reaching the store (a cache hit).
	// Store never sets it: this program's caches sit above the tracer.
	// Trace files recorded elsewhere may.
	Hit bool
}

// Writer streams ops to an io.Writer in the binary trace format:
//
//	type u8 | class u8 | flags u8 | keyLen uvarint | key | valueSize uvarint
//
// Seq is implicit (record ordinal).
type Writer struct {
	w     *bufio.Writer
	c     io.Closer
	count uint64
}

// NewWriter wraps w; if w is also an io.Closer, Close closes it.
func NewWriter(w io.Writer) *Writer {
	tw := &Writer{w: bufio.NewWriterSize(w, 1<<20)}
	if c, ok := w.(io.Closer); ok {
		tw.c = c
	}
	return tw
}

// Create opens a trace file for writing.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewWriter(f), nil
}

// Append records one operation.
func (w *Writer) Append(op Op) error {
	var head [3]byte
	head[0] = byte(op.Type)
	head[1] = byte(op.Class)
	if op.Hit {
		head[2] = 1
	}
	if _, err := w.w.Write(head[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(op.Key)))
	if _, err := w.w.Write(buf[:n]); err != nil {
		return err
	}
	if _, err := w.w.Write(op.Key); err != nil {
		return err
	}
	n = binary.PutUvarint(buf[:], uint64(op.ValueSize))
	if _, err := w.w.Write(buf[:n]); err != nil {
		return err
	}
	w.count++
	return nil
}

// Close flushes buffered records and closes the underlying file if owned.
func (w *Writer) Close() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.c != nil {
		return w.c.Close()
	}
	return nil
}

// Reader streams ops back from a trace.
type Reader struct {
	r   *bufio.Reader
	c   io.Closer
	seq uint64
	// batchOffs is NextBatch's reusable key-offset scratch.
	batchOffs []int
}

// NewReader wraps r; if r is also an io.Closer, Close closes it.
func NewReader(r io.Reader) *Reader {
	tr := &Reader{r: bufio.NewReaderSize(r, 1<<20)}
	if c, ok := r.(io.Closer); ok {
		tr.c = c
	}
	return tr
}

// OpenFile opens a trace file for reading.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return NewReader(f), nil
}

// Next returns the next op, or io.EOF at the end of the trace.
func (r *Reader) Next() (Op, error) {
	var head [3]byte
	if _, err := io.ReadFull(r.r, head[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Op{}, io.EOF
		}
		return Op{}, err
	}
	keyLen, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Op{}, err
	}
	if keyLen > 1<<20 {
		return Op{}, fmt.Errorf("trace: implausible key length %d", keyLen)
	}
	key := make([]byte, keyLen)
	if _, err := io.ReadFull(r.r, key); err != nil {
		return Op{}, err
	}
	valSize, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Op{}, err
	}
	op := Op{
		Seq:       r.seq,
		Type:      OpType(head[0]),
		Class:     rawdb.Class(head[1]),
		Key:       key,
		ValueSize: uint32(valSize),
		Hit:       head[2]&1 != 0,
	}
	r.seq++
	return op, nil
}

// NextBatch fills dst with up to len(dst) ops and returns how many were
// read. All key slices point into one arena allocated per call — one
// allocation per batch rather than one per op — and remain valid after
// subsequent calls. At the end of the trace it returns (0, io.EOF); a
// short batch ending exactly at EOF returns (n, nil) first.
//
// NextBatch is the bulk-read path; Next is its per-op reference.
func (r *Reader) NextBatch(dst []Op) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	// Decode records with key offsets first: the arena may move while it
	// grows, so keys are re-sliced only once its final size is known.
	if cap(r.batchOffs) < len(dst)+1 {
		r.batchOffs = make([]int, 0, len(dst)+1)
	}
	offs := r.batchOffs[:0]
	arena := make([]byte, 0, len(dst)*48)
	n := 0
	var err error
	for n < len(dst) {
		var head [3]byte
		if _, herr := io.ReadFull(r.r, head[:]); herr != nil {
			if errors.Is(herr, io.EOF) || errors.Is(herr, io.ErrUnexpectedEOF) {
				err = io.EOF
			} else {
				err = herr
			}
			break
		}
		keyLen, kerr := binary.ReadUvarint(r.r)
		if kerr != nil {
			err = kerr
			break
		}
		if keyLen > 1<<20 {
			err = fmt.Errorf("trace: implausible key length %d", keyLen)
			break
		}
		off := len(arena)
		need := off + int(keyLen)
		if need > cap(arena) {
			bigger := make([]byte, off, max(need, 2*cap(arena)))
			copy(bigger, arena)
			arena = bigger
		}
		arena = arena[:need]
		if _, rerr := io.ReadFull(r.r, arena[off:]); rerr != nil {
			err = rerr
			break
		}
		valSize, verr := binary.ReadUvarint(r.r)
		if verr != nil {
			err = verr
			break
		}
		offs = append(offs, off)
		dst[n] = Op{
			Seq:       r.seq,
			Type:      OpType(head[0]),
			Class:     rawdb.Class(head[1]),
			ValueSize: uint32(valSize),
			Hit:       head[2]&1 != 0,
		}
		r.seq++
		n++
	}
	offs = append(offs, len(arena))
	r.batchOffs = offs
	for i := 0; i < n; i++ {
		dst[i].Key = arena[offs[i]:offs[i+1]:offs[i+1]]
	}
	if n > 0 && errors.Is(err, io.EOF) {
		return n, nil
	}
	return n, err
}

// Close closes the underlying file if owned.
func (r *Reader) Close() error {
	if r.c != nil {
		return r.c.Close()
	}
	return nil
}
