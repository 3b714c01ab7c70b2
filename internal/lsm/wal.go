package lsm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"sync"
	"sync/atomic"
	"time"

	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
)

// Write-ahead log format: a sequence of records, each
//
//	crc32(payload) uint32 | payloadLen uint32 | payload
//
// where payload is one of:
//
//	opByte (0=put, 1=delete) | keyLen uvarint | key |
//	    [valueLen uvarint | value]                      (value only for puts)
//	opByte 2 (group) | count uvarint | count sub-ops, each encoded as above
//
// A group record frames one write batch: because the whole batch shares a
// single CRC, a crash replays it all-or-nothing — a torn group drops every
// op in it, never a prefix. Replay stops cleanly at the first torn or
// corrupt record, which models crash recovery: everything before the tear
// is durable.

const (
	walOpPut    = 0
	walOpDelete = 1
	walOpGroup  = 2

	// walFlushThreshold bounds the record buffer before it is written
	// through to the file.
	walFlushThreshold = 1 << 16

	// walHeaderLen is the crc32 + payloadLen prefix of every record.
	walHeaderLen = 8
)

// errWALCorrupt marks a record that fails its checksum; replay treats it as
// the end of the durable prefix.
var errWALCorrupt = errors.New("lsm: corrupt wal record")

// retryPolicy wraps one I/O operation with the store's bounded
// retry-with-backoff policy for transient faults (faultfs.Retry), counting
// retries in retries. The zero policy makes one attempt: readers and writers
// built outside a DB (fuzz and unit constructions) use it. It is a value
// with a method rather than a func so that the closure a caller hands do
// stays on the caller's stack — through a func value it would escape, and
// every block fetch and blob read would allocate it.
type retryPolicy struct{ retries *atomic.Uint64 }

func (r retryPolicy) do(op func() error) error {
	if r.retries == nil {
		return op()
	}
	return faultfs.Retry(r.retries, op)
}

// wal is an append-only write-ahead log, shared by the stages of the commit
// pipeline (commit.go): appends come one at a time, in log order, from
// whoever holds the DB's commit mutex; barriers come from any number of
// committed writers at once, with no DB lock held.
//
// Records accumulate in an internal buffer that is written through on a
// barrier, on close, or when it exceeds walFlushThreshold. The buffer is
// record-aligned and only cleared after a successful write, so a transiently
// failed flush (which has no effect on the file) can be retried wholesale
// without tearing or duplicating records.
//
// A position in the log — an LSN — is the count of bytes appended through
// this handle up to and including a record. One barrier is in flight at a
// time. It covers the bytes that had been handed to the file when its Sync
// was issued, not the bytes there when it returned: what a device does with a
// write that races its flush is its own business. A writer whose LSN a
// completed barrier covers is durable without a device round trip of its own.
type wal struct {
	f     faultfs.File
	retry retryPolicy
	// stats receives the barrier counters (WALSyncs/WALSyncNanos); nil in
	// unit tests that build a bare log.
	stats *dbStats

	// mu guards everything below. It is held across writes of the buffer to
	// the file and never across a Sync.
	mu   sync.Mutex
	cond *sync.Cond // signalled when a barrier completes; L is &mu
	buf  []byte     // records not yet written to f
	// appended is the LSN of the newest record; synced the LSN the newest
	// successful barrier covers. A log with synced == appended holds nothing
	// a barrier could make more durable.
	appended, synced int64
	syncing          bool // a barrier is in flight
	// err latches the first failed write or barrier. A log that failed once
	// is in an unknown state: it takes no more records and issues no more
	// barriers, and everyone waiting on one gets err.
	err error
}

// openWAL opens (creating if needed) the log at path for appending.
func openWAL(fsys faultfs.FS, path string, retry retryPolicy) (*wal, error) {
	var f faultfs.File
	if err := retry.do(func() error {
		var err error
		f, err = fsys.OpenAppend(path)
		return err
	}); err != nil {
		return nil, err
	}
	l := &wal{f: f, retry: retry}
	l.cond = sync.NewCond(&l.mu)
	return l, nil
}

// appendOp encodes one put/delete onto rec.
func appendOp(rec []byte, op kv.Op) []byte {
	if op.Delete {
		rec = append(rec, walOpDelete)
	} else {
		rec = append(rec, walOpPut)
	}
	rec = binary.AppendUvarint(rec, uint64(len(op.Key)))
	rec = append(rec, op.Key...)
	if !op.Delete {
		rec = binary.AppendUvarint(rec, uint64(len(op.Value)))
		rec = append(rec, op.Value...)
	}
	return rec
}

// frameRecord fills in the header reserved at the front of rec — checksum
// and length of the payload that follows it — and returns rec.
func frameRecord(rec []byte) []byte {
	payload := rec[walHeaderLen:]
	binary.LittleEndian.PutUint32(rec[0:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(payload)))
	return rec
}

// encodeRecord returns the framed log record of one put/delete. Encoding
// needs no log state, so writers do it before taking any lock.
func encodeRecord(op kv.Op) []byte {
	rec := make([]byte, walHeaderLen, walHeaderLen+1+2*binary.MaxVarintLen64+len(op.Key)+len(op.Value))
	return frameRecord(appendOp(rec, op))
}

// encodeGroup returns the framed group record of one batch: a single
// checksum over every op, so recovery replays the batch all-or-nothing.
func encodeGroup(ops []kv.Op) []byte {
	size := walHeaderLen + 1 + binary.MaxVarintLen64
	for _, op := range ops {
		size += 1 + 2*binary.MaxVarintLen64 + len(op.Key) + len(op.Value)
	}
	rec := make([]byte, walHeaderLen, size)
	rec = append(rec, walOpGroup)
	rec = binary.AppendUvarint(rec, uint64(len(ops)))
	for _, op := range ops {
		rec = appendOp(rec, op)
	}
	return frameRecord(rec)
}

// append buffers one framed record (encodeRecord/encodeGroup) and returns
// its LSN. The record is not durable until a barrier covers that LSN.
func (l *wal) append(rec []byte) (lsn int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	l.buf = append(l.buf, rec...)
	l.appended += int64(len(rec))
	if len(l.buf) >= walFlushThreshold {
		if err := l.flushBufLocked(); err != nil {
			l.err = err
			return 0, err
		}
	}
	return l.appended, nil
}

// flushBufLocked writes the buffered records through to the file. Only a
// successful write clears the buffer, so retries re-attempt the whole
// record-aligned run. Called with l.mu held.
func (l *wal) flushBufLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if err := l.retry.do(func() error {
		_, err := l.f.Write(l.buf)
		return err
	}); err != nil {
		return err
	}
	l.buf = l.buf[:0]
	return nil
}

// syncTo returns once every record up to lsn is durable. If a completed
// barrier already covers lsn it returns at once, and if one is in flight it
// waits for that one first; shared reports that the caller never went to the
// device itself. Otherwise the caller leads a barrier of its own: everything
// appended so far is written through and the file is synced, on behalf of
// every record in it.
func (l *wal) syncTo(lsn int64) (shared bool, err error) {
	l.mu.Lock()
	for {
		if l.synced >= lsn {
			l.mu.Unlock()
			return true, nil
		}
		if l.err != nil {
			l.mu.Unlock()
			return false, l.err
		}
		if !l.syncing {
			break
		}
		l.cond.Wait()
	}
	l.syncing = true
	err = l.flushBufLocked()
	// The barrier's watermark: what the file holds before Sync is issued. A
	// record appended from here on may reach the file while the device is
	// flushing, and is not this barrier's to vouch for.
	mark := l.appended
	l.mu.Unlock()
	if err == nil {
		start := time.Now()
		err = l.retry.do(l.f.Sync)
		if l.stats != nil {
			l.stats.walSyncs.Add(1)
			l.stats.walSyncNanos.Add(uint64(time.Since(start)))
		}
	}
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		l.err = err
	} else {
		l.synced = mark
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	return false, err
}

// sync makes every record appended so far durable. A log with nothing
// appended since its last successful barrier issues none.
func (l *wal) sync() error {
	l.mu.Lock()
	lsn := l.appended
	l.mu.Unlock()
	_, err := l.syncTo(lsn)
	return err
}

// close makes the log durable and closes it. The sync-before-close is
// load-bearing: rotation closes a generation and then deletes it only
// after its memtable flushes, so every record in a closed generation must
// survive a crash that happens in between. Close errors propagate — a log
// we cannot finish writing is a log we cannot rely on.
func (l *wal) close() error {
	err := l.sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayWAL streams the durable records of the log at path into apply.
func replayWAL(fsys faultfs.FS, path string, apply func(op byte, key, value []byte) error) error {
	f, err := fsys.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return replayWALStream(f, apply)
}

// replayWALStream decodes records from r into apply. Group records replay
// as their constituent ops, in batch order. A torn or corrupt tail
// terminates replay without error: everything before the tear is the
// durable prefix, everything after it never happened.
func replayWALStream(rd io.Reader, apply func(op byte, key, value []byte) error) error {
	r := bufio.NewReaderSize(rd, 1<<16)
	for {
		payload, err := readWALPayload(r)
		if errors.Is(err, io.EOF) || errors.Is(err, errWALCorrupt) ||
			errors.Is(err, io.ErrUnexpectedEOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := applyWALPayload(payload, apply); err != nil {
			if errors.Is(err, errWALCorrupt) {
				return nil
			}
			return err
		}
	}
}

// readWALPayload reads one checksummed record body from r.
func readWALPayload(r *bufio.Reader) ([]byte, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	wantCRC := binary.LittleEndian.Uint32(head[0:])
	plen := binary.LittleEndian.Uint32(head[4:])
	if plen == 0 || plen > 1<<30 {
		return nil, errWALCorrupt
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, errWALCorrupt
	}
	return payload, nil
}

// applyWALPayload dispatches a record body: single ops apply directly,
// groups apply every framed sub-op in order.
func applyWALPayload(payload []byte, apply func(op byte, key, value []byte) error) error {
	if payload[0] != walOpGroup {
		op, key, value, _, err := decodeWALOp(payload)
		if err != nil {
			return err
		}
		return apply(op, key, value)
	}
	rest := payload[1:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return errWALCorrupt
	}
	rest = rest[n:]
	for i := uint64(0); i < count; i++ {
		op, key, value, used, err := decodeWALOp(rest)
		if err != nil {
			return err
		}
		if err := apply(op, key, value); err != nil {
			return err
		}
		rest = rest[used:]
	}
	if len(rest) != 0 {
		return errWALCorrupt
	}
	return nil
}

// decodeWALOp parses one op encoding, returning how many bytes it consumed.
func decodeWALOp(raw []byte) (op byte, key, value []byte, used int, err error) {
	if len(raw) == 0 {
		return 0, nil, nil, 0, errWALCorrupt
	}
	op = raw[0]
	rest := raw[1:]
	klen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < klen {
		return 0, nil, nil, 0, errWALCorrupt
	}
	rest = rest[n:]
	key = rest[:klen]
	rest = rest[klen:]
	used = 1 + n + int(klen)
	if op == walOpPut {
		vlen, vn := binary.Uvarint(rest)
		if vn <= 0 || uint64(len(rest)-vn) < vlen {
			return 0, nil, nil, 0, errWALCorrupt
		}
		value = rest[vn : vn+int(vlen)]
		used += vn + int(vlen)
	} else if op != walOpDelete {
		return 0, nil, nil, 0, fmt.Errorf("%w: unknown op %d", errWALCorrupt, op)
	}
	return op, key, value, used, nil
}
