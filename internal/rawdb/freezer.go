package rawdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Freezer is the ancient-data store: once blocks pass the finality
// threshold, their headers, bodies, receipts, and canonical hashes migrate
// out of the KV store into immutable append-only flat files — the mechanism
// behind the high BlockHeader/TxLookup deletion rates in Finding 5.
//
// Each kind is one table: a data file of concatenated blobs plus an index
// of (offset, length) rows. Items are keyed by block number and must append
// in order, starting at the table's tail.
type Freezer struct {
	mu     sync.RWMutex
	dir    string
	tables map[string]*freezerTable
	closed bool
}

// The freezer table kinds, matching Geth's ancient store.
const (
	FreezerHeaders  = "headers"
	FreezerBodies   = "bodies"
	FreezerReceipts = "receipts"
	FreezerHashes   = "hashes"
)

// freezerKinds lists every table a Freezer maintains.
var freezerKinds = []string{FreezerHeaders, FreezerBodies, FreezerReceipts, FreezerHashes}

// ErrAncientNotFound is returned for out-of-range ancient reads.
var ErrAncientNotFound = errors.New("rawdb: ancient item not found")

// errOutOfOrder rejects non-contiguous appends.
var errOutOfOrder = errors.New("rawdb: ancient append out of order")

// freezerTable is one kind's data+index pair.
type freezerTable struct {
	data    *os.File
	index   *os.File
	items   uint64 // number of items stored
	first   uint64 // first item number (the tail)
	dataLen int64
}

// OpenFreezer creates or reopens a freezer in dir.
func OpenFreezer(dir string) (*Freezer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &Freezer{dir: dir, tables: make(map[string]*freezerTable)}
	for _, kind := range freezerKinds {
		t, err := openFreezerTable(dir, kind)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.tables[kind] = t
	}
	return f, nil
}

// openFreezerTable opens one table, recovering item count from the index.
func openFreezerTable(dir, kind string) (*freezerTable, error) {
	data, err := os.OpenFile(filepath.Join(dir, kind+".dat"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	index, err := os.OpenFile(filepath.Join(dir, kind+".idx"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		data.Close()
		return nil, err
	}
	ist, err := index.Stat()
	if err != nil {
		data.Close()
		index.Close()
		return nil, err
	}
	dst, err := data.Stat()
	if err != nil {
		data.Close()
		index.Close()
		return nil, err
	}
	t := &freezerTable{data: data, index: index, dataLen: dst.Size()}
	// Index rows are 24 bytes: item number | offset | length. The first row
	// defines the tail.
	rows := ist.Size() / 24
	t.items = uint64(rows)
	if rows > 0 {
		var row [24]byte
		if _, err := index.ReadAt(row[:], 0); err != nil {
			data.Close()
			index.Close()
			return nil, err
		}
		t.first = binary.BigEndian.Uint64(row[0:])
	}
	return t, nil
}

// Append stores item number num of the given kind. Appends must be
// contiguous: num must equal the current head.
func (f *Freezer) Append(kind string, num uint64, blob []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("rawdb: freezer closed")
	}
	t, ok := f.tables[kind]
	if !ok {
		return fmt.Errorf("rawdb: unknown freezer kind %q", kind)
	}
	if t.items > 0 && num != t.first+t.items {
		return fmt.Errorf("%w: have head %d, appending %d", errOutOfOrder, t.first+t.items, num)
	}
	if t.items == 0 {
		t.first = num
	}
	if _, err := t.data.WriteAt(blob, t.dataLen); err != nil {
		return err
	}
	var row [24]byte
	binary.BigEndian.PutUint64(row[0:], num)
	binary.BigEndian.PutUint64(row[8:], uint64(t.dataLen))
	binary.BigEndian.PutUint64(row[16:], uint64(len(blob)))
	if _, err := t.index.WriteAt(row[:], int64(t.items)*24); err != nil {
		return err
	}
	t.dataLen += int64(len(blob))
	t.items++
	return nil
}

// Ancient retrieves item num of the given kind.
func (f *Freezer) Ancient(kind string, num uint64) ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return nil, errors.New("rawdb: freezer closed")
	}
	t, ok := f.tables[kind]
	if !ok {
		return nil, fmt.Errorf("rawdb: unknown freezer kind %q", kind)
	}
	if t.items == 0 || num < t.first || num >= t.first+t.items {
		return nil, ErrAncientNotFound
	}
	var row [24]byte
	if _, err := t.index.ReadAt(row[:], int64(num-t.first)*24); err != nil {
		return nil, err
	}
	offset := binary.BigEndian.Uint64(row[8:])
	length := binary.BigEndian.Uint64(row[16:])
	blob := make([]byte, length)
	if _, err := t.data.ReadAt(blob, int64(offset)); err != nil {
		return nil, err
	}
	return blob, nil
}

// Ancients returns the head item number+1 of the headers table (the
// freezer's logical length, matching Geth's semantics).
func (f *Freezer) Ancients() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	t := f.tables[FreezerHeaders]
	if t == nil || t.items == 0 {
		return 0
	}
	return t.first + t.items
}

// Close releases the table files.
func (f *Freezer) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	var firstErr error
	for _, t := range f.tables {
		if t == nil {
			continue
		}
		if err := t.data.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := t.index.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
