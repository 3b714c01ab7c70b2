package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"ethkv/internal/kv"
	"ethkv/internal/lsm"
	"ethkv/internal/rawdb"
)

// writeTestTrace writes n synthetic ops to a trace file and returns both
// the path and the ops as appended.
func writeTestTrace(t *testing.T, n int) (string, []Op) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	ops := make([]Op, n)
	for i := range ops {
		key := make([]byte, rng.Intn(80))
		rng.Read(key)
		ops[i] = Op{
			Seq:       uint64(i),
			Type:      OpType(rng.Intn(5)),
			Class:     rawdb.Class(rng.Intn(29) + 1),
			Key:       key,
			ValueSize: uint32(rng.Intn(4096)),
			Hit:       rng.Intn(3) == 0,
		}
	}
	path := filepath.Join(t.TempDir(), "trace.bin")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := w.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, ops
}

func requireOpEqual(t *testing.T, i int, got, want Op) {
	t.Helper()
	if got.Seq != want.Seq || got.Type != want.Type || got.Class != want.Class ||
		!bytes.Equal(got.Key, want.Key) || got.ValueSize != want.ValueSize ||
		got.Hit != want.Hit {
		t.Fatalf("op %d mismatch:\ngot  %+v\nwant %+v", i, got, want)
	}
}

func TestNextBatchMatchesNext(t *testing.T) {
	const n = 2003
	path, want := writeTestTrace(t, n)
	// Batch sizes chosen to land mid-record, exactly at EOF, and past it.
	for _, bs := range []int{1, 7, 100, n, n + 50} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			r, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			dst := make([]Op, bs)
			total := 0
			for {
				m, err := r.NextBatch(dst)
				for i := 0; i < m; i++ {
					requireOpEqual(t, total, dst[i], want[total])
					total++
				}
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if m == 0 {
					t.Fatal("NextBatch returned (0, nil)")
				}
			}
			if total != n {
				t.Fatalf("read %d ops, want %d", total, n)
			}
		})
	}
}

func TestNextBatchKeysStayValid(t *testing.T) {
	// Keys from earlier batches must survive later NextBatch calls: each
	// batch gets its own arena.
	path, want := writeTestTrace(t, 500)
	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []Op
	dst := make([]Op, 64)
	for {
		m, err := r.NextBatch(dst)
		got = append(got, dst[:m]...)
		if err != nil {
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("read %d ops, want %d", len(got), len(want))
	}
	for i := range got {
		requireOpEqual(t, i, got[i], want[i])
	}
}

func TestNextBatchEOFSemantics(t *testing.T) {
	path, _ := writeTestTrace(t, 10)
	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dst := make([]Op, 64)
	// Short batch ending exactly at EOF: (10, nil) first.
	n, err := r.NextBatch(dst)
	if n != 10 || err != nil {
		t.Fatalf("first NextBatch = (%d, %v), want (10, nil)", n, err)
	}
	n, err = r.NextBatch(dst)
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("second NextBatch = (%d, %v), want (0, EOF)", n, err)
	}
	// Zero-length dst is a no-op, not EOF.
	if n, err := r.NextBatch(nil); n != 0 || err != nil {
		t.Fatalf("NextBatch(nil) = (%d, %v)", n, err)
	}
}

func TestNextBatchTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(Op{Type: OpRead, Class: rawdb.ClassCode, Key: []byte("abcd")})
	w.Close()
	// Chop the final record mid-key: a truncated head reads as EOF, and a
	// batch holding prior complete records still returns them.
	raw := buf.Bytes()
	r := NewReader(bytes.NewReader(raw[:len(raw)-2]))
	dst := make([]Op, 4)
	n, err := r.NextBatch(dst)
	if n != 0 || err == nil {
		t.Fatalf("NextBatch on truncated record = (%d, %v), want (0, error)", n, err)
	}
}

// failingSink errors on every delivery.
type failingSink struct{ calls int }

var errSinkBroken = errors.New("sink broken")

func (s *failingSink) Append(Op) error { s.calls++; return errSinkBroken }

// TestStoreSinkErrorLatched: a failed delivery does not fail the op, and the
// first sink error is latched for Flush and Close to report.
func TestStoreSinkErrorLatched(t *testing.T) {
	sink := &failingSink{}
	ts := WrapStore(kv.NewMemStore(), sink)
	for i := 0; i < 4; i++ {
		if err := ts.Put([]byte(fmt.Sprintf("key-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if sink.calls != 4 {
		t.Fatalf("sink saw %d deliveries, want one per op (4)", sink.calls)
	}
	if err := ts.Flush(); !errors.Is(err, errSinkBroken) {
		t.Fatalf("Flush = %v, want sink error", err)
	}
	if err := ts.Close(); !errors.Is(err, errSinkBroken) {
		t.Fatalf("Close = %v, want sink error", err)
	}
}

// TestStoreForwardsFlush: kv.Flush through the tracer reaches the traced LSM
// and flushes its memtable.
func TestStoreForwardsFlush(t *testing.T) {
	db, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := WrapStore(db, &SliceSink{})
	if err := ts.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().FlushCount
	if err := kv.Flush(ts); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().FlushCount; got <= before {
		t.Fatalf("FlushCount = %d after kv.Flush, want > %d", got, before)
	}
}

// hasErrStore wraps a store and fails Has, exercising the put
// classification error path.
type hasErrStore struct{ kv.Store }

var errHasBroken = errors.New("has broken")

func (s hasErrStore) Has([]byte) (bool, error) { return false, errHasBroken }

func TestPutClassificationErrorPropagates(t *testing.T) {
	sink := &SliceSink{}
	ts := WrapStore(hasErrStore{kv.NewMemStore()}, sink)
	err := ts.Put([]byte("key"), []byte("v"))
	if !errors.Is(err, errHasBroken) {
		t.Fatalf("Put = %v, want wrapped Has error", err)
	}
	// The op was neither applied nor traced.
	if len(sink.Ops) != 0 {
		t.Fatalf("traced %d ops after failed classification", len(sink.Ops))
	}
	// A key already in the known set skips the probe and succeeds.
	ts2 := WrapStore(kv.NewMemStore(), sink)
	if err := ts2.Put([]byte("key"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}
