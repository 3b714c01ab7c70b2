package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
)

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ops := []Op{
		{Type: OpRead, Class: rawdb.ClassTrieNodeAccount, Key: []byte("Akey"), ValueSize: 115},
		{Type: OpWrite, Class: rawdb.ClassTxLookup, Key: nil},
		{Type: OpUpdate, Class: rawdb.ClassSnapshotAccount, Key: []byte("a123"), ValueSize: 16, Hit: false},
		{Type: OpDelete, Class: rawdb.ClassBlockHeader, Key: []byte("h000")},
		{Type: OpScan, Class: rawdb.ClassSnapshotStorage, Key: []byte("o")},
		{Type: OpRead, Class: rawdb.ClassCode, Key: []byte("c456"), ValueSize: 6732, Hit: true},
	}
	for _, op := range ops {
		if err := w.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if w.count != uint64(len(ops)) {
		t.Fatalf("count = %d", w.count)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	for i, want := range ops {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got.Seq != uint64(i) {
			t.Errorf("op %d: seq %d", i, got.Seq)
		}
		if got.Type != want.Type || got.Class != want.Class ||
			!bytes.Equal(got.Key, want.Key) || got.ValueSize != want.ValueSize ||
			got.Hit != want.Hit {
			t.Errorf("op %d mismatch: %+v vs %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("expected EOF")
	}
}

func TestCodecFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.bin")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		w.Append(Op{
			Type:      OpType(i % 5),
			Class:     rawdb.Class(i%29 + 1),
			Key:       []byte(fmt.Sprintf("key-%d", i)),
			ValueSize: uint32(i),
		})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := 0
	for ; ; n++ {
		op, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if op.Seq != uint64(n) {
			t.Fatalf("seq %d at position %d", op.Seq, n)
		}
	}
	if n != 1000 {
		t.Fatalf("read %d ops, want 1000", n)
	}
}

func TestCodecProperty(t *testing.T) {
	f := func(keys [][]byte, types []uint8, sizes []uint32) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		n := len(keys)
		if len(types) < n {
			n = len(types)
		}
		if len(sizes) < n {
			n = len(sizes)
		}
		var want []Op
		for i := 0; i < n; i++ {
			op := Op{
				Type:      OpType(types[i] % 5),
				Class:     rawdb.Class(int(types[i])%29 + 1),
				Key:       keys[i],
				ValueSize: sizes[i],
				Hit:       types[i]%2 == 0,
			}
			w.Append(op)
			want = append(want, op)
		}
		w.Close()
		r := NewReader(&buf)
		for i := 0; i < n; i++ {
			got, err := r.Next()
			if err != nil {
				return false
			}
			if got.Type != want[i].Type || !bytes.Equal(got.Key, want[i].Key) ||
				got.ValueSize != want[i].ValueSize || got.Hit != want[i].Hit {
				return false
			}
		}
		_, err := r.Next()
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTracedStoreOpClassification(t *testing.T) {
	sink := &SliceSink{}
	ts := WrapStore(kv.NewMemStore(), sink)
	defer ts.Close()

	var hash rawdb.Hash
	key := rawdb.TxLookupKey(hash)

	ts.Put(key, []byte("1"))                                     // fresh key -> write
	ts.Put(key, []byte("2"))                                     // existing -> update
	ts.Get(key)                                                  // read
	ts.Delete(key)                                               // delete
	ts.Put(key, []byte("3"))                                     // write again (was deleted)
	it := ts.NewIterator(rawdb.SnapshotStoragePrefix(hash), nil) // scan
	it.Release()

	wantTypes := []OpType{OpWrite, OpUpdate, OpRead, OpDelete, OpWrite, OpScan}
	if len(sink.Ops) != len(wantTypes) {
		t.Fatalf("traced %d ops, want %d", len(sink.Ops), len(wantTypes))
	}
	for i, want := range wantTypes {
		if sink.Ops[i].Type != want {
			t.Errorf("op %d type = %v, want %v", i, sink.Ops[i].Type, want)
		}
	}
	if sink.Ops[0].Class != rawdb.ClassTxLookup {
		t.Errorf("op class = %v", sink.Ops[0].Class)
	}
	if sink.Ops[5].Class != rawdb.ClassSnapshotStorage {
		t.Errorf("scan class = %v", sink.Ops[5].Class)
	}
	if sink.Ops[2].ValueSize != 1 {
		t.Errorf("read value size = %d", sink.Ops[2].ValueSize)
	}
}

// TestTracedStorePreexistingKeyIsUpdate: keys written before tracing began
// must classify as updates (they exist in the store).
func TestTracedStorePreexistingKeyIsUpdate(t *testing.T) {
	inner := kv.NewMemStore()
	inner.Put([]byte("old"), []byte("v"))
	sink := &SliceSink{}
	ts := WrapStore(inner, sink)
	defer ts.Close()
	ts.Put([]byte("old"), []byte("v2"))
	if len(sink.Ops) != 1 || sink.Ops[0].Type != OpUpdate {
		t.Fatalf("pre-existing key write traced as %v", sink.Ops[0].Type)
	}
}

func TestTracedBatchEmitsOnCommit(t *testing.T) {
	sink := &SliceSink{}
	ts := WrapStore(kv.NewMemStore(), sink)
	defer ts.Close()

	b := ts.NewBatch()
	b.Put([]byte("k1"), []byte("v1"))
	b.Delete([]byte("k2"))
	if len(sink.Ops) != 0 {
		t.Fatal("batch ops traced before commit")
	}
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	if len(sink.Ops) != 2 {
		t.Fatalf("traced %d ops after commit", len(sink.Ops))
	}
	if sink.Ops[0].Type != OpWrite || sink.Ops[1].Type != OpDelete {
		t.Fatalf("batch op types: %v, %v", sink.Ops[0].Type, sink.Ops[1].Type)
	}
	if v, err := ts.Get([]byte("k1")); err != nil || string(v) != "v1" {
		t.Fatalf("batch content: %q, %v", v, err)
	}
}

func TestSeqMonotonic(t *testing.T) {
	sink := &SliceSink{}
	ts := WrapStore(kv.NewMemStore(), sink)
	defer ts.Close()
	for i := 0; i < 100; i++ {
		ts.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	for i, op := range sink.Ops {
		if op.Seq != uint64(i) {
			t.Fatalf("seq %d at index %d", op.Seq, i)
		}
	}
	if ts.seq != 100 {
		t.Fatalf("seq = %d", ts.seq)
	}
}

func TestWriterToFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.bin")
	w, _ := Create(path)
	// A 33-byte-key op should encode in ~40 bytes, far below a text format.
	w.Append(Op{Type: OpRead, Class: rawdb.ClassTxLookup, Key: make([]byte, 33), ValueSize: 4})
	w.Close()
	st, _ := os.Stat(path)
	if st.Size() > 45 {
		t.Fatalf("encoded op takes %d bytes", st.Size())
	}
}

func TestTracedStoreHasAndStats(t *testing.T) {
	inner := kv.NewMemStore()
	sink := &SliceSink{}
	ts := WrapStore(inner, sink)
	defer ts.Close()
	ts.Put([]byte("k"), []byte("v"))
	ok, err := ts.Has([]byte("k"))
	if err != nil || !ok {
		t.Fatalf("Has = %v, %v", ok, err)
	}
	// Has is traced as a zero-size read.
	last := sink.Ops[len(sink.Ops)-1]
	if last.Type != OpRead || last.ValueSize != 0 {
		t.Fatalf("Has op: %+v", last)
	}
	if ts.inner != inner {
		t.Fatal("inner")
	}
	// MemStore does not provide stats: zero value returned.
	if st := ts.Stats(); st.Puts != 0 {
		t.Fatalf("Stats over plain store: %+v", st)
	}
	if !IsNotFound(kv.ErrNotFound) || IsNotFound(nil) {
		t.Fatal("IsNotFound")
	}
}

func TestTracedBatchValueSizeResetReplay(t *testing.T) {
	ts := WrapStore(kv.NewMemStore(), &SliceSink{})
	defer ts.Close()
	b := ts.NewBatch()
	b.Put([]byte("abc"), []byte("defg"))
	b.Delete([]byte("xy"))
	if b.ValueSize() != 9 {
		t.Fatalf("ValueSize = %d", b.ValueSize())
	}
	mirror := kv.NewMemStore()
	defer mirror.Close()
	if err := b.Replay(mirror); err != nil {
		t.Fatal(err)
	}
	if v, _ := mirror.Get([]byte("abc")); string(v) != "defg" {
		t.Fatal("replay lost put")
	}
	b.Reset()
	if b.ValueSize() != 0 {
		t.Fatal("Reset")
	}
}

func TestOpTypeString(t *testing.T) {
	want := map[OpType]string{
		OpRead: "read", OpWrite: "write", OpUpdate: "update",
		OpDelete: "delete", OpScan: "scan",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
	if OpType(99).String() != "op(99)" {
		t.Errorf("unknown op string: %q", OpType(99).String())
	}
}

// failingWriter errors after n bytes, for error-path coverage.
type failingWriter struct{ left int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, fmt.Errorf("disk full")
	}
	return n, nil
}

func TestWriterPropagatesIOErrors(t *testing.T) {
	w := NewWriter(&failingWriter{left: 4})
	var err error
	// The bufio layer absorbs writes until it flushes; push enough data.
	for i := 0; i < 100000 && err == nil; i++ {
		err = w.Append(Op{Type: OpRead, Class: rawdb.ClassCode, Key: make([]byte, 64)})
	}
	if err == nil {
		err = w.Close()
	}
	if err == nil {
		t.Fatal("io error never surfaced")
	}
}

func TestReaderRejectsImplausibleKeyLength(t *testing.T) {
	// head(3) + uvarint keyLen=2^30.
	data := []byte{0, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x04}
	r := NewReader(bytes.NewReader(data))
	if _, err := r.Next(); err == nil {
		t.Fatal("implausible key length accepted")
	}
}
