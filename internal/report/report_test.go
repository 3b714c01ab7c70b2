package report

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ethkv/internal/analysis"
	"ethkv/internal/kv"
	"ethkv/internal/kv/kvtest"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// buildOps fabricates a small but representative op stream.
func buildOps() []trace.Op {
	var ops []trace.Op
	add := func(t trace.OpType, c rawdb.Class, key string) {
		ops = append(ops, trace.Op{Type: t, Class: c, Key: []byte(key)})
	}
	for i := 0; i < 10; i++ {
		add(trace.OpRead, rawdb.ClassTrieNodeAccount, "a1")
		add(trace.OpRead, rawdb.ClassTrieNodeAccount, "a2")
		add(trace.OpUpdate, rawdb.ClassLastFast, "LF")
		add(trace.OpUpdate, rawdb.ClassLastHeader, "LH")
	}
	add(trace.OpWrite, rawdb.ClassTxLookup, "t1")
	add(trace.OpDelete, rawdb.ClassTxLookup, "t1")
	add(trace.OpScan, rawdb.ClassBlockHeader, "h")
	return ops
}

func buildSizeDist() *analysis.SizeDist {
	return &analysis.SizeDist{
		Total: 120,
		PerClass: map[rawdb.Class]*analysis.ClassSize{
			rawdb.ClassTrieNodeAccount: {
				Class: rawdb.ClassTrieNodeAccount, Pairs: 100,
				KeyBytes: 1850, ValueBytes: 11570,
				KeySizes:   map[int]uint64{18: 50, 19: 50},
				ValueSizes: map[int]uint64{113: 80, 532: 20},
			},
			rawdb.ClassLastBlock: {
				Class: rawdb.ClassLastBlock, Pairs: 1,
				KeyBytes: 9, ValueBytes: 32,
				KeySizes:   map[int]uint64{9: 1},
				ValueSizes: map[int]uint64{32: 1},
			},
			rawdb.ClassCode: {
				Class: rawdb.ClassCode, Pairs: 19,
				KeyBytes: 19 * 33, ValueBytes: 19 * 6700,
				KeySizes:   map[int]uint64{33: 19},
				ValueSizes: map[int]uint64{6700: 19},
			},
		},
	}
}

func TestWriteTable1(t *testing.T) {
	var buf bytes.Buffer
	WriteTable1(&buf, buildSizeDist())
	out := buf.String()
	for _, want := range []string{"TrieNodeAccount", "LastBlock", "total pairs: 120", "singleton classes: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
	// Singleton rows use "-" instead of a percentage.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "LastBlock") && !strings.Contains(line, "-") {
			t.Errorf("singleton row shows a percentage: %s", line)
		}
	}
}

func TestWriteOpTable(t *testing.T) {
	dist := analysis.CollectOpDistSlice(buildOps(), nil)
	var buf bytes.Buffer
	WriteOpTable(&buf, "TestTrace", dist)
	out := buf.String()
	for _, want := range []string{"TestTrace", "TrieNodeAccount", "TxLookup", "total ops: 43"} {
		if !strings.Contains(out, want) {
			t.Errorf("op table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTable4(t *testing.T) {
	dist := analysis.CollectOpDistSlice(buildOps(), nil)
	var buf bytes.Buffer
	WriteTable4(&buf, dist, dist, buildSizeDist(), buildSizeDist())
	out := buf.String()
	if !strings.Contains(out, "TrieNodeAccount") || !strings.Contains(out, "SnapshotStorage") {
		t.Errorf("Table 4 rows missing:\n%s", out)
	}
	// TrieNodeAccount: 2 distinct keys read / 100 pairs = 2%.
	if !strings.Contains(out, "2.00") {
		t.Errorf("Table 4 ratio missing:\n%s", out)
	}
}

func TestWriteFigure2(t *testing.T) {
	var buf bytes.Buffer
	WriteFigure2(&buf, buildSizeDist(), []rawdb.Class{rawdb.ClassTrieNodeAccount, rawdb.ClassSnapshotAccount})
	out := buf.String()
	if !strings.Contains(out, "peak at 113 B") {
		t.Errorf("Figure 2 peak missing:\n%s", out)
	}
	// Absent class silently skipped.
	if strings.Contains(out, "SnapshotAccount") {
		t.Errorf("absent class rendered:\n%s", out)
	}
}

func TestWriteFigure3(t *testing.T) {
	dist := analysis.CollectOpDistSlice(buildOps(), nil)
	var buf bytes.Buffer
	WriteFigure3(&buf, "X", dist)
	out := buf.String()
	if !strings.Contains(out, "TrieNodeAccount") || !strings.Contains(out, "read") {
		t.Errorf("Figure 3 missing rows:\n%s", out)
	}
}

func TestWriteCorrelationAndFrequencyFigures(t *testing.T) {
	corr := analysis.CollectCorrelationsSlice(buildOps(), trace.OpRead)
	var buf bytes.Buffer
	WriteCorrelationFigure(&buf, "reads", corr, 3)
	out := buf.String()
	if !strings.Contains(out, "intra-class") || !strings.Contains(out, "cross-class") {
		t.Errorf("correlation figure sections missing:\n%s", out)
	}
	if !strings.Contains(out, "TrieNodeAccount-TrieNodeAccount") {
		t.Errorf("hot intra pair missing:\n%s", out)
	}

	buf.Reset()
	WriteFrequencyFigure(&buf, "reads", corr, 3)
	if !strings.Contains(buf.String(), "d=0") {
		t.Errorf("frequency figure missing d=0 section:\n%s", buf.String())
	}
}

func TestWriteComparison(t *testing.T) {
	cmp := &analysis.TraceComparison{
		BareReads: 100, CacheReads: 25,
		BareWorldReads: 80, CacheWorldReads: 20,
		BareWorldWrites: 50, CacheWorldWrites: 30,
		BareTrieReads: 60, CacheTrieReads: 10,
		BarePairs: 1000, CachePairs: 1600,
	}
	var buf bytes.Buffer
	WriteComparison(&buf, cmp)
	out := buf.String()
	for _, want := range []string{"-75.0%", "+60.0%", "world-state reads"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFindings(t *testing.T) {
	findings := []analysis.Finding{
		{ID: 1, Title: "holds", Holds: true, Evidence: "yes"},
		{ID: 2, Title: "fails", Holds: false, Evidence: "no"},
	}
	var buf bytes.Buffer
	WriteFindings(&buf, findings)
	out := buf.String()
	if !strings.Contains(out, "[OK  ] Finding  1") || !strings.Contains(out, "[FAIL] Finding  2") {
		t.Errorf("findings marks wrong:\n%s", out)
	}
	if !strings.Contains(out, "1/2 findings reproduce") {
		t.Errorf("summary line wrong:\n%s", out)
	}
}

func TestSampleThinning(t *testing.T) {
	points := make([]analysis.SizePoint, 100)
	for i := range points {
		points[i] = analysis.SizePoint{Size: i, Count: 1}
	}
	thinned := sample(points, 10)
	if len(thinned) > 10 {
		t.Fatalf("sample returned %d points", len(thinned))
	}
	if thinned[0].Size != 0 || thinned[len(thinned)-1].Size != 99 {
		t.Fatalf("sample must keep endpoints: %v", thinned)
	}
	// Short inputs pass through untouched.
	if got := sample(points[:5], 10); len(got) != 5 {
		t.Fatalf("short input thinned: %d", len(got))
	}
}

// TestWriteTraceStat: `ethkvlab stat`'s table counts every op but cache
// hits, sums value bytes per class, and orders tied classes by class, not
// by map order. The expected text pins the table byte for byte.
func TestWriteTraceStat(t *testing.T) {
	ops := []trace.Op{
		{Type: trace.OpRead, Class: rawdb.ClassCode, Key: []byte("c1"), ValueSize: 6000},
		{Type: trace.OpWrite, Class: rawdb.ClassTxLookup, Key: []byte("t1"), ValueSize: 4},
		{Type: trace.OpUpdate, Class: rawdb.ClassCode, Key: []byte("c1"), ValueSize: 6000},
		{Type: trace.OpDelete, Class: rawdb.ClassTxLookup, Key: []byte("t1")},
		{Type: trace.OpScan, Class: rawdb.ClassBlockHeader, Key: []byte("h")},
		{Type: trace.OpRead, Class: rawdb.ClassCode, Key: []byte("c1"), Hit: true},
	}
	d := analysis.CollectOpDistSlice(ops, []rawdb.Class{})
	if code := d.PerClass[rawdb.ClassCode]; code.Reads != 1 || code.Updates != 1 || code.ValueBytes != 12000 {
		t.Fatalf("code row: %+v", code)
	}
	want := `Class                       Reads     Writes    Updates    Deletes    Scans   ValueBytes
TxLookup                        0          1          0          1        0            4
Code                            1          0          1          0        0        12000
BlockHeader                     0          0          0          0        1            0
total ops: 5   data: 0.0 MiB keys + 0.0 MiB values
`
	// Code and TxLookup tie at two ops: row order must not follow map order.
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		WriteTraceStat(&buf, d)
		if buf.String() != want {
			t.Fatalf("stat table:\n%s\nwant:\n%s", buf.String(), want)
		}
	}
}

// countScans counts the iterators opened on a store.
type countScans struct {
	kv.Iterable
	n int
}

func (c *countScans) NewIterator(prefix, start []byte) kv.Iterator {
	c.n++
	return c.Iterable.NewIterator(prefix, start)
}

// censusStore holds three schema pairs and one key outside the schema.
func censusStore(t *testing.T) kv.Store {
	t.Helper()
	store := kv.NewMemStore()
	t.Cleanup(func() { store.Close() })
	for _, key := range [][]byte{rawdb.LastBlockKey(), rawdb.LastHeaderKey(), rawdb.LastFastKey(), []byte("not-a-schema-key")} {
		if err := store.Put(key, make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// TestWriteCensusOneScan: Table I and the content digest come from a
// single scan of the store, and the pair count includes keys outside the
// schema.
func TestWriteCensusOneScan(t *testing.T) {
	store := &countScans{Iterable: censusStore(t)}
	var buf bytes.Buffer
	if err := WriteCensus(&buf, store); err != nil {
		t.Fatal(err)
	}
	if store.n != 1 {
		t.Fatalf("WriteCensus opened %d iterators, want 1", store.n)
	}
	out := buf.String()
	if !strings.Contains(out, "total pairs: 3 ") || !strings.Contains(out, "pairs: 4\nstate digest: ") {
		t.Fatalf("census:\n%s", out)
	}
}

// TestWriteCensusScanError: a scan that fails part-way fails the census
// and writes nothing — no short Table I ahead of the error.
func TestWriteCensusScanError(t *testing.T) {
	boom := errors.New("boom")
	var buf bytes.Buffer
	err := WriteCensus(&buf, kvtest.FailScans(censusStore(t), 2, boom))
	if !errors.Is(err, boom) || buf.Len() != 0 {
		t.Fatalf("WriteCensus = %v after writing:\n%s", err, buf.String())
	}
}
