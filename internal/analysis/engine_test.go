package analysis

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// genOps synthesizes a deterministic op stream with hot keys, mixed
// classes, every op type, and a sprinkle of cache hits — the shapes the
// collectors care about.
func genOps(n int, seed int64) []trace.Op {
	rng := rand.New(rand.NewSource(seed))
	classes := []rawdb.Class{
		rawdb.ClassTrieNodeAccount, rawdb.ClassTrieNodeStorage,
		rawdb.ClassSnapshotAccount, rawdb.ClassSnapshotStorage,
		rawdb.ClassTxLookup, rawdb.ClassBlockHeader, rawdb.ClassCode,
	}
	types := []trace.OpType{
		trace.OpRead, trace.OpRead, trace.OpRead, trace.OpRead,
		trace.OpWrite, trace.OpUpdate, trace.OpUpdate, trace.OpDelete,
		trace.OpScan,
	}
	keys := make([][]byte, 1+n/8)
	for i := range keys {
		k := make([]byte, 8+rng.Intn(57))
		rng.Read(k)
		keys[i] = k
	}
	ops := make([]trace.Op, n)
	for i := range ops {
		// Quadratic skew: low indexes repeat often, giving the correlator
		// real pair repetition.
		ki := rng.Intn(len(keys))
		ki = ki * rng.Intn(len(keys)) / len(keys)
		ops[i] = trace.Op{
			Seq:       uint64(i),
			Type:      types[rng.Intn(len(types))],
			Class:     classes[rng.Intn(len(classes))],
			Key:       keys[ki],
			ValueSize: uint32(rng.Intn(512)),
			Hit:       rng.Intn(10) == 0,
		}
	}
	return ops
}

// seqOpDist is the sequential reference census.
func seqOpDist(ops []trace.Op, track []rawdb.Class) *OpDist {
	d := NewOpDist(track)
	for _, op := range ops {
		d.Observe(op)
	}
	return d
}

// seqCorrelator is the sequential reference correlation pass.
func seqCorrelator(ops []trace.Op, op trace.OpType) *Correlator {
	c := NewCorrelator(op)
	for _, op := range ops {
		c.Observe(op)
	}
	return c
}

// requireSameOpDist asserts byte-identical census output.
func requireSameOpDist(t *testing.T, want, got *OpDist) {
	t.Helper()
	if want.Total != got.Total || want.KeyBytes != got.KeyBytes || want.ValueBytes != got.ValueBytes {
		t.Fatalf("totals = (%d, %d, %d), want (%d, %d, %d)",
			got.Total, got.KeyBytes, got.ValueBytes, want.Total, want.KeyBytes, want.ValueBytes)
	}
	if !reflect.DeepEqual(want.PerClass, got.PerClass) {
		t.Fatalf("PerClass diverged:\nwant %+v\ngot  %+v", want.PerClass, got.PerClass)
	}
}

// requireSameCorrelator asserts identical correlation state: the aggregate
// counts, the key ids, the exact per-pair counters at every distance, and
// the ring.
func requireSameCorrelator(t *testing.T, want, got *Correlator) {
	t.Helper()
	if want.pos != got.pos {
		t.Fatalf("tracked ops = %d, want %d", got.pos, want.pos)
	}
	if !reflect.DeepEqual(want.ring, got.ring) {
		t.Fatal("ring state diverged")
	}
	if !reflect.DeepEqual(want.counts, got.counts) {
		t.Fatalf("counts diverged:\nwant %v\ngot  %v", want.counts, got.counts)
	}
	if !reflect.DeepEqual(want.ids, got.ids) || !reflect.DeepEqual(want.pairs, got.pairs) {
		t.Fatal("key ids or exact pair counts diverged")
	}
	// Spot-check the public accessors the reports consume.
	for _, d := range distances {
		for _, intra := range []bool{true, false} {
			if !reflect.DeepEqual(want.TopPairs(d, 5, intra), got.TopPairs(d, 5, intra)) {
				t.Fatalf("TopPairs(%d, 5, %v) diverged", d, intra)
			}
		}
	}
	for i, d := range distances {
		classPairs := map[ClassPair]bool{}
		for _, st := range want.pairs[i] {
			classPairs[st.pair()] = true
		}
		for cp := range classPairs {
			if !reflect.DeepEqual(want.FrequencyDistribution(d, cp), got.FrequencyDistribution(d, cp)) {
				t.Fatalf("FrequencyDistribution(%d, %v) diverged", d, cp)
			}
			if want.MaxPairFrequency(d, cp) != got.MaxPairFrequency(d, cp) {
				t.Fatalf("MaxPairFrequency(%d, %v) diverged", d, cp)
			}
		}
	}
}

// newTestEngine builds an engine cutting batches of batchSize ops, so
// batch boundaries fall at odd offsets of the stream.
func newTestEngine(batchSize int) *Engine {
	e := NewEngine()
	e.batchSize = batchSize
	return e
}

// TestEngineEquivalenceSlice: one engine pass feeding a census and four
// correlators must equal each collector's direct Observe loop.
func TestEngineEquivalenceSlice(t *testing.T) {
	ops := genOps(30000, 1)
	types := []trace.OpType{trace.OpRead, trace.OpUpdate, trace.OpWrite, trace.OpDelete}
	e := newTestEngine(1009)
	hd := e.AddOpDist(nil)
	hcs := make([]*Correlator, len(types))
	for i, typ := range types {
		hcs[i] = e.AddCorrelator(typ)
	}
	if err := e.RunSlice(ops); err != nil {
		t.Fatal(err)
	}
	requireSameOpDist(t, seqOpDist(ops, nil), hd)
	for i, typ := range types {
		requireSameCorrelator(t, seqCorrelator(ops, typ), hcs[i])
	}
}

// TestEngineEquivalenceReader: the same over a trace file, whose batch
// buffers the engine recycles through its pool.
func TestEngineEquivalenceReader(t *testing.T) {
	ops := genOps(20000, 2)
	path := filepath.Join(t.TempDir(), "trace.bin")
	w, err := trace.Create(path)
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
	r, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	e := newTestEngine(513)
	hd := e.AddOpDist(nil)
	hc := e.AddCorrelator(trace.OpRead)
	if err := e.RunReader(r); err != nil {
		t.Fatal(err)
	}
	requireSameOpDist(t, seqOpDist(ops, nil), hd)
	requireSameCorrelator(t, seqCorrelator(ops, trace.OpRead), hc)
}

func TestEngineFindingsEquivalence(t *testing.T) {
	// The findings path fans each trace out to three collectors; the
	// checker output must match a fully sequential build.
	cachedOps := genOps(15000, 4)
	bareOps := genOps(15000, 5)
	store := &SizeDist{PerClass: map[rawdb.Class]*ClassSize{}}

	want := CheckFindings(&FindingsInput{
		CachedOps: seqOpDist(cachedOps, nil), BareOps: seqOpDist(bareOps, nil),
		CachedStore: store, BareStore: store,
		CachedReadCorr: seqCorrelator(cachedOps, trace.OpRead), BareReadCorr: seqCorrelator(bareOps, trace.OpRead),
		CachedUpdateCorr: seqCorrelator(cachedOps, trace.OpUpdate), BareUpdateCorr: seqCorrelator(bareOps, trace.OpUpdate),
	})
	got := CheckFindings(BuildFindingsInput(cachedOps, bareOps, store, store))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("findings diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestCollectWrappersMatchSequential(t *testing.T) {
	ops := genOps(10000, 6)
	requireSameOpDist(t, seqOpDist(ops, nil), CollectOpDistSlice(ops, nil))
	requireSameCorrelator(t, seqCorrelator(ops, trace.OpUpdate), CollectCorrelationsSlice(ops, trace.OpUpdate))
}

func TestEngineEmptyAndTiny(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5} {
		ops := genOps(n, int64(10+n))
		e := newTestEngine(2)
		hd := e.AddOpDist(nil)
		hc := e.AddCorrelator(trace.OpRead)
		if err := e.RunSlice(ops); err != nil {
			t.Fatal(err)
		}
		requireSameOpDist(t, seqOpDist(ops, nil), hd)
		requireSameCorrelator(t, seqCorrelator(ops, trace.OpRead), hc)
	}
}
