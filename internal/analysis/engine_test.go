package analysis

import (
	"bytes"
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
func seqOpDist(ops []trace.Op, track []rawdb.Class, maxKeys int) *OpDist {
	d := NewOpDistLimited(track, maxKeys)
	for _, op := range ops {
		d.Observe(op)
	}
	return d
}

// seqCorrelator is the sequential reference correlation pass.
func seqCorrelator(ops []trace.Op, cfg CorrConfig) *Correlator {
	c := NewCorrelator(cfg)
	for _, op := range ops {
		c.Observe(op)
	}
	return c
}

// requireSameOpDist asserts byte-identical census output.
func requireSameOpDist(t *testing.T, want, got *OpDist) {
	t.Helper()
	if want.Total != got.Total {
		t.Fatalf("Total = %d, want %d", got.Total, want.Total)
	}
	if want.Truncated != got.Truncated {
		t.Fatalf("Truncated = %v, want %v", got.Truncated, want.Truncated)
	}
	if !reflect.DeepEqual(want.PerClass, got.PerClass) {
		t.Fatalf("PerClass diverged:\nwant %+v\ngot  %+v", want.PerClass, got.PerClass)
	}
}

// requireSameCorrelator asserts byte-identical correlation state: the
// aggregate counts, the exact per-pair counters, the ring, and the full
// 16 MiB sketch.
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
	if !reflect.DeepEqual(want.pairCounts, got.pairCounts) {
		t.Fatal("exact pair counts diverged")
	}
	if !bytes.Equal(want.sketch, got.sketch) {
		t.Fatal("sketch diverged")
	}
	// Spot-check the public accessors the reports consume.
	for _, d := range want.distances {
		for _, intra := range []bool{true, false} {
			if !reflect.DeepEqual(want.TopPairs(d, 5, intra), got.TopPairs(d, 5, intra)) {
				t.Fatalf("TopPairs(%d, 5, %v) diverged", d, intra)
			}
		}
	}
	for d, stats := range want.pairCountsByDist {
		classPairs := map[ClassPair]bool{}
		for _, st := range stats {
			classPairs[st.pair] = true
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
	cfgs := []CorrConfig{
		{Op: trace.OpRead},
		{Op: trace.OpUpdate},
		{Op: trace.OpUpdate, IncludeWrites: true},
		{Op: trace.OpRead, Distances: []int{0, 3, 7, 50}, TrackPairsAt: []int{3, 2048}},
	}
	e := newTestEngine(1009)
	hd := e.AddOpDist(nil)
	hcs := make([]*CorrelatorHandle, len(cfgs))
	for i, cfg := range cfgs {
		hcs[i] = e.AddCorrelator(cfg)
	}
	if err := e.RunSlice(ops); err != nil {
		t.Fatal(err)
	}
	requireSameOpDist(t, seqOpDist(ops, nil, 0), hd.Result())
	for i, cfg := range cfgs {
		requireSameCorrelator(t, seqCorrelator(ops, cfg), hcs[i].Result())
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
	if err := w.AppendBatch(ops); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	cfg := CorrConfig{Op: trace.OpRead}
	e := newTestEngine(513)
	hd := e.AddOpDist(nil)
	hc := e.AddCorrelator(cfg)
	if err := e.RunReader(r); err != nil {
		t.Fatal(err)
	}
	requireSameOpDist(t, seqOpDist(ops, nil, 0), hd.Result())
	requireSameCorrelator(t, seqCorrelator(ops, cfg), hc.Result())
}

func TestEngineOpDistTrackedKeyCap(t *testing.T) {
	ops := genOps(20000, 3)
	const cap = 7
	want := seqOpDist(ops, nil, cap)
	if !want.Truncated {
		t.Fatal("test needs a workload that overflows the cap")
	}
	e := newTestEngine(777)
	h := e.AddOpDistLimited(nil, cap)
	if err := e.RunSlice(ops); err != nil {
		t.Fatal(err)
	}
	requireSameOpDist(t, want, h.Result())
}

func TestEngineFindingsEquivalence(t *testing.T) {
	// The findings path fans each trace out to three collectors; the
	// checker output must match a fully sequential build.
	cachedOps := genOps(15000, 4)
	bareOps := genOps(15000, 5)
	store := &SizeDist{PerClass: map[rawdb.Class]*ClassSize{}}

	readCfg := CorrConfig{Op: trace.OpRead}
	updCfg := CorrConfig{Op: trace.OpUpdate}
	want := CheckFindings(&FindingsInput{
		CachedOps: seqOpDist(cachedOps, nil, 0), BareOps: seqOpDist(bareOps, nil, 0),
		CachedStore: store, BareStore: store,
		CachedReadCorr: seqCorrelator(cachedOps, readCfg), BareReadCorr: seqCorrelator(bareOps, readCfg),
		CachedUpdateCorr: seqCorrelator(cachedOps, updCfg), BareUpdateCorr: seqCorrelator(bareOps, updCfg),
	})
	got := CheckFindings(BuildFindingsInput(cachedOps, bareOps, store, store))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("findings diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestCollectWrappersMatchSequential(t *testing.T) {
	ops := genOps(10000, 6)
	requireSameOpDist(t, seqOpDist(ops, nil, 0), CollectOpDistSlice(ops, nil))
	cfg := CorrConfig{Op: trace.OpUpdate, IncludeWrites: true}
	requireSameCorrelator(t, seqCorrelator(ops, cfg), CollectCorrelationsSlice(ops, cfg))
}

func TestEngineEmptyAndTiny(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5} {
		ops := genOps(n, int64(10+n))
		e := newTestEngine(2)
		hd := e.AddOpDist(nil)
		hc := e.AddCorrelator(CorrConfig{Op: trace.OpRead})
		if err := e.RunSlice(ops); err != nil {
			t.Fatal(err)
		}
		requireSameOpDist(t, seqOpDist(ops, nil, 0), hd.Result())
		requireSameCorrelator(t, seqCorrelator(ops, CorrConfig{Op: trace.OpRead}), hc.Result())
	}
}
