package analysis

import (
	"errors"
	"fmt"
	"testing"

	"ethkv/internal/kv"
	"ethkv/internal/kv/kvtest"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

func hash(b byte) rawdb.Hash {
	var h rawdb.Hash
	for i := range h {
		h[i] = b
	}
	return h
}

func TestCollectSizeDist(t *testing.T) {
	store := kv.NewMemStore()
	defer store.Close()
	// Three classes of known sizes.
	for i := 0; i < 10; i++ {
		rawdb.WriteSnapshotAccount(store, hash(byte(i)), make([]byte, 16))
	}
	for i := 0; i < 5; i++ {
		rawdb.WriteTxLookup(store, hash(byte(i+100)), 20500000)
	}
	store.Put(rawdb.LastBlockKey(), make([]byte, 32))
	store.Put([]byte("not-a-schema-key"), []byte("x"))

	dist, err := CollectSizeDist(store)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Total != 16 {
		t.Fatalf("Total = %d, want 16", dist.Total)
	}
	if dist.Unknown != 1 {
		t.Fatalf("Unknown = %d, want 1", dist.Unknown)
	}
	sa := dist.PerClass[rawdb.ClassSnapshotAccount]
	if sa.Pairs != 10 || sa.MeanKeySize() != 33 || sa.MeanValueSize() != 16 {
		t.Fatalf("SnapshotAccount: %+v", sa)
	}
	tx := dist.PerClass[rawdb.ClassTxLookup]
	if tx.Pairs != 5 || tx.MeanValueSize() != 4 {
		t.Fatalf("TxLookup: pairs=%d mean=%f", tx.Pairs, tx.MeanValueSize())
	}
	if dist.SingletonClasses() != 1 {
		t.Fatalf("singletons = %d", dist.SingletonClasses())
	}
	if got := dist.Share(rawdb.ClassSnapshotAccount); got != 10.0/16 {
		t.Fatalf("Share = %v", got)
	}
	// Classes ordered by pair count.
	classes := dist.Classes()
	if classes[0] != rawdb.ClassSnapshotAccount {
		t.Fatalf("first class = %v", classes[0])
	}
	// Value size series is sorted.
	series := dist.ValueSizeSeries(rawdb.ClassSnapshotAccount)
	if len(series) != 1 || series[0].Size != 16 || series[0].Count != 10 {
		t.Fatalf("series = %+v", series)
	}
}

func mkOp(t trace.OpType, class rawdb.Class, key string) trace.Op {
	return trace.Op{Type: t, Class: class, Key: []byte(key), ValueSize: 10}
}

func TestOpDistCounts(t *testing.T) {
	ops := []trace.Op{
		mkOp(trace.OpWrite, rawdb.ClassTxLookup, "t1"),
		mkOp(trace.OpDelete, rawdb.ClassTxLookup, "t1"),
		mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, "a1"),
		mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, "a1"),
		mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, "a2"),
		mkOp(trace.OpUpdate, rawdb.ClassTrieNodeAccount, "a1"),
		mkOp(trace.OpScan, rawdb.ClassSnapshotStorage, "o"),
		{Type: trace.OpRead, Class: rawdb.ClassCode, Key: []byte("c1"), Hit: true}, // cache hit: skipped
	}
	d := CollectOpDistSlice(ops, nil)
	if d.Total != 7 {
		t.Fatalf("Total = %d, want 7 (hit excluded)", d.Total)
	}
	tx := d.PerClass[rawdb.ClassTxLookup]
	if tx.Writes != 1 || tx.Deletes != 1 {
		t.Fatalf("TxLookup: %+v", tx)
	}
	ta := d.PerClass[rawdb.ClassTrieNodeAccount]
	if ta.Reads != 3 || ta.Updates != 1 {
		t.Fatalf("TrieNodeAccount: %+v", ta)
	}
	if ta.ReadFreq["a1"] != 2 || ta.ReadFreq["a2"] != 1 {
		t.Fatalf("ReadFreq: %+v", ta.ReadFreq)
	}
	if got := d.Share(rawdb.ClassTrieNodeAccount); got != 4.0/7 {
		t.Fatalf("Share = %v", got)
	}
	scans := d.ScanningClasses()
	if len(scans) != 1 || scans[0] != rawdb.ClassSnapshotStorage {
		t.Fatalf("ScanningClasses = %v", scans)
	}
	if d.KeyBytes != 13 || d.ValueBytes != 70 || ta.ValueBytes != 40 {
		t.Fatalf("bytes: keys %d values %d, TrieNodeAccount values %d", d.KeyBytes, d.ValueBytes, ta.ValueBytes)
	}

	// An untracked census keeps every counter and no per-key map.
	u := CollectOpDistSlice(ops, []rawdb.Class{})
	for class, co := range d.PerClass {
		uo := u.PerClass[class]
		if uo.ReadFreq != nil || uo.WriteFreq != nil || uo.DeleteFreq != nil {
			t.Fatalf("untracked census keeps per-key maps for %v", class)
		}
		if uo.Reads != co.Reads || uo.Writes != co.Writes || uo.Updates != co.Updates ||
			uo.Deletes != co.Deletes || uo.Scans != co.Scans || uo.ValueBytes != co.ValueBytes {
			t.Fatalf("%v: untracked %+v, tracked %+v", class, uo, co)
		}
	}
	if u.Total != d.Total || u.KeyBytes != d.KeyBytes || u.ValueBytes != d.ValueBytes {
		t.Fatalf("untracked totals %d/%d/%d", u.Total, u.KeyBytes, u.ValueBytes)
	}
}

func TestFrequencyHelpers(t *testing.T) {
	freq := map[string]uint32{"a": 1, "b": 1, "c": 3, "d": 1}
	points := FrequencyDistribution(freq)
	if len(points) != 2 || points[0].Freq != 1 || points[0].Keys != 3 ||
		points[1].Freq != 3 || points[1].Keys != 1 {
		t.Fatalf("points = %+v", points)
	}
	if got := ReadOnceShare(freq); got != 0.75 {
		t.Fatalf("ReadOnceShare = %v", got)
	}
	if got := MultiDeleteKeys(map[string]uint32{"x": 2, "y": 1}); got != 1 {
		t.Fatalf("MultiDeleteKeys = %d", got)
	}
	if ReadOnceShare(nil) != 0 {
		t.Fatal("empty ReadOnceShare")
	}
}

func TestReadRatio(t *testing.T) {
	ops := []trace.Op{
		mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, "a1"),
		mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, "a1"),
		mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, "a2"),
	}
	d := CollectOpDistSlice(ops, nil)
	// 2 distinct keys read out of a 20-pair class: 10%.
	if got := d.ReadRatio(rawdb.ClassTrieNodeAccount, 20); got != 0.1 {
		t.Fatalf("ReadRatio = %v", got)
	}
	if d.ReadRatio(rawdb.ClassCode, 100) != 0 {
		t.Fatal("untracked class should have zero ratio")
	}
}

// TestCorrelatorAdjacent verifies distance-zero counting with the
// at-least-twice rule.
func TestCorrelatorAdjacent(t *testing.T) {
	c := NewCorrelator(trace.OpRead)
	// Stream: A B A B A B -> pair (A,B) adjacent 5 times.
	for i := 0; i < 3; i++ {
		c.Observe(mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, "A"))
		c.Observe(mkOp(trace.OpRead, rawdb.ClassTrieNodeStorage, "B"))
	}
	pair := MakeClassPair(rawdb.ClassTrieNodeAccount, rawdb.ClassTrieNodeStorage)
	if got := c.Counts(0, pair); got != 5 {
		t.Fatalf("d=0 count = %d, want 5", got)
	}
	// At distance 2 (two ops between): pairs (0,3), (1,4), (2,5) — index
	// separation 3 is odd, so partners alternate A-B again: 3 occurrences.
	if got := c.Counts(2, pair); got != 3 {
		t.Fatalf("d=2 count = %d, want 3", got)
	}
	if c.TrackedOps() != 6 {
		t.Fatalf("TrackedOps = %d", c.TrackedOps())
	}
}

// TestCorrelatorMinTwoRule: a pair seen once must not count.
func TestCorrelatorMinTwoRule(t *testing.T) {
	c := NewCorrelator(trace.OpRead)
	c.Observe(mkOp(trace.OpRead, rawdb.ClassCode, "X"))
	c.Observe(mkOp(trace.OpRead, rawdb.ClassCode, "Y"))
	pair := MakeClassPair(rawdb.ClassCode, rawdb.ClassCode)
	if got := c.Counts(0, pair); got != 0 {
		t.Fatalf("single occurrence counted: %d", got)
	}
	// Second occurrence of the same key pair: both retroactively count.
	c.Observe(mkOp(trace.OpRead, rawdb.ClassCode, "X"))
	c.Observe(mkOp(trace.OpRead, rawdb.ClassCode, "Y"))
	// Stream X Y X Y: adjacent pairs (X,Y), (Y,X), (X,Y) -> all same
	// unordered pair, count 3 >= 2 -> all 3 count.
	if got := c.Counts(0, pair); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
}

// TestCorrelatorSketchPath counts a distance between NearDistance and
// FarDistance exactly (a saturating sketch once stood in there).
func TestCorrelatorSketchPath(t *testing.T) {
	c := NewCorrelator(trace.OpRead)
	// Stream A z B repeated four times: A z B A z B A z B A z B.
	for i := 0; i < 4; i++ {
		c.Observe(mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, "A"))
		c.Observe(mkOp(trace.OpRead, rawdb.ClassCode, "z"))
		c.Observe(mkOp(trace.OpRead, rawdb.ClassTrieNodeStorage, "B"))
	}
	pair := MakeClassPair(rawdb.ClassTrieNodeAccount, rawdb.ClassTrieNodeStorage)
	// (A, B) one op apart: once per repetition, four occurrences >= 2.
	if got := c.Counts(1, pair); got != 4 {
		t.Fatalf("d=1 count = %d, want 4", got)
	}
}

func TestCorrelatorSameKeyExcluded(t *testing.T) {
	c := NewCorrelator(trace.OpRead)
	for i := 0; i < 10; i++ {
		c.Observe(mkOp(trace.OpRead, rawdb.ClassCode, "same"))
	}
	pair := MakeClassPair(rawdb.ClassCode, rawdb.ClassCode)
	if got := c.Counts(0, pair); got != 0 {
		t.Fatalf("same-key repeats counted as pairs: %d", got)
	}
}

func TestCorrelatorUpdateFilter(t *testing.T) {
	c := NewCorrelator(trace.OpUpdate)
	// Reads must be ignored entirely.
	for i := 0; i < 4; i++ {
		c.Observe(mkOp(trace.OpRead, rawdb.ClassLastFast, "LF"))
		c.Observe(mkOp(trace.OpUpdate, rawdb.ClassLastFast, "LF"))
		c.Observe(mkOp(trace.OpUpdate, rawdb.ClassLastHeader, "LH"))
	}
	if c.TrackedOps() != 8 {
		t.Fatalf("TrackedOps = %d, want 8", c.TrackedOps())
	}
	pair := MakeClassPair(rawdb.ClassLastFast, rawdb.ClassLastHeader)
	if got := c.Counts(0, pair); got == 0 {
		t.Fatal("meta-singleton update pair not counted")
	}
}

func TestTopPairsAndFrequency(t *testing.T) {
	c := NewCorrelator(trace.OpRead)
	// Hot intra pair: A1-A2 x10; weak cross pair: A1-B1 x2.
	for i := 0; i < 10; i++ {
		c.Observe(mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, "A1"))
		c.Observe(mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, "A2"))
	}
	c.Observe(mkOp(trace.OpRead, rawdb.ClassTrieNodeStorage, "B1"))
	c.Observe(mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, "A1"))
	c.Observe(mkOp(trace.OpRead, rawdb.ClassTrieNodeStorage, "B1"))

	intra := c.TopPairs(0, 3, true)
	if len(intra) == 0 || intra[0].Pair != MakeClassPair(rawdb.ClassTrieNodeAccount, rawdb.ClassTrieNodeAccount) {
		t.Fatalf("top intra = %+v", intra)
	}
	cross := c.TopPairs(0, 3, false)
	if len(cross) == 0 || cross[0].Pair.Intra() {
		t.Fatalf("top cross = %+v", cross)
	}
	// Frequency distribution for the intra pair.
	points := c.FrequencyDistribution(0, intra[0].Pair)
	if len(points) == 0 {
		t.Fatal("no frequency points for hot pair")
	}
	if f := c.MaxPairFrequency(0, intra[0].Pair); f < 10 {
		t.Fatalf("max frequency = %d, want >=10", f)
	}
}

func TestCompare(t *testing.T) {
	bare := CollectOpDistSlice([]trace.Op{
		mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, "a"),
		mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, "b"),
		mkOp(trace.OpRead, rawdb.ClassTrieNodeStorage, "c"),
		mkOp(trace.OpRead, rawdb.ClassTrieNodeStorage, "d"),
		mkOp(trace.OpUpdate, rawdb.ClassTrieNodeAccount, "a"),
		mkOp(trace.OpUpdate, rawdb.ClassTrieNodeAccount, "b"),
	}, nil)
	cached := CollectOpDistSlice([]trace.Op{
		mkOp(trace.OpRead, rawdb.ClassSnapshotAccount, "s"),
		mkOp(trace.OpUpdate, rawdb.ClassTrieNodeAccount, "a"),
	}, nil)
	bareStore := &SizeDist{Total: 100}
	cachedStore := &SizeDist{Total: 160}
	cmp := Compare(bare, cached, bareStore, cachedStore)
	if got := cmp.ReadReduction(); got != 0.75 {
		t.Fatalf("ReadReduction = %v, want 0.75", got)
	}
	if got := cmp.WorldStateWriteReduction(); got != 0.5 {
		t.Fatalf("WorldStateWriteReduction = %v", got)
	}
	if got := cmp.StorageOverhead(); got < 0.59 || got > 0.61 {
		t.Fatalf("StorageOverhead = %v, want 0.6", got)
	}
	if got := cmp.TrieReadReduction(); got != 1.0 {
		t.Fatalf("TrieReadReduction = %v", got)
	}
}

func TestClassPair(t *testing.T) {
	p := MakeClassPair(rawdb.ClassTrieNodeAccount, rawdb.ClassTrieNodeStorage)
	q := MakeClassPair(rawdb.ClassTrieNodeStorage, rawdb.ClassTrieNodeAccount)
	if p != q || p.A > p.B {
		t.Fatal("pair not normalized")
	}
	if !MakeClassPair(rawdb.ClassCode, rawdb.ClassCode).Intra() {
		t.Fatal("Intra")
	}
	if p.Intra() {
		t.Fatal("cross pair reported intra")
	}
	if p.String() == "" {
		t.Fatal("String")
	}
}

func TestCorrelatorDistanceSemantics(t *testing.T) {
	// Stream of distinct keys k0..k9; at d=4 (four ops between) the
	// partner of k6 is k1, five positions back.
	c := NewCorrelator(trace.OpRead)
	observe := func() {
		for i := 0; i < 10; i++ {
			class := rawdb.ClassCode
			if i%5 == 1 { // k1 and k6 are TrieNodeAccount
				class = rawdb.ClassTrieNodeAccount
			}
			c.Observe(mkOp(trace.OpRead, class, fmt.Sprintf("k%d", i)))
		}
	}
	observe()
	// Pairs at d=4: (k0,k5),(k1,k6),...,(k4,k9). (k1,k6) is the one TA-TA
	// pair, but it has occurred once -> min-2 excludes it.
	pair := MakeClassPair(rawdb.ClassTrieNodeAccount, rawdb.ClassTrieNodeAccount)
	if got := c.Counts(4, pair); got != 0 {
		t.Fatalf("once-seen pairs counted: %d", got)
	}
	// Repeat the stream: positions 1-6, 6-11 and 11-16 all pair k1 with
	// k6, so it occurs three times and all three count. A partner taken
	// one position off (separation 4 or 6) never pairs two TA keys.
	observe()
	if got := c.Counts(4, pair); got != 3 {
		t.Fatalf("d=4 TA-TA count = %d, want 3", got)
	}
}

// TestCollectFromTraceFile exercises the file-streaming entry points end to
// end (the path the command-line tools take).
func TestCollectFromTraceFile(t *testing.T) {
	path := t.TempDir() + "/trace.bin"
	w, err := trace.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		w.Append(trace.Op{
			Type:  trace.OpType(i % 5),
			Class: rawdb.Class(i%5 + 1),
			Key:   []byte(fmt.Sprintf("key-%d", i%97)),
		})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := CollectOpDist(r, nil)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dist.Total != 2000 {
		t.Fatalf("streamed census total = %d", dist.Total)
	}

	r2, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := CollectCorrelations(r2, trace.OpRead)
	r2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if corr.TrackedOps() != 400 { // every 5th op is a read
		t.Fatalf("tracked %d reads", corr.TrackedOps())
	}
}

// TestSketchMatchesExactOnSmallStream: at every distance the correlator's
// count must equal a brute-force min-2 count over the same stream (a
// saturating sketch once stood in between NearDistance and FarDistance).
func TestSketchMatchesExactOnSmallStream(t *testing.T) {
	classes := []rawdb.Class{rawdb.ClassCode, rawdb.ClassTrieNodeAccount, rawdb.ClassTrieNodeStorage}
	var ops []trace.Op
	// Rounds of 10-13 keys: the stream repeats every 46 ops, a period no
	// distance+1 divides, so every distance sees distinct key pairs.
	for round := 0; round < 100; round++ {
		for i := 0; i < 10+round%4; i++ {
			ops = append(ops, mkOp(trace.OpRead, classes[i%3], fmt.Sprintf("k%d", i)))
		}
	}
	c := NewCorrelator(trace.OpRead)
	for _, op := range ops {
		c.Observe(op)
	}
	type keyPair struct{ lo, hi string }
	for _, d := range Distances() {
		// Brute force: occurrences of each unordered key pair d ops apart,
		// then the min-2 rule per class pair.
		occur := map[keyPair]uint64{}
		classOf := map[keyPair]ClassPair{}
		for i := d + 1; i < len(ops); i++ {
			a, b := string(ops[i-d-1].Key), string(ops[i].Key)
			if a == b {
				continue
			}
			kp := keyPair{a, b}
			if a > b {
				kp = keyPair{b, a}
			}
			occur[kp]++
			classOf[kp] = MakeClassPair(ops[i-d-1].Class, ops[i].Class)
		}
		want := map[ClassPair]uint64{}
		maxFreq := map[ClassPair]uint64{}
		for kp, n := range occur {
			if n >= 2 {
				want[classOf[kp]] += n
				maxFreq[classOf[kp]] = max(maxFreq[classOf[kp]], n)
			}
		}
		if len(want) == 0 {
			t.Fatalf("stream has no correlated pairs at d=%d", d)
		}
		for _, a := range classes {
			for _, b := range classes {
				cp := MakeClassPair(a, b)
				if got := c.Counts(d, cp); got != want[cp] {
					t.Fatalf("d=%d count for %v = %d, want %d", d, cp, got, want[cp])
				}
				if got := c.MaxPairFrequency(d, cp); got != maxFreq[cp] {
					t.Fatalf("d=%d max pair frequency for %v = %d, want %d", d, cp, got, maxFreq[cp])
				}
			}
		}
	}
}

// TestCheckFindingsSyntheticInput: the checker runs over handcrafted
// censuses without panicking and reports all 11 findings.
func TestCheckFindingsSyntheticInput(t *testing.T) {
	mk := func(n int) []trace.Op {
		var ops []trace.Op
		for i := 0; i < n; i++ {
			ops = append(ops, mkOp(trace.OpRead, rawdb.ClassTrieNodeAccount, fmt.Sprintf("a%d", i%7)))
			ops = append(ops, mkOp(trace.OpUpdate, rawdb.ClassTrieNodeStorage, fmt.Sprintf("s%d", i%5)))
		}
		return ops
	}
	emptyStore := &SizeDist{PerClass: map[rawdb.Class]*ClassSize{}, Total: 1}
	input := BuildFindingsInput(mk(50), mk(200), emptyStore, emptyStore)
	findings := CheckFindings(input)
	if len(findings) != 11 {
		t.Fatalf("%d findings", len(findings))
	}
	for i, f := range findings {
		if f.ID != i+1 {
			t.Fatalf("finding %d has ID %d", i, f.ID)
		}
		if f.Title == "" || f.Evidence == "" {
			t.Fatalf("finding %d missing text", f.ID)
		}
	}
}

// TestCollectSizeDistScanError: a store scan that fails part-way must fail
// the census, not return the pairs read before the failure as Table I.
func TestCollectSizeDistScanError(t *testing.T) {
	store := kv.NewMemStore()
	defer store.Close()
	for i := 0; i < 10; i++ {
		rawdb.WriteSnapshotAccount(store, hash(byte(i)), make([]byte, 16))
	}
	boom := errors.New("boom")
	dist, err := CollectSizeDist(kvtest.FailScans(store, 4, boom))
	if !errors.Is(err, boom) {
		t.Fatalf("CollectSizeDist = %+v, %v; want %v", dist, err, boom)
	}
}

func TestTopPairsEdgeCases(t *testing.T) {
	c := NewCorrelator(trace.OpRead)
	if got := c.TopPairs(0, 0, true); len(got) != 0 {
		t.Fatalf("TopPairs(n=0) = %v", got)
	}
	if got := c.TopPairs(0, 5, false); len(got) != 0 {
		t.Fatalf("TopPairs on empty correlator = %v", got)
	}
	// A distance outside Distances() is untracked: nil and 0.
	if got := c.FrequencyDistribution(3, MakeClassPair(rawdb.ClassCode, rawdb.ClassCode)); got != nil {
		t.Fatalf("untracked distance returned %v", got)
	}
	if got := c.MaxPairFrequency(3, MakeClassPair(rawdb.ClassCode, rawdb.ClassCode)); got != 0 {
		t.Fatalf("untracked MaxPairFrequency = %d", got)
	}
}

func TestSizeDistCI(t *testing.T) {
	store := kv.NewMemStore()
	defer store.Close()
	// Two distinct value sizes -> nonzero CI.
	rawdb.WriteSnapshotAccount(store, hash(1), make([]byte, 10))
	rawdb.WriteSnapshotAccount(store, hash(2), make([]byte, 30))
	dist, err := CollectSizeDist(store)
	if err != nil {
		t.Fatal(err)
	}
	cs := dist.PerClass[rawdb.ClassSnapshotAccount]
	if ci := cs.ValueSizeCI95(); ci <= 0 {
		t.Fatalf("value CI = %v, want > 0", ci)
	}
	// Constant key size -> zero CI.
	if ci := cs.KeySizeCI95(); ci != 0 {
		t.Fatalf("key CI = %v, want 0", ci)
	}
	// Single pair -> zero CI by definition.
	one := &ClassSize{Pairs: 1, ValueBytes: 100, ValueSquares: 10000}
	if one.ValueSizeCI95() != 0 {
		t.Fatal("single-sample CI should be 0")
	}
}
