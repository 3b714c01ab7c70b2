// The benchmark harness regenerates every table and figure in the paper's
// evaluation (experiments E1-E13 of DESIGN.md). Each benchmark prints its
// artifact once and times the analysis pass that produces it. The underlying
// traces are collected once per process and shared.
//
// Run all of it:
//
//	go test -bench=. -benchmem
package ethkv

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ethkv/internal/analysis"
	"ethkv/internal/backends"
	"ethkv/internal/cache"
	"ethkv/internal/chain"
	"ethkv/internal/faultfs"
	"ethkv/internal/flatstore"
	"ethkv/internal/hashstore"
	"ethkv/internal/hybrid"
	"ethkv/internal/kv"
	"ethkv/internal/kvnet"
	"ethkv/internal/lab"
	"ethkv/internal/logstore"
	"ethkv/internal/lsm"
	"ethkv/internal/obs"
	"ethkv/internal/policy"
	"ethkv/internal/rawdb"
	"ethkv/internal/report"
	"ethkv/internal/shard"
	"ethkv/internal/trace"
	"ethkv/internal/trie"
)

// benchBlocks scales the shared pipeline run. The artifact's sampled traces
// cover 1000 blocks; we default to 150 to keep `go test -bench=.` brisk.
// Override with ETHKV_BENCH_BLOCKS.
const benchBlocks = 150

var (
	runOnce    sync.Once
	bareRun    *lab.Result
	cachedRun  *lab.Result
	runErr     error
	printGuard sync.Mutex
	printed    = map[string]bool{}
)

// sharedRuns collects the bare and cached traces once.
func sharedRuns(b *testing.B) (*lab.Result, *lab.Result) {
	b.Helper()
	runOnce.Do(func() {
		workload := chain.DefaultWorkload()
		workload.Accounts = 8000
		workload.Contracts = 800
		workload.TxPerBlock = 120
		bareRun, cachedRun, runErr = lab.RunBoth(benchBlocks, workload)
	})
	if runErr != nil {
		b.Fatal(runErr)
	}
	return bareRun, cachedRun
}

// printOnce emits an artifact the first time a benchmark produces it.
func printOnce(key string, emit func()) {
	printGuard.Lock()
	defer printGuard.Unlock()
	if !printed[key] {
		printed[key] = true
		emit()
	}
}

// BenchmarkTable1ClassInventory regenerates Table I: the per-class pair
// counts and mean key/value sizes of the post-sync store (E1).
func BenchmarkTable1ClassInventory(b *testing.B) {
	_, cached := sharedRuns(b)
	b.ResetTimer()
	var dist *analysis.SizeDist
	for i := 0; i < b.N; i++ {
		dist = cached.Store
		_ = dist.DominantShare()
		_ = dist.SingletonClasses()
		_ = dist.Classes()
	}
	b.StopTimer()
	printOnce("table1", func() {
		fmt.Println("\n=== Table I (E1) ===")
		report.WriteTable1(os.Stdout, dist)
	})
	b.ReportMetric(dist.DominantShare()*100, "dominant-share-%")
	b.ReportMetric(float64(dist.SingletonClasses()), "singleton-classes")
}

// BenchmarkFigure2SizeDistribution regenerates Figure 2: the KV size
// scatter series of the four world-state classes (E2).
func BenchmarkFigure2SizeDistribution(b *testing.B) {
	_, cached := sharedRuns(b)
	classes := []rawdb.Class{
		rawdb.ClassTrieNodeAccount, rawdb.ClassTrieNodeStorage,
		rawdb.ClassSnapshotAccount, rawdb.ClassSnapshotStorage,
	}
	b.ResetTimer()
	var points int
	for i := 0; i < b.N; i++ {
		points = 0
		for _, class := range classes {
			points += len(cached.Store.ValueSizeSeries(class))
		}
	}
	b.StopTimer()
	printOnce("figure2", func() {
		fmt.Println("\n=== Figure 2 (E2) ===")
		report.WriteFigure2(os.Stdout, cached.Store, classes)
	})
	b.ReportMetric(float64(points), "distinct-sizes")
}

// BenchmarkTable2OpDistCache regenerates Table II: the CacheTrace op mix (E3).
func BenchmarkTable2OpDistCache(b *testing.B) {
	_, cached := sharedRuns(b)
	b.ResetTimer()
	var dist *analysis.OpDist
	for i := 0; i < b.N; i++ {
		dist = analysis.CollectOpDistSlice(cached.Ops, nil)
	}
	b.StopTimer()
	printOnce("table2", func() {
		fmt.Println("\n=== Table II (E3) ===")
		report.WriteOpTable(os.Stdout, "CacheTrace", dist)
	})
	b.ReportMetric(float64(dist.Total), "ops")
}

// BenchmarkTable3OpDistBare regenerates Table III: the BareTrace op mix (E4).
func BenchmarkTable3OpDistBare(b *testing.B) {
	bare, _ := sharedRuns(b)
	b.ResetTimer()
	var dist *analysis.OpDist
	for i := 0; i < b.N; i++ {
		dist = analysis.CollectOpDistSlice(bare.Ops, nil)
	}
	b.StopTimer()
	printOnce("table3", func() {
		fmt.Println("\n=== Table III (E4) ===")
		report.WriteOpTable(os.Stdout, "BareTrace", dist)
	})
	b.ReportMetric(float64(dist.Total), "ops")
}

// BenchmarkTable4ReadRatios regenerates Table IV: per-class read ratios (E5).
func BenchmarkTable4ReadRatios(b *testing.B) {
	bare, cached := sharedRuns(b)
	bareOps := analysis.CollectOpDistSlice(bare.Ops, nil)
	cachedOps := analysis.CollectOpDistSlice(cached.Ops, nil)
	b.ResetTimer()
	var ta float64
	for i := 0; i < b.N; i++ {
		for _, class := range analysis.DefaultTrackedClasses() {
			var pairs uint64
			if cs := cached.Store.PerClass[class]; cs != nil {
				pairs = cs.Pairs
			}
			r := cachedOps.ReadRatio(class, pairs)
			if class == rawdb.ClassTrieNodeAccount {
				ta = r
			}
		}
	}
	b.StopTimer()
	printOnce("table4", func() {
		fmt.Println("\n=== Table IV (E5) ===")
		report.WriteTable4(os.Stdout, bareOps, cachedOps, bare.Store, cached.Store)
	})
	b.ReportMetric(ta*100, "TA-read-ratio-%")
}

// BenchmarkFigure3OpFrequency regenerates Figure 3: per-key operation
// frequency distributions of the world-state classes (E6).
func BenchmarkFigure3OpFrequency(b *testing.B) {
	bare, cached := sharedRuns(b)
	cachedOps := analysis.CollectOpDistSlice(cached.Ops, nil)
	bareOps := analysis.CollectOpDistSlice(bare.Ops, nil)
	b.ResetTimer()
	var once float64
	for i := 0; i < b.N; i++ {
		for _, class := range analysis.DefaultTrackedClasses() {
			if co := cachedOps.PerClass[class]; co != nil {
				_ = analysis.FrequencyDistribution(co.ReadFreq)
				once = analysis.ReadOnceShare(co.ReadFreq)
			}
		}
	}
	b.StopTimer()
	printOnce("figure3", func() {
		fmt.Println("\n=== Figure 3 (E6) ===")
		report.WriteFigure3(os.Stdout, "CacheTrace", cachedOps)
		report.WriteFigure3(os.Stdout, "BareTrace", bareOps)
	})
	b.ReportMetric(once*100, "read-once-%")
}

// BenchmarkFinding67CacheSnapshotEffect regenerates the Finding 6/7
// comparison: read/write reductions and storage overhead (E7).
func BenchmarkFinding67CacheSnapshotEffect(b *testing.B) {
	bare, cached := sharedRuns(b)
	bareOps := analysis.CollectOpDistSlice(bare.Ops, nil)
	cachedOps := analysis.CollectOpDistSlice(cached.Ops, nil)
	b.ResetTimer()
	var cmp *analysis.TraceComparison
	for i := 0; i < b.N; i++ {
		cmp = analysis.Compare(bareOps, cachedOps, bare.Store, cached.Store)
	}
	b.StopTimer()
	printOnce("finding67", func() {
		fmt.Println("\n=== Findings 6-7 (E7) ===")
		report.WriteComparison(os.Stdout, cmp)
	})
	b.ReportMetric(cmp.WorldStateReadReduction()*100, "ws-read-reduction-%")
	b.ReportMetric(cmp.StorageOverhead()*100, "storage-overhead-%")
}

// BenchmarkFigure4ReadCorrelation regenerates Figure 4: distance-based read
// correlations (E8). The timed section is the full correlation pass.
func BenchmarkFigure4ReadCorrelation(b *testing.B) {
	bare, cached := sharedRuns(b)
	cfg := analysis.CorrConfig{Op: trace.OpRead}
	b.ResetTimer()
	var bareCorr *analysis.Correlator
	for i := 0; i < b.N; i++ {
		bareCorr = analysis.CollectCorrelationsSlice(bare.Ops, cfg)
	}
	b.StopTimer()
	cachedCorr := analysis.CollectCorrelationsSlice(cached.Ops, cfg)
	printOnce("figure4", func() {
		fmt.Println("\n=== Figure 4 (E8) ===")
		report.WriteCorrelationFigure(os.Stdout, "CacheTrace reads", cachedCorr, 3)
		report.WriteCorrelationFigure(os.Stdout, "BareTrace reads", bareCorr, 3)
	})
	if top := bareCorr.TopPairs(0, 1, true); len(top) > 0 {
		b.ReportMetric(float64(top[0].Counts[0]), "top-intra-d0")
	}
}

// BenchmarkFigure5ReadCorrFrequency regenerates Figure 5: correlated-read
// frequency distributions at d=0 and d=1024 (E9).
func BenchmarkFigure5ReadCorrFrequency(b *testing.B) {
	bare, cached := sharedRuns(b)
	cfg := analysis.CorrConfig{Op: trace.OpRead}
	bareCorr := analysis.CollectCorrelationsSlice(bare.Ops, cfg)
	cachedCorr := analysis.CollectCorrelationsSlice(cached.Ops, cfg)
	b.ResetTimer()
	var maxFreq uint64
	for i := 0; i < b.N; i++ {
		for _, series := range bareCorr.TopPairs(0, 3, true) {
			_ = bareCorr.FrequencyDistribution(0, series.Pair)
			if f := bareCorr.MaxPairFrequency(0, series.Pair); f > maxFreq {
				maxFreq = f
			}
		}
	}
	b.StopTimer()
	printOnce("figure5", func() {
		fmt.Println("\n=== Figure 5 (E9) ===")
		report.WriteFrequencyFigure(os.Stdout, "CacheTrace", cachedCorr, 3)
		report.WriteFrequencyFigure(os.Stdout, "BareTrace", bareCorr, 3)
	})
	b.ReportMetric(float64(maxFreq), "max-pair-freq-d0")
}

// BenchmarkFigure6UpdateCorrelation regenerates Figure 6: distance-based
// update correlations (E10).
func BenchmarkFigure6UpdateCorrelation(b *testing.B) {
	bare, cached := sharedRuns(b)
	cfg := analysis.CorrConfig{Op: trace.OpUpdate}
	b.ResetTimer()
	var cachedCorr *analysis.Correlator
	for i := 0; i < b.N; i++ {
		cachedCorr = analysis.CollectCorrelationsSlice(cached.Ops, cfg)
	}
	b.StopTimer()
	bareCorr := analysis.CollectCorrelationsSlice(bare.Ops, cfg)
	printOnce("figure6", func() {
		fmt.Println("\n=== Figure 6 (E10) ===")
		report.WriteCorrelationFigure(os.Stdout, "CacheTrace updates", cachedCorr, 3)
		report.WriteCorrelationFigure(os.Stdout, "BareTrace updates", bareCorr, 3)
	})
	meta := analysis.MakeClassPair(rawdb.ClassLastFast, rawdb.ClassLastHeader)
	b.ReportMetric(float64(cachedCorr.Counts(0, meta)), "meta-pair-d0")
}

// BenchmarkFigure7UpdateCorrFrequency regenerates Figure 7: intra-class
// correlated-update frequency distributions (E11).
func BenchmarkFigure7UpdateCorrFrequency(b *testing.B) {
	bare, cached := sharedRuns(b)
	cfg := analysis.CorrConfig{Op: trace.OpUpdate}
	cachedCorr := analysis.CollectCorrelationsSlice(cached.Ops, cfg)
	bareCorr := analysis.CollectCorrelationsSlice(bare.Ops, cfg)
	tsPair := analysis.MakeClassPair(rawdb.ClassTrieNodeStorage, rawdb.ClassTrieNodeStorage)
	b.ResetTimer()
	var ts0 uint64
	for i := 0; i < b.N; i++ {
		ts0 = bareCorr.MaxPairFrequency(0, tsPair)
		_ = bareCorr.FrequencyDistribution(0, tsPair)
	}
	b.StopTimer()
	printOnce("figure7", func() {
		fmt.Println("\n=== Figure 7 (E11) ===")
		report.WriteFrequencyFigure(os.Stdout, "CacheTrace", cachedCorr, 3)
		report.WriteFrequencyFigure(os.Stdout, "BareTrace", bareCorr, 3)
	})
	b.ReportMetric(float64(ts0), "TS-TS-max-freq-d0")
}

// BenchmarkAblationHybridStore replays the measured workload against the
// LSM-only baseline and the class-routed hybrid (E12, §V design claim).
func BenchmarkAblationHybridStore(b *testing.B) {
	bare, _ := sharedRuns(b)
	b.ResetTimer()
	var baseStats, hybStats struct {
		physWrite, tombstones uint64
	}
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		baseDB, err := lsm.Open(filepath.Join(dir, "base"), ablationLSMOpts())
		if err != nil {
			b.Fatal(err)
		}
		baseRes, err := hybrid.Replay(baseDB, bare.Ops)
		if err != nil {
			b.Fatal(err)
		}
		baseDB.Close()

		orderedDB, err := lsm.Open(filepath.Join(dir, "ordered"), ablationLSMOpts())
		if err != nil {
			b.Fatal(err)
		}
		hashDB, err := hashstore.Open(filepath.Join(dir, "hash"))
		if err != nil {
			b.Fatal(err)
		}
		hybStore := hybrid.New(orderedDB, logstore.New(), hashDB, nil)
		hybRes, err := hybrid.Replay(hybStore, bare.Ops)
		if err != nil {
			b.Fatal(err)
		}
		hybStore.Close()

		baseStats.physWrite = baseRes.Stats.PhysicalBytesWrite
		baseStats.tombstones = baseRes.Stats.TombstonesLive
		hybStats.physWrite = hybRes.Stats.PhysicalBytesWrite
		hybStats.tombstones = hybRes.Stats.TombstonesLive
	}
	b.StopTimer()
	printOnce("ablation-hybrid", func() {
		fmt.Println("\n=== Ablation E12: LSM-only vs hybrid routing ===")
		fmt.Printf("LSM-only: physWrite=%.1f MiB tombstones=%d\n",
			float64(baseStats.physWrite)/(1<<20), baseStats.tombstones)
		fmt.Printf("hybrid:   physWrite=%.1f MiB tombstones=%d\n",
			float64(hybStats.physWrite)/(1<<20), hybStats.tombstones)
	})
	b.ReportMetric(float64(baseStats.physWrite)/(1<<20), "lsm-write-MiB")
	b.ReportMetric(float64(hybStats.physWrite)/(1<<20), "hybrid-write-MiB")
}

// BenchmarkAblationCorrelationCache replays the measured read stream
// against LRU and the correlation-aware cache (E13, §V design claim).
func BenchmarkAblationCorrelationCache(b *testing.B) {
	bare, _ := sharedRuns(b)
	backing := map[string][]byte{}
	var reads []trace.Op
	for _, op := range bare.Ops {
		switch op.Type {
		case trace.OpWrite, trace.OpUpdate:
			backing[string(op.Key)] = make([]byte, op.ValueSize)
		case trace.OpRead:
			if op.ValueSize > 0 {
				backing[string(op.Key)] = make([]byte, op.ValueSize)
			}
			reads = append(reads, op)
		}
	}
	const budget = 1 << 20
	b.ResetTimer()
	var lruRate, corrRate float64
	for i := 0; i < b.N; i++ {
		lru := cache.NewLRU(budget)
		for _, op := range reads {
			if _, ok := lru.Get(op.Key); !ok {
				if v, exists := backing[string(op.Key)]; exists {
					lru.Add(op.Key, v)
				}
			}
		}
		corr := cache.NewCorrelationCache(budget, func(key []byte) ([]byte, bool) {
			v, ok := backing[string(key)]
			return v, ok
		})
		for _, op := range reads {
			if _, ok := corr.Get(op.Key); !ok {
				if v, exists := backing[string(op.Key)]; exists {
					corr.Add(op.Key, v)
				}
			}
		}
		lruRate = lru.HitRate()
		corrRate = corr.HitRate()
	}
	b.StopTimer()
	printOnce("ablation-cache", func() {
		fmt.Println("\n=== Ablation E13: LRU vs correlation-aware cache ===")
		fmt.Printf("LRU hit rate:               %.2f%%\n", lruRate*100)
		fmt.Printf("correlation-aware hit rate: %.2f%%\n", corrRate*100)
	})
	b.ReportMetric(lruRate*100, "lru-hit-%")
	b.ReportMetric(corrRate*100, "corr-hit-%")
}

// BenchmarkPipelineImport times raw block import throughput through the
// cached stack, sequential vs the staged import pipeline. The traces are
// byte-identical at every width (TestImportWorkersEquivalence), so this
// measures pure overlap: generation ahead of commit, parallel trie
// hashing, and async LSM flush. On a single-core box the widths should
// tie; the pipeline pays no sequential-path penalty.
func BenchmarkPipelineImport(b *testing.B) {
	workload := chain.DefaultWorkload()
	workload.Accounts = 2000
	workload.Contracts = 200
	workload.TxPerBlock = 50
	widths := []int{1, 4}
	if w := chain.DefaultImportWorkers(); w != 1 && w != 4 {
		widths = append(widths, w)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lab.Run(lab.Config{
					Mode: lab.Cached, Blocks: 10, Workload: workload, ImportWorkers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreOpLatency replays the measured workload against the
// instrumented LSM and reports per-op latency percentiles — the numbers the
// paper's storage-design argument turns on (read cost under compaction,
// write cost under stalls), as `*-p*-ns` custom metrics.
func BenchmarkStoreOpLatency(b *testing.B) {
	bare, _ := sharedRuns(b)
	var snap obs.Snapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		registry := obs.NewRegistry()
		db, err := lsm.Open(filepath.Join(b.TempDir(), "lsm"), ablationLSMOpts())
		if err != nil {
			b.Fatal(err)
		}
		store := kv.Instrument(db, registry, "store", "lsm")
		if _, err := hybrid.Replay(store, bare.Ops); err != nil {
			b.Fatal(err)
		}
		store.Close()
		snap = registry.Snapshot()
	}
	b.StopTimer()
	printOnce("op-latency", func() {
		fmt.Println("\n=== Store op latency percentiles (instrumented LSM replay) ===")
		for _, op := range []string{"get", "put", "delete", "scan"} {
			h, ok := snap.Histograms[obs.Name("ethkv_op_latency_ns", "op", op, "store", "lsm")]
			if ok && h.Count > 0 {
				fmt.Printf("%-6s n=%-9d %s\n", op, h.Count, obs.FormatQuantiles(h))
			}
		}
	})
	for _, op := range []string{"get", "put", "delete", "scan"} {
		h, ok := snap.Histograms[obs.Name("ethkv_op_latency_ns", "op", op, "store", "lsm")]
		if !ok || h.Count == 0 {
			continue
		}
		b.ReportMetric(h.Quantile(0.50), op+"-p50-ns")
		b.ReportMetric(h.Quantile(0.99), op+"-p99-ns")
	}
}

// BenchmarkInstrumentOverhead measures the per-op cost the observability
// decorator adds to a Get, both disabled (nil registry: must be the raw
// store) and enabled (two histogram observes plus counters). The acceptance
// bar is <2% on the import pipeline; on a bare MemStore Get — a far harsher
// denominator — the absolute delta is what matters (tens of ns).
func BenchmarkInstrumentOverhead(b *testing.B) {
	key := []byte("overhead-key")
	for _, mode := range []string{"bare", "instrumented"} {
		b.Run(mode, func(b *testing.B) {
			inner := kv.NewMemStore()
			defer inner.Close()
			store := kv.Store(inner)
			if mode == "instrumented" {
				store = kv.Instrument(inner, obs.NewRegistry(), "store", "mem")
			}
			if err := store.Put(key, []byte("value")); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Get(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ablationLSMOpts tunes the LSM for the ablation replays: a small memtable
// so flush and compaction costs actually materialize at replay scale (with
// the default 4 MiB buffer the whole workload would sit in RAM and the LSM
// would never pay its background I/O).
func ablationLSMOpts() lsm.Options {
	return lsm.Options{
		DisableWAL:          true,
		MemtableBytes:       256 << 10,
		L0CompactionTrigger: 4,
		LevelBaseBytes:      1 << 20,
	}
}

// BenchmarkAblationCacheAdmission flips Geth's write-path cache admission
// (Finding 6's critique: never-read pairs pollute the cache when admitted
// on write). It runs the cached pipeline both ways and compares the
// world-state reads that reach the store.
func BenchmarkAblationCacheAdmission(b *testing.B) {
	workload := chain.DefaultWorkload()
	workload.Accounts = 4000
	workload.Contracts = 400
	workload.TxPerBlock = 80
	run := func(admit bool) uint64 {
		pcfg := chain.DefaultProcessorConfig(true)
		pcfg.AdmitOnWrite = admit
		res, err := lab.Run(lab.Config{
			Mode: lab.Cached, Blocks: 60, Workload: workload, Processor: &pcfg,
		})
		if err != nil {
			b.Fatal(err)
		}
		dist := analysis.CollectOpDistSlice(res.Ops, nil)
		return dist.WorldStateReads()
	}
	b.ResetTimer()
	var withAdmit, without uint64
	for i := 0; i < b.N; i++ {
		withAdmit = run(true)
		without = run(false)
	}
	b.StopTimer()
	printOnce("ablation-admission", func() {
		fmt.Println("\n=== Ablation: cache write-path admission (Finding 6) ===")
		fmt.Printf("world-state store reads with admit-on-write:    %d\n", withAdmit)
		fmt.Printf("world-state store reads without admit-on-write: %d\n", without)
	})
	b.ReportMetric(float64(withAdmit), "reads-admit")
	b.ReportMetric(float64(without), "reads-no-admit")
}

// BenchmarkAblationStorageModel contrasts the path-based and hash-based
// trie storage models (§II-A "Evolution of Geth"): same logical updates,
// very different stored-node growth.
func BenchmarkAblationStorageModel(b *testing.B) {
	b.ResetTimer()
	var pathNodes, hashNodes int
	for i := 0; i < b.N; i++ {
		pathStore := map[string][]byte{}
		hashStore := map[string][]byte{}
		pathTrie := trie.NewEmpty()
		hashTrie := trie.NewEmpty()
		for round := 0; round < 20; round++ {
			for j := 0; j < 200; j++ {
				k := []byte(fmt.Sprintf("acct-%03d", j))
				v := []byte(fmt.Sprintf("bal-%d-%d", round, j))
				pathTrie.Update(k, v)
				hashTrie.Update(k, v)
			}
			set, _ := pathTrie.Commit()
			for p, blob := range set.Writes {
				pathStore[p] = blob
			}
			for _, p := range set.Deletes {
				delete(pathStore, p)
			}
			writes, _ := hashTrie.CommitHashed()
			for h, blob := range writes {
				hashStore[h] = blob
			}
		}
		pathNodes, hashNodes = len(pathStore), len(hashStore)
	}
	b.StopTimer()
	printOnce("ablation-storage-model", func() {
		fmt.Println("\n=== Ablation: path-based vs hash-based trie storage ===")
		fmt.Printf("path-keyed live nodes: %d\n", pathNodes)
		fmt.Printf("hash-keyed stored nodes: %d (%.1fx redundancy)\n",
			hashNodes, float64(hashNodes)/float64(pathNodes))
	})
	b.ReportMetric(float64(pathNodes), "path-nodes")
	b.ReportMetric(float64(hashNodes), "hash-nodes")
}

// BenchmarkSweepZipfSkew sweeps the workload generator's account-popularity
// skew and reports how the read-once share (Finding 3) and dominant-class
// share respond — the sensitivity analysis behind the calibration choices
// in EXPERIMENTS.md.
func BenchmarkSweepZipfSkew(b *testing.B) {
	type point struct {
		s        float64
		readOnce float64
	}
	var results []point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = results[:0]
		for _, s := range []float64{1.05, 1.2, 1.5, 2.0} {
			workload := chain.DefaultWorkload()
			workload.Accounts = 3000
			workload.Contracts = 300
			workload.TxPerBlock = 60
			workload.ZipfS = s
			res, err := lab.Run(lab.Config{Mode: lab.Cached, Blocks: 30, Workload: workload})
			if err != nil {
				b.Fatal(err)
			}
			dist := analysis.CollectOpDistSlice(res.Ops, nil)
			var once float64
			if co := dist.PerClass[rawdb.ClassTrieNodeAccount]; co != nil {
				once = analysis.ReadOnceShare(co.ReadFreq)
			}
			results = append(results, point{s, once})
		}
	}
	b.StopTimer()
	printOnce("sweep-zipf", func() {
		fmt.Println("\n=== Sweep: Zipf skew vs read-once share (TrieNodeAccount) ===")
		for _, p := range results {
			fmt.Printf("ZipfS=%.2f  read-once=%.1f%%\n", p.s, p.readOnce*100)
		}
	})
	if len(results) > 0 {
		b.ReportMetric(results[0].readOnce*100, "read-once-lowskew-%")
		b.ReportMetric(results[len(results)-1].readOnce*100, "read-once-highskew-%")
	}
}

// BenchmarkSweepCacheBudget sweeps the shared cache budget and reports the
// world-state reads that still reach the store — the knob behind Geth's
// --cache flag (1 GiB default at mainnet scale).
func BenchmarkSweepCacheBudget(b *testing.B) {
	workload := chain.DefaultWorkload()
	workload.Accounts = 3000
	workload.Contracts = 300
	workload.TxPerBlock = 60
	type point struct {
		budget int
		reads  uint64
	}
	var results []point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = results[:0]
		for _, budget := range []int{32 << 10, 128 << 10, 512 << 10, 4 << 20} {
			pcfg := chain.DefaultProcessorConfig(true)
			pcfg.CacheBytes = budget
			res, err := lab.Run(lab.Config{
				Mode: lab.Cached, Blocks: 30, Workload: workload, Processor: &pcfg,
			})
			if err != nil {
				b.Fatal(err)
			}
			dist := analysis.CollectOpDistSlice(res.Ops, nil)
			results = append(results, point{budget, dist.WorldStateReads()})
		}
	}
	b.StopTimer()
	printOnce("sweep-cache", func() {
		fmt.Println("\n=== Sweep: cache budget vs world-state store reads ===")
		for _, p := range results {
			fmt.Printf("budget %6d KiB  world-state reads %d\n", p.budget>>10, p.reads)
		}
	})
	if len(results) > 1 {
		b.ReportMetric(float64(results[0].reads), "reads-smallest-cache")
		b.ReportMetric(float64(results[len(results)-1].reads), "reads-largest-cache")
	}
}

// coldStore builds an on-disk store of the named backend whose data
// footprint dwarfs the LSM's block-cache budget, then reopens it so no
// block, memtable, index, or cache state is warm beyond what the backend
// keeps resident by design (the flat store's whole point is its resident
// index). Returns the reopened store and the sorted key list.
func coldStore(b *testing.B, dir, backend string, cacheBytes int64) (kv.Store, [][]byte) {
	b.Helper()
	open := func() kv.Store {
		switch backend {
		case "lsm":
			db, err := lsm.Open(dir, lsm.Options{
				DisableWAL:          true,
				MemtableBytes:       256 << 10,
				L0CompactionTrigger: 4,
				LevelBaseBytes:      1 << 20,
				BlockCacheBytes:     cacheBytes,
			})
			if err != nil {
				b.Fatal(err)
			}
			return db
		case "flat":
			s, err := flatstore.Open(dir, flatstore.Options{})
			if err != nil {
				b.Fatal(err)
			}
			return s
		default:
			b.Fatalf("unknown cold backend %q", backend)
			return nil
		}
	}
	db := open()
	const n = 20000 // ~6 MiB of key+value data vs a 1 MiB cache
	keys := make([][]byte, n)
	val := make([]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("cold-%08d", i))
		for j := range val {
			val[j] = byte(i + j)
		}
		if err := db.Put(keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	if flusher, ok := db.(interface{ Flush() error }); ok {
		if err := flusher.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	db = open()
	b.Cleanup(func() { db.Close() })
	return db, keys
}

// BenchmarkPointReadCold measures cold point reads, LSM vs flat. The LSM
// runs against a store far larger than its block cache, so most gets must
// page a data block in from disk — the read path's floor rather than its
// cached ceiling. The flat store answers every get with one positioned
// read through its resident index, so the same workload is its steady
// state, not its worst case.
func BenchmarkPointReadCold(b *testing.B) {
	for _, backend := range []string{"lsm", "flat"} {
		b.Run("backend="+backend, func(b *testing.B) {
			db, keys := coldStore(b, b.TempDir(), backend, 1<<20)
			rng := uint64(0x243F6A8885A308D3)
			before := db.(kv.StatsProvider).Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				k := keys[rng%uint64(len(keys))]
				if _, err := db.Get(k); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := db.(kv.StatsProvider).Stats()
			switch backend {
			case "lsm":
				b.ReportMetric(100*st.BlockCacheHitRate(), "cache-hit-%")
				b.ReportMetric(float64(st.BlockCacheEvictions), "evictions")
			case "flat":
				b.ReportMetric(float64(st.PhysicalReadOps-before.PhysicalReadOps)/float64(b.N), "disk-reads/get")
			}
		})
	}
}

// BenchmarkColdScan measures a full-store ordered scan with the same
// cold-start setup. The LSM streams blocks through its iterator readahead;
// the flat store walks its sorted index snapshot and issues one positioned
// read per record, so this is the flat design's worst case — the cost the
// single-seek point-read win is traded against.
func BenchmarkColdScan(b *testing.B) {
	for _, backend := range []string{"lsm", "flat"} {
		b.Run("backend="+backend, func(b *testing.B) {
			db, keys := coldStore(b, b.TempDir(), backend, 1<<20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := db.NewIterator(nil, nil)
				n := 0
				for it.Next() {
					n++
				}
				err := it.Error()
				it.Release()
				if err != nil {
					b.Fatal(err)
				}
				if n != len(keys) {
					b.Fatalf("scan saw %d of %d keys", n, len(keys))
				}
			}
			b.StopTimer()
			st := db.(kv.StatsProvider).Stats()
			b.ReportMetric(float64(st.PhysicalBytesRead)/float64(b.N), "disk-bytes/scan")
		})
	}
}

// BenchmarkReplayBackends replays the measured bare and cached traces
// through the LSM and the flat store head-to-head — the workload-driven
// comparison the paper's storage argument calls for (§V): same ops, same
// order, different storage design. Amplification and physical-read counts
// are reported as benchmark metrics.
func BenchmarkReplayBackends(b *testing.B) {
	bare, cached := sharedRuns(b)
	for _, tr := range []struct {
		name string
		ops  []trace.Op
	}{{"bare", bare.Ops}, {"cached", cached.Ops}} {
		for _, backend := range []string{"lsm", "flat"} {
			b.Run(fmt.Sprintf("trace=%s/backend=%s", tr.name, backend), func(b *testing.B) {
				var st kv.Stats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dir := b.TempDir()
					var store kv.Store
					switch backend {
					case "lsm":
						db, err := lsm.Open(filepath.Join(dir, "lsm"), ablationLSMOpts())
						if err != nil {
							b.Fatal(err)
						}
						store = db
					case "flat":
						s, err := flatstore.Open(filepath.Join(dir, "flat"), flatstore.Options{})
						if err != nil {
							b.Fatal(err)
						}
						store = s
					}
					res, err := hybrid.Replay(store, tr.ops)
					if err != nil {
						b.Fatal(err)
					}
					st = res.Stats
					if err := store.Close(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(st.WriteAmplification(), "write-amp")
				b.ReportMetric(st.ReadAmplification(), "read-amp")
				b.ReportMetric(float64(st.PhysicalReadOps), "phys-reads")
			})
		}
	}
}

// BenchmarkServedThroughput measures the network serving layer end to end
// (E14): N concurrent client goroutines issue point ops against an
// in-process server over loopback. batched=true is the coalescing client
// (frames carry up to 1024 ops, window-clocked batching, pipelined);
// batched=false is the classic request/response baseline — one op per
// frame, one frame in flight per connection — that a non-batching client
// library would be. Both use the same two TCP connections. Reports served
// op/s, achieved ops/frame, and the server-side put latency percentiles
// from its own histograms.
func BenchmarkServedThroughput(b *testing.B) {
	const totalOps = 65536
	for _, clients := range []int{1, 16, 256} {
		for _, batched := range []bool{true, false} {
			b.Run(fmt.Sprintf("clients=%d/batched=%v", clients, batched), func(b *testing.B) {
				var opsPerSec, meanBatch float64
				var snap obs.Snapshot
				for i := 0; i < b.N; i++ {
					registry := obs.NewRegistry()
					srv := kvnet.NewServer(kv.NewMemStore(), kvnet.ServerOptions{
						Registry: registry,
						Logf:     func(string, ...any) {},
					})
					addr, err := srv.Listen("127.0.0.1:0")
					if err != nil {
						b.Fatal(err)
					}
					copts := kvnet.ClientOptions{Conns: 2, Window: 4}
					if !batched {
						copts.BatchMaxOps = 1
						copts.Window = 1
					}
					c, err := kvnet.Dial(addr, copts)
					if err != nil {
						b.Fatal(err)
					}

					perClient := totalOps / clients
					start := time.Now()
					var wg sync.WaitGroup
					errCh := make(chan error, clients)
					for w := 0; w < clients; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							var key [16]byte
							val := make([]byte, 64)
							for j := 0; j < perClient; j++ {
								binary.LittleEndian.PutUint64(key[:8], uint64(w))
								binary.LittleEndian.PutUint64(key[8:], uint64(j%512))
								var err error
								if j%2 == 0 {
									err = c.Put(key[:], val)
								} else {
									_, err = c.Get(key[:])
									if err == kv.ErrNotFound {
										err = nil
									}
								}
								if err != nil {
									errCh <- err
									return
								}
							}
						}(w)
					}
					wg.Wait()
					elapsed := time.Since(start)
					select {
					case err := <-errCh:
						b.Fatal(err)
					default:
					}
					done := float64(perClient * clients)
					opsPerSec = done / elapsed.Seconds()
					meanBatch = c.NetStats().MeanBatch()
					snap = registry.Snapshot()
					c.Close()
					srv.Close()
				}
				b.ReportMetric(opsPerSec, "served-ops/s")
				b.ReportMetric(meanBatch, "ops/frame")
				if h, ok := snap.Histograms[obs.Name("ethkv_server_op_latency_ns", "op", "put")]; ok && h.Count > 0 {
					b.ReportMetric(h.Quantile(0.50), "server-put-p50-ns")
					b.ReportMetric(h.Quantile(0.99), "server-put-p99-ns")
				}
			})
		}
	}
}

// BenchmarkShardScale measures horizontal scaling of the shard router
// (E15): the same concurrent point-op mix — 16 goroutines alternating puts
// and gets over hash-spread keys — runs against lsm children at 1, 2, 4,
// 8, and 16 shards, first on the local store and then through an
// in-process kvserver, the serving path composed unchanged over the
// sharded store. Each shard owns an independent memtable, WAL, and flush
// pipeline, so on a multi-core host the op/s curve should rise past
// shards=1 as writer contention divides by the shard count. Reports
// achieved op/s and, where the router is in play, the hottest shard's op
// share (hash routing should keep it near 100/shards).
func BenchmarkShardScale(b *testing.B) {
	const totalOps = 32768
	const workers = 16
	type pointStore interface {
		Put(key, value []byte) error
		Get(key []byte) ([]byte, error)
	}
	drive := func(b *testing.B, s pointStore) float64 {
		b.Helper()
		perWorker := totalOps / workers
		start := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var key [16]byte
				val := make([]byte, 64)
				for j := 0; j < perWorker; j++ {
					binary.LittleEndian.PutUint64(key[:8], uint64(w))
					binary.LittleEndian.PutUint64(key[8:], uint64(j))
					var err error
					if j%2 == 0 {
						err = s.Put(key[:], val)
					} else {
						_, err = s.Get(key[:])
						if err == kv.ErrNotFound {
							err = nil
						}
					}
					if err != nil {
						errCh <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errCh:
			b.Fatal(err)
		default:
		}
		return float64(totalOps) / elapsed.Seconds()
	}
	for _, mode := range []string{"local", "served"} {
		for _, shards := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("mode=%s/shards=%d", mode, shards), func(b *testing.B) {
				var opsPerSec, hotShare float64
				for i := 0; i < b.N; i++ {
					store, err := backends.Open("lsm", b.TempDir(), backends.Options{Shards: shards})
					if err != nil {
						b.Fatal(err)
					}
					switch mode {
					case "local":
						opsPerSec = drive(b, store)
					case "served":
						srv := kvnet.NewServer(store, kvnet.ServerOptions{Logf: func(string, ...any) {}})
						addr, err := srv.Listen("127.0.0.1:0")
						if err != nil {
							b.Fatal(err)
						}
						c, err := kvnet.Dial(addr, kvnet.ClientOptions{Conns: 2, Window: 4})
						if err != nil {
							b.Fatal(err)
						}
						opsPerSec = drive(b, c)
						c.Close()
						srv.Close()
					}
					if r, ok := store.(*shard.Router); ok {
						var total, max uint64
						for _, st := range r.ShardStats() {
							ops := st.Gets + st.Puts + st.Deletes
							total += ops
							if ops > max {
								max = ops
							}
						}
						if total > 0 {
							hotShare = 100 * float64(max) / float64(total)
						}
					}
					if err := store.Close(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(opsPerSec, "ops/s")
				if hotShare > 0 {
					b.ReportMetric(hotShare, "hot-shard-pct")
				}
			})
		}
	}
}

// BenchmarkPolicyReplay measures the census-driven policy store against
// uniform single-backend baselines on the same mixed workload (E16): the
// bare trace replays once through a plain LSM, once through the single-seek
// flat store, and once through the hybrid store configured by the policy
// derived from the trace's own census — the exact derivation that
// `replaybench -policy auto` runs. The baselines are the two backends that
// can serve the whole workload uniformly: hash and log are excluded
// because hashstore scans are unordered (the workload's BlockHeader
// iterations need key order, Finding 4) and logstore is not persistent —
// the policy store may still use them for the classes where they are
// safe, which is precisely its advantage. All stores go through the same
// internal/backends factory, so the only variable is the routing. Reports
// achieved replay op/s plus physical write/read amplification; BENCH diffs
// then show whether per-class routing beats the best uniform choice.
func BenchmarkPolicyReplay(b *testing.B) {
	bare, _ := sharedRuns(b)
	ops := bare.Ops
	derived := policy.Derive(policy.CollectCensus(ops))
	printOnce("policy", func() {
		fmt.Printf("== derived storage policy (BareTrace census)\n%s\n", derived.Encode())
	})
	for _, backend := range []string{"lsm", "flat", "policy"} {
		b.Run("backend="+backend, func(b *testing.B) {
			var st kv.Stats
			var opsPerSec float64
			for i := 0; i < b.N; i++ {
				kind := backend
				var pol *policy.Policy
				if backend == "policy" {
					kind, pol = "hybrid", derived
				}
				store, err := backends.Open(kind, b.TempDir(), backends.Options{Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				res, err := hybrid.Replay(store, ops)
				if err != nil {
					b.Fatal(err)
				}
				opsPerSec = float64(len(ops)) / time.Since(start).Seconds()
				st = res.Stats
				if err := store.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(opsPerSec, "ops/s")
			b.ReportMetric(st.WriteAmplification(), "write-amp")
			b.ReportMetric(st.ReadAmplification(), "read-amp")
		})
	}
}

// BenchmarkCompactionParallel measures the concurrent compaction scheduler
// head-on (E17): a tombstone-heavy write workload against an LSM sized so
// compaction dominates — tiny memtables, a low L0 trigger, and a steady
// delete stream feeding debt — run at compaction worker widths 1, 2, 4,
// and 8. The store lives on an in-memory filesystem with a modeled 2ms
// device sync latency, so the cost being scheduled is the durability
// barrier each flushed or compacted table pays — the dominant cost on
// real devices — rather than this host's CPU count. The timed window is
// sustained throughput: ingest plus settling the compaction debt the
// workload generated (a put-only window would let the serial scheduler
// cheat by deferring every merge it owes; the L0 write stop bounds that
// deferral). With one worker, flushes and merges serialize and every sync
// is dead time under the write stop; with more, flushes run beside
// range-disjoint merges and split merges fan sub-compactions across the
// pool, overlapping the barriers. Reports sustained put op/s, the share
// of wall time writers spent stalled, and the peak compactions in flight;
// BENCH diffs track the headline speedup (workers=4 vs 1).
func BenchmarkCompactionParallel(b *testing.B) {
	const ops = 40000
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var opsPerSec, stallPct, maxConc float64
			for i := 0; i < b.N; i++ {
				db, err := lsm.Open("benchdb", lsm.Options{
					FS:                    faultfs.WithSyncLatency(faultfs.NewMemFS(), 2*time.Millisecond),
					MemtableBytes:         32 << 10,
					MaxImmutableMemtables: 2,
					L0CompactionTrigger:   2,
					LevelBaseBytes:        64 << 10,
					LevelMultiplier:       4,
					MaxLevels:             5,
					CompactionTableBytes:  16 << 10,
					SubCompactionBytes:    32 << 10,
					CompactionWorkers:     workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(42))
				val := make([]byte, 128)
				start := time.Now()
				for j := 0; j < ops; j++ {
					key := fmt.Sprintf("acct-%06d", rng.Intn(8000))
					if j%3 == 2 {
						err = db.Delete([]byte(key))
					} else {
						err = db.Put([]byte(key), val)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				// Settle: the run is not over until the debt it created is
				// paid down to a steady-state tree.
				if err := db.Flush(); err != nil {
					b.Fatal(err)
				}
				elapsed := time.Since(start)
				s := db.Stats()
				opsPerSec = float64(ops) / elapsed.Seconds()
				stallPct = 100 * float64(s.WriteStallNanos) / float64(elapsed.Nanoseconds())
				maxConc = float64(s.MaxConcurrentCompactions)
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(opsPerSec, "put-ops/s")
			b.ReportMetric(stallPct, "stall-pct")
			b.ReportMetric(maxConc, "max-conc")
		})
	}
}
