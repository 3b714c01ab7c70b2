// The benchmark harness runs the paper's §V design ablations (experiments
// E12-E13 of DESIGN.md), the parameter sweeps, and the store-latency
// benchmarks. Each prints its result once. The underlying traces are
// collected once per process and shared. Tables and figures E1-E11 come
// from `ethkvlab` (report.WritePaper).
//
// Run all of it:
//
//	go test -bench=. -benchmem
package ethkv

import (
	"fmt"
	"sync"
	"testing"

	"ethkv/internal/analysis"
	"ethkv/internal/backends"
	"ethkv/internal/cache"
	"ethkv/internal/chain"
	"ethkv/internal/hybrid"
	"ethkv/internal/kv"
	"ethkv/internal/lab"
	"ethkv/internal/obs"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
	"ethkv/internal/trie"
)

// benchBlocks scales the shared pipeline run. The artifact's sampled traces
// cover 1000 blocks; we default to 150 to keep `go test -bench=.` brisk.
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

// BenchmarkAblationHybridStore replays the measured workload against the
// LSM-only baseline and the class-routed hybrid (E12, §V design claim) — both
// as the factory builds them, so E12 measures the composition users get.
func BenchmarkAblationHybridStore(b *testing.B) {
	bare, _ := sharedRuns(b)
	replay := func(kind string) kv.Stats {
		st, err := backends.Open(kind, b.TempDir(), backends.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		return replayAblation(b, st, bare.Ops)
	}
	b.ResetTimer()
	var baseStats, hybStats struct {
		physWrite, tombstones uint64
	}
	for i := 0; i < b.N; i++ {
		base, hyb := replay("lsm"), replay("hybrid")
		baseStats.physWrite, baseStats.tombstones = base.PhysicalBytesWrite, base.TombstonesLive
		hybStats.physWrite, hybStats.tombstones = hyb.PhysicalBytesWrite, hyb.TombstonesLive
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

// replayAblation replays ops into st and returns its settled counters: the
// run's total physical I/O, unflushed memtables included.
func replayAblation(tb testing.TB, st kv.Store, ops []trace.Op) kv.Stats {
	tb.Helper()
	res, err := hybrid.Replay(st, ops)
	if err != nil {
		tb.Fatal(err)
	}
	if err := res.Settle(st); err != nil {
		tb.Fatal(err)
	}
	return res.Stats
}

// TestAblationHybridStoreTotalIsSettled pins E12's LSM-only total to the
// settled store's: a further flush must find nothing left to write.
func TestAblationHybridStoreTotalIsSettled(t *testing.T) {
	workload := chain.DefaultWorkload()
	workload.Accounts = 1500
	workload.Contracts = 150
	workload.TxPerBlock = 40
	res, err := lab.Run(lab.Config{Mode: lab.Bare, Blocks: 20, Workload: workload})
	if err != nil {
		t.Fatal(err)
	}
	st, err := backends.Open("lsm", t.TempDir(), backends.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	total := replayAblation(t, st, res.Ops)
	if err := kv.Flush(st); err != nil {
		t.Fatal(err)
	}
	settled := st.(kv.StatsProvider).Stats()
	if total.PhysicalBytesWrite != settled.PhysicalBytesWrite {
		t.Fatalf("E12 LSM-only total = %d physical bytes written, settled store = %d",
			total.PhysicalBytesWrite, settled.PhysicalBytesWrite)
	}
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

// BenchmarkImport times raw block import throughput through the cached
// stack: workload generation, execution, trie hashing and persistence in
// one sequential loop, over the LSM with its background flush.
func BenchmarkImport(b *testing.B) {
	workload := chain.DefaultWorkload()
	workload.Accounts = 2000
	workload.Contracts = 200
	workload.TxPerBlock = 50
	for i := 0; i < b.N; i++ {
		if _, err := lab.Run(lab.Config{Mode: lab.Cached, Blocks: 10, Workload: workload}); err != nil {
			b.Fatal(err)
		}
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
		db, err := backends.Open("lsm", b.TempDir(), backends.Options{})
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
