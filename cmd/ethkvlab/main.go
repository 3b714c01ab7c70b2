// Command ethkvlab is the one-shot reproduction driver: it collects both
// traces over the same synthetic workload, runs every analysis of the
// paper, and prints every table and figure plus the 11-findings checklist.
//
// Usage:
//
//	ethkvlab -blocks 300
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"ethkv/internal/analysis"
	"ethkv/internal/backends"
	"ethkv/internal/chain"
	"ethkv/internal/lab"
	"ethkv/internal/obs"
	"ethkv/internal/rawdb"
	"ethkv/internal/report"
	"ethkv/internal/trace"
)

func main() {
	var (
		blocks      = flag.Int("blocks", 300, "blocks per trace")
		accounts    = flag.Int("accounts", 20000, "pre-seeded EOA population")
		contracts   = flag.Int("contracts", 1500, "pre-seeded contract population")
		tx          = flag.Int("tx", 150, "transactions per block")
		seed        = flag.Int64("seed", 42, "workload RNG seed")
		outDir      = flag.String("out", "", "also write the artifact-layout output tree to this directory")
		workers     = flag.Int("import-workers", 0, "import pipeline fan-out (0 = ETHKV_IMPORT_WORKERS or GOMAXPROCS, 1 = sequential)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address during the run; empty disables")
		storeFlags  = backends.RegisterFlags(flag.CommandLine, "mem")
	)
	flag.Lookup("backend").Usage = "storage backend for both runs: " + backends.Kinds()
	flag.Lookup("block-cache-mb").Usage = "LSM block cache budget in MiB (0 = store default, negative disables; -backend lsm only)"
	flag.Lookup("shards").Usage = "partition the backing store across this many child stores (1 = unsharded)"
	flag.Parse()

	var registry *obs.Registry
	if *metricsAddr != "" {
		registry = obs.NewRegistry()
		addr, err := obs.Serve(*metricsAddr, registry)
		if err != nil {
			log.Fatalf("metrics server: %v", err)
		}
		fmt.Printf("metrics: http://%s/metrics   pprof: http://%s/debug/pprof/\n", addr, addr)
	}

	backend, opts, err := storeFlags.Options()
	if err != nil {
		log.Fatal(err)
	}
	if pol := opts.Policy; pol != nil {
		fmt.Printf("policy: %d classes over %d routes from %s\n",
			len(pol.Classes), len(pol.Routes), storeFlags.Policy)
	}

	workload := chain.DefaultWorkload()
	workload.Accounts = *accounts
	workload.Contracts = *contracts
	workload.TxPerBlock = *tx
	workload.Seed = *seed

	start := time.Now()
	fmt.Printf("== collecting traces: %d blocks, %d EOAs, %d contracts, %d tx/block\n",
		*blocks, *accounts, *contracts, *tx)
	cfg := lab.Config{Blocks: *blocks, Workload: workload, ImportWorkers: *workers,
		Backend: backend, BlockCacheBytes: opts.BlockCacheBytes, Metrics: registry,
		Shards: opts.Shards, ShardMode: opts.ShardMode, Policy: opts.Policy,
		CompactionWorkers: opts.CompactionWorkers}
	bareCfg, cachedCfg := cfg, cfg
	bareCfg.Mode, cachedCfg.Mode = lab.Bare, lab.Cached
	bare, cached, err := lab.RunBothConfigs(bareCfg, cachedCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   BareTrace: %d ops   CacheTrace: %d ops   (%.1fs)\n",
		len(bare.Ops), len(cached.Ops), time.Since(start).Seconds())
	if backend == "lsm" {
		for _, r := range []*lab.Result{bare, cached} {
			st := r.KVStats
			fmt.Printf("   %s lsm: block cache %d hits / %d misses (%.1f%% hit rate), bloom %d negatives / %d false positives\n",
				r.Mode, st.BlockCacheHits, st.BlockCacheMisses, 100*st.BlockCacheHitRate(),
				st.BloomNegatives, st.BloomFalsePositives)
		}
	} else if backend == "flat" {
		for _, r := range []*lab.Result{bare, cached} {
			st := r.KVStats
			fmt.Printf("   %s flat: %d gets, %d positioned reads (incl. scans), %.1f MiB live / %.1f MiB dead, %d compactions\n",
				r.Mode, st.Gets, st.PhysicalReadOps,
				float64(st.LiveDataBytes)/(1<<20), float64(st.DeadDataBytes)/(1<<20),
				st.CompactionCount)
		}
	}
	fmt.Println()
	if registry != nil {
		printOpLatencies(registry)
	}

	out := os.Stdout
	// E1: Table I.
	fmt.Fprintln(out, "== Table I: class inventory (CacheTrace store)")
	report.WriteTable1(out, cached.Store)
	fmt.Fprintln(out)

	// E2: Figure 2.
	fmt.Fprintln(out, "== Figure 2: KV size distributions")
	report.WriteFigure2(out, cached.Store, []rawdb.Class{
		rawdb.ClassTrieNodeAccount, rawdb.ClassTrieNodeStorage,
		rawdb.ClassSnapshotAccount, rawdb.ClassSnapshotStorage,
	})
	fmt.Fprintln(out)

	// E3-E11 inputs: one single-pass engine scan per trace feeds the op
	// census and both correlation analyses at once, and the two traces
	// scan concurrently.
	readCfg := analysis.CorrConfig{Op: trace.OpRead}
	updCfg := analysis.CorrConfig{Op: trace.OpUpdate}
	type scanResult struct {
		dist *analysis.OpDist
		read *analysis.Correlator
		upd  *analysis.Correlator
	}
	scan := func(ops []trace.Op, dst *scanResult, done chan<- error) {
		e := analysis.NewEngine(analysis.EngineConfig{})
		hd := e.AddOpDist(nil)
		hr := e.AddCorrelator(readCfg)
		hu := e.AddCorrelator(updCfg)
		if err := e.RunSlice(ops); err != nil {
			done <- err
			return
		}
		dst.dist, dst.read, dst.upd = hd.Result(), hr.Result(), hu.Result()
		done <- nil
	}
	var cachedScan, bareScan scanResult
	scanErrs := make(chan error, 2)
	go scan(cached.Ops, &cachedScan, scanErrs)
	go scan(bare.Ops, &bareScan, scanErrs)
	for i := 0; i < 2; i++ {
		if err := <-scanErrs; err != nil {
			log.Fatal(err)
		}
	}
	cachedOps, bareOps := cachedScan.dist, bareScan.dist

	fmt.Fprintln(out, "== Table II: operation distribution (CacheTrace)")
	report.WriteOpTable(out, "CacheTrace", cachedOps)
	fmt.Fprintln(out)
	fmt.Fprintln(out, "== Table III: operation distribution (BareTrace)")
	report.WriteOpTable(out, "BareTrace", bareOps)
	fmt.Fprintln(out)

	// E5: Table IV.
	fmt.Fprintln(out, "== Table IV: read ratios")
	report.WriteTable4(out, bareOps, cachedOps, bare.Store, cached.Store)
	fmt.Fprintln(out)

	// E6: Figure 3.
	fmt.Fprintln(out, "== Figure 3: per-key op frequency (world state)")
	report.WriteFigure3(out, "CacheTrace", cachedOps)
	report.WriteFigure3(out, "BareTrace", bareOps)
	fmt.Fprintln(out)

	// E7: cache/snapshot effect.
	fmt.Fprintln(out, "== Findings 6-7: caching and snapshot acceleration effect")
	cmp := analysis.Compare(bareOps, cachedOps, bare.Store, cached.Store)
	report.WriteComparison(out, cmp)
	fmt.Fprintln(out)

	// E8/E9: read correlations.
	cachedRead, bareRead := cachedScan.read, bareScan.read
	fmt.Fprintln(out, "== Figure 4: read correlations")
	report.WriteCorrelationFigure(out, "CacheTrace reads", cachedRead, 3)
	report.WriteCorrelationFigure(out, "BareTrace reads", bareRead, 3)
	fmt.Fprintln(out)
	fmt.Fprintln(out, "== Figure 5: correlated-read frequency distributions")
	report.WriteFrequencyFigure(out, "CacheTrace", cachedRead, 3)
	report.WriteFrequencyFigure(out, "BareTrace", bareRead, 3)
	fmt.Fprintln(out)

	// E10/E11: update correlations.
	cachedUpd, bareUpd := cachedScan.upd, bareScan.upd
	fmt.Fprintln(out, "== Figure 6: update correlations")
	report.WriteCorrelationFigure(out, "CacheTrace updates", cachedUpd, 3)
	report.WriteCorrelationFigure(out, "BareTrace updates", bareUpd, 3)
	fmt.Fprintln(out)
	fmt.Fprintln(out, "== Figure 7: correlated-update frequency distributions")
	report.WriteFrequencyFigure(out, "CacheTrace", cachedUpd, 3)
	fmt.Fprintln(out)

	// The findings checklist.
	fmt.Fprintln(out, "== Findings checklist")
	input := &analysis.FindingsInput{
		CachedOps: cachedOps, BareOps: bareOps,
		CachedStore: cached.Store, BareStore: bare.Store,
		CachedReadCorr: cachedRead, BareReadCorr: bareRead,
		CachedUpdateCorr: cachedUpd, BareUpdateCorr: bareUpd,
	}
	report.WriteFindings(out, analysis.CheckFindings(input))

	if *outDir != "" {
		if err := lab.WriteArtifacts(*outDir+"/CacheTrace", cached); err != nil {
			log.Fatal(err)
		}
		if err := lab.WriteArtifacts(*outDir+"/BareTrace", bare); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nartifact output tree written to %s\n", *outDir)
	}
	fmt.Printf("\ntotal runtime: %.1fs\n", time.Since(start).Seconds())
}

// printOpLatencies summarizes per-op store latency percentiles for both
// trace configurations from the shared registry.
func printOpLatencies(registry *obs.Registry) {
	snap := registry.Snapshot()
	fmt.Println("== store op latency percentiles")
	for _, mode := range []string{lab.Bare.String(), lab.Cached.String()} {
		for _, op := range []string{"get", "put", "delete", "has", "scan", "batch"} {
			name := obs.Name("ethkv_op_latency_ns", "op", op, "trace", mode)
			h, ok := snap.Histograms[name]
			if !ok || h.Count == 0 {
				continue
			}
			fmt.Printf("   %-10s %-6s n=%-9d %s\n", mode, op, h.Count, obs.FormatQuantiles(h))
		}
	}
	fmt.Println()
}
