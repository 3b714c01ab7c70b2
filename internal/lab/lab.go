// Package lab orchestrates end-to-end experiments: build a genesis state,
// import blocks through the instrumented storage stack in bare or cached
// mode, collect the trace, and run the paper's analyses. It is the shared
// engine behind the command-line tools, the examples, and the benchmark
// harness.
package lab

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ethkv/internal/analysis"
	"ethkv/internal/backends"
	"ethkv/internal/chain"
	"ethkv/internal/kv"
	"ethkv/internal/obs"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// Mode selects the trace configuration.
type Mode int

// The two trace configurations of §III-A.
const (
	// Bare reproduces BareTrace: no caching, no snapshot acceleration.
	Bare Mode = iota
	// Cached reproduces CacheTrace: caching + snapshot acceleration.
	Cached
)

func (m Mode) String() string {
	if m == Cached {
		return "CacheTrace"
	}
	return "BareTrace"
}

// Config parameterizes one run.
type Config struct {
	Mode     Mode
	Blocks   int
	Workload chain.WorkloadConfig
	// Dir is the working directory for the trace file, the freezer
	// (Dir/ancient) and the store (StoreDir(Dir)). Empty = in-memory
	// trace, throwaway store and freezer directories.
	Dir string
	// Backend selects the store behind the run by backends.Kinds name: ""
	// or "mem" is the in-memory reference store, "lsm" the write-optimized
	// LSM tree, "flat" the single-seek flat store, "hybrid" the
	// policy-driven class-routed store (see backends.Options.Policy).
	// Persistent backends are slower and used for I/O-cost experiments.
	Backend string
	// Store tunes the backend as backends.Open does: the LSM block cache,
	// shards, the hybrid's policy, the compaction budget. None of it
	// changes the trace or the census — only where pairs live and what the
	// I/O costs.
	Store backends.Options
	// TraceBootstrap routes the genesis state build through the tracer,
	// modelling the bulk state-download phase of snap synchronization
	// (§II-A): the trace then opens with the write burst a snap-syncing
	// node issues before block-by-block full sync takes over. The paper's
	// traces use full sync (bootstrap untraced), the default here.
	TraceBootstrap bool
	// Processor overrides the default processor configuration when set.
	Processor *chain.ProcessorConfig
	// Metrics, when set, instruments the backing store (per-op latency
	// histograms, store gauges) and records post-run cache hit rates into
	// the registry. Series carry a trace=<mode> label so the bare and
	// cached runs of RunBothConfigs share one registry without colliding.
	Metrics *obs.Registry
}

// Result is everything one run produces.
type Result struct {
	Mode  Mode
	Ops   []trace.Op         // in-memory trace (nil when traced to file)
	Path  string             // trace file path (when Dir set)
	Store *analysis.SizeDist // post-run store census
	Stats chain.Stats        // import counters
	// KVStats reports the backing store's I/O counters (persistent
	// backends).
	KVStats kv.Stats
}

// Run executes one full trace collection: genesis (untraced, mirroring the
// pre-existing 20.5M blocks), then traced block import, then the store
// census.
func Run(cfg Config) (*Result, error) {
	if cfg.Blocks <= 0 {
		return nil, fmt.Errorf("lab: block count must be positive")
	}
	// Backing store. A persistent run without a Dir keeps the trace in
	// memory and puts only the store itself in a throwaway temp directory.
	var storeDir string
	if cfg.Dir != "" {
		storeDir = StoreDir(cfg.Dir)
	} else if cfg.Backend != "" && cfg.Backend != "mem" {
		tmp, err := os.MkdirTemp("", "ethkv-store-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		storeDir = tmp
	}
	inner, err := openBackend(cfg, storeDir)
	if err != nil {
		return nil, err
	}
	defer inner.Close()

	// Tracing sink: file when Dir set, else in-memory.
	var (
		sink      trace.Sink
		slice     *trace.SliceSink
		writer    *trace.Writer
		tracePath string
	)
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		tracePath = filepath.Join(cfg.Dir, cfg.Mode.String()+".bin")
		writer, err = trace.Create(tracePath)
		if err != nil {
			return nil, err
		}
		sink = writer
	} else {
		slice = &trace.SliceSink{}
		sink = slice
	}
	// Observability sits between tracing and the raw store so op latencies
	// measure the store, not the trace encoder. Instrument is the identity
	// when Metrics is nil.
	backing := kv.Instrument(inner, cfg.Metrics, "trace", cfg.Mode.String())

	traced := trace.WrapStore(backing, sink)

	// Genesis: by default below the tracer — pre-existing state is not
	// traced (§III-B: the traces cover the 1M-block window over prior
	// state). With TraceBootstrap the state build itself is traced,
	// modelling snap sync's download phase.
	var genesisStore kv.Store = inner
	if cfg.TraceBootstrap {
		genesisStore = traced
	}
	genesis, err := (&chain.Genesis{
		Config:       cfg.Workload,
		SeedSnapshot: cfg.Mode == Cached,
	}).Commit(genesisStore)
	if err != nil {
		return nil, err
	}

	freezerDir := cfg.Dir
	if freezerDir == "" {
		freezerDir, err = os.MkdirTemp("", "ethkv-freezer-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(freezerDir)
	}
	freezer, err := rawdb.OpenFreezer(filepath.Join(freezerDir, "ancient"))
	if err != nil {
		return nil, err
	}
	defer freezer.Close()

	pcfg := chain.DefaultProcessorConfig(cfg.Mode == Cached)
	if cfg.Processor != nil {
		pcfg = *cfg.Processor
		pcfg.CachingEnabled = cfg.Mode == Cached
	}
	proc, err := chain.NewProcessor(traced, freezer, genesis, chain.NewWorkload(cfg.Workload), pcfg)
	if err != nil {
		return nil, err
	}
	if err := proc.ImportBlocks(cfg.Blocks); err != nil {
		return nil, err
	}
	if err := proc.Shutdown(); err != nil {
		return nil, err
	}
	// Flushing the tracer settles the backing store before the census (LSM:
	// the memtable, so amplification counters include the final flush) and
	// reports any trace sink failure.
	if err := traced.Flush(); err != nil {
		return nil, err
	}
	if writer != nil {
		if err := writer.Close(); err != nil {
			return nil, err
		}
	}

	// Cache effectiveness lands in the registry after the pipeline has
	// quiesced: the class LRUs are not safe for concurrent readers, so the
	// per-class counters are captured once here rather than exposed live.
	if cfg.Metrics != nil {
		if cm := proc.Caches(); cm != nil {
			mode := cfg.Mode.String()
			for _, cs := range cm.Stats() {
				cs := cs
				class := cs.Class.String()
				cfg.Metrics.GaugeFunc(obs.Name("ethkv_cache_hit_rate", "class", class, "trace", mode),
					func() float64 { return cs.HitRate })
				cfg.Metrics.GaugeFunc(obs.Name("ethkv_cache_hits", "class", class, "trace", mode),
					func() float64 { return float64(cs.Hits) })
				cfg.Metrics.GaugeFunc(obs.Name("ethkv_cache_misses", "class", class, "trace", mode),
					func() float64 { return float64(cs.Misses) })
				cfg.Metrics.GaugeFunc(obs.Name("ethkv_cache_bytes", "class", class, "trace", mode),
					func() float64 { return float64(cs.Bytes) })
			}
		}
	}
	census, err := analysis.CollectSizeDist(inner)
	if err != nil {
		return nil, fmt.Errorf("store census: %w", err)
	}
	result := &Result{
		Mode:  cfg.Mode,
		Path:  tracePath,
		Store: census,
		Stats: proc.Stats(),
	}
	if slice != nil {
		result.Ops = slice.Ops
	}
	if sp, ok := inner.(kv.StatsProvider); ok {
		result.KVStats = sp.Stats()
	}
	return result, nil
}

// StoreDir is where a run with Config.Dir = dir keeps its store: a
// subdirectory of its own, so the store's directory holds nothing else (a
// hybrid store refuses subdirectories that are not its routes).
func StoreDir(dir string) string { return filepath.Join(dir, "store") }

// openBackend constructs the store named by backend under dir through the
// shared internal/backends factory ("" = the in-memory reference store),
// so every factory kind — including the policy-driven hybrid — is
// runnable from the lab pipeline.
func openBackend(cfg Config, dir string) (kv.Store, error) {
	kind := cfg.Backend
	if kind == "" {
		kind = "mem"
	}
	s, err := backends.Open(kind, dir, cfg.Store)
	if err != nil {
		return nil, fmt.Errorf("lab: %w", err)
	}
	return s, nil
}

// RunBoth executes the bare and cached configurations over the same
// workload, the setup every comparative finding needs.
func RunBoth(blocks int, workload chain.WorkloadConfig) (bare, cached *Result, err error) {
	return RunBothConfigs(
		Config{Mode: Bare, Blocks: blocks, Workload: workload},
		Config{Mode: Cached, Blocks: blocks, Workload: workload})
}

// RunBothConfigs executes a bare and a cached configuration. The two runs
// are fully independent (separate stores, freezers, and sinks), so they
// execute concurrently.
func RunBothConfigs(bareCfg, cachedCfg Config) (bare, cached *Result, err error) {
	var (
		wg         sync.WaitGroup
		bErr, cErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		bare, bErr = Run(bareCfg)
	}()
	go func() {
		defer wg.Done()
		cached, cErr = Run(cachedCfg)
	}()
	wg.Wait()
	if bErr != nil {
		return nil, nil, fmt.Errorf("lab: bare run: %w", bErr)
	}
	if cErr != nil {
		return nil, nil, fmt.Errorf("lab: cached run: %w", cErr)
	}
	return bare, cached, nil
}

// BuildFindings assembles the Findings checker input from two in-memory
// runs.
func BuildFindings(bare, cached *Result) []analysis.Finding {
	input := analysis.BuildFindingsInput(cached.Ops, bare.Ops, cached.Store, bare.Store)
	return analysis.CheckFindings(input)
}
