// Command ethkvlab is the reproduction front end. With no subcommand it
// collects both traces over the same synthetic workload, runs every analysis
// of the paper, and prints every table and figure plus the 11-findings
// checklist. The subcommands are the paper artifact's tools, one job each:
//
//	ethkvlab -blocks 300 [-out artifacts]          the full report
//	ethkvlab gen -dir traces -blocks 1000          trace files (the modified Geth client)
//	ethkvlab opdist -trace T                       Tables II/III + Figure 3 (kvOpDistributionAnalysis.sh)
//	ethkvlab corr -trace T -op read|update         Figures 4-7 (read/updateCorrelationAnalysis.sh)
//	ethkvlab sizedist -backend lsm -db D           Table I + Figure 2 of gen's store (countKVSizeDistribution)
//	ethkvlab stat -trace T                         the untracked Table II/III census: per-class op counts and bytes
//
// `ethkvlab <subcommand> -h` lists a subcommand's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
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

// A command declares its flags on fs and returns what runs once fs is
// parsed.
type command func(fs *flag.FlagSet) func(stdout io.Writer) error

// commands maps subcommand names to commands; "" is the full report.
var commands = map[string]command{
	"":         reportCmd,
	"gen":      genCmd,
	"opdist":   opdistCmd,
	"corr":     corrCmd,
	"sizedist": sizedistCmd,
	"stat":     statCmd,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run dispatches args to a subcommand (the report when args names none)
// and writes its output to stdout.
func run(args []string, stdout io.Writer) error {
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	cmd, ok := commands[name]
	if !ok {
		return fmt.Errorf("unknown subcommand %q (want gen, opdist, corr, sizedist, stat, or none for the full report)", name)
	}
	fs := flag.NewFlagSet(strings.TrimSpace("ethkvlab "+name), flag.ContinueOnError)
	exec := cmd(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return exec(stdout)
}

// workloadFlags are the synthetic-workload flags of the commands that
// collect traces, over chain.DefaultWorkload.
type workloadFlags struct {
	blocks   int
	workload chain.WorkloadConfig
}

func addWorkloadFlags(fs *flag.FlagSet, blocks int) *workloadFlags {
	f := &workloadFlags{workload: chain.DefaultWorkload()}
	w := &f.workload
	fs.IntVar(&f.blocks, "blocks", blocks, "blocks per trace")
	fs.IntVar(&w.Accounts, "accounts", w.Accounts, "pre-seeded EOA population")
	fs.IntVar(&w.Contracts, "contracts", w.Contracts, "pre-seeded contract population")
	fs.IntVar(&w.TxPerBlock, "tx", w.TxPerBlock, "transactions per block")
	fs.Int64Var(&w.Seed, "seed", w.Seed, "workload RNG seed")
	return f
}

// labConfig is the run the workload and store flags describe.
func labConfig(wf *workloadFlags, sf *backends.Flags) (lab.Config, error) {
	backend, opts, err := sf.Options()
	return lab.Config{Blocks: wf.blocks, Workload: wf.workload, Backend: backend, Store: opts}, err
}

// traceCmd declares -trace for a single-trace analysis and returns the run
// that hands pass the open trace and its file name.
func traceCmd(fs *flag.FlagSet, pass func(w io.Writer, r *trace.Reader, name string) error) func(io.Writer) error {
	path := fs.String("trace", "", "trace file to analyze (from ethkvlab gen)")
	return func(stdout io.Writer) error {
		if *path == "" {
			return errors.New("-trace is required")
		}
		r, err := trace.OpenFile(*path)
		if err != nil {
			return err
		}
		defer r.Close()
		return pass(stdout, r, filepath.Base(*path))
	}
}

// reportCmd collects both traces and prints the paper's evaluation.
func reportCmd(fs *flag.FlagSet) func(io.Writer) error {
	wf := addWorkloadFlags(fs, 300)
	sf := backends.RegisterFlags(fs, "mem")
	outDir := fs.String("out", "", "also write the artifact-layout output tree to this directory")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address during the run; empty disables")
	return func(stdout io.Writer) error {
		var registry *obs.Registry
		if *metricsAddr != "" {
			registry = obs.NewRegistry()
			addr, err := obs.Serve(*metricsAddr, registry)
			if err != nil {
				return fmt.Errorf("metrics server: %w", err)
			}
			fmt.Fprintf(stdout, "metrics: http://%s/metrics   pprof: http://%s/debug/pprof/\n", addr, addr)
		}
		cfg, err := labConfig(wf, sf)
		if err != nil {
			return err
		}
		if pol := cfg.Store.Policy; pol != nil {
			fmt.Fprintf(stdout, "policy: %d classes over %d routes from %s\n",
				len(pol.Classes), len(pol.Routes), sf.Policy)
		}
		cfg.Metrics = registry

		start := time.Now()
		fmt.Fprintf(stdout, "== collecting traces: %d blocks, %d EOAs, %d contracts, %d tx/block\n",
			wf.blocks, wf.workload.Accounts, wf.workload.Contracts, wf.workload.TxPerBlock)
		bareCfg, cachedCfg := cfg, cfg
		bareCfg.Mode, cachedCfg.Mode = lab.Bare, lab.Cached
		bare, cached, err := lab.RunBothConfigs(bareCfg, cachedCfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "   BareTrace: %d ops   CacheTrace: %d ops   (%.1fs)\n",
			len(bare.Ops), len(cached.Ops), time.Since(start).Seconds())
		for _, r := range []*lab.Result{bare, cached} {
			st := r.KVStats
			switch cfg.Backend {
			case "lsm":
				fmt.Fprintf(stdout, "   %s lsm: block cache %d hits / %d misses (%.1f%% hit rate), bloom %d negatives / %d false positives\n",
					r.Mode, st.BlockCacheHits, st.BlockCacheMisses, 100*st.BlockCacheHitRate(),
					st.BloomNegatives, st.BloomFalsePositives)
			case "flat":
				fmt.Fprintf(stdout, "   %s flat: %d gets, %d positioned reads (incl. scans), %.1f MiB live / %.1f MiB dead, %d compactions\n",
					r.Mode, st.Gets, st.PhysicalReadOps,
					float64(st.LiveDataBytes)/(1<<20), float64(st.DeadDataBytes)/(1<<20),
					st.CompactionCount)
			}
		}
		fmt.Fprintln(stdout)
		if registry != nil {
			printOpLatencies(stdout, registry)
		}

		// One single-pass engine scan per trace feeds the op census and
		// both correlation analyses, the report and the artifact tree.
		in := analysis.BuildFindingsInput(cached.Ops, bare.Ops, cached.Store, bare.Store)
		report.WritePaper(stdout, in)

		if *outDir != "" {
			if err := lab.WriteArtifacts(filepath.Join(*outDir, "CacheTrace"),
				in.CachedStore, in.CachedOps, in.CachedReadCorr, in.CachedUpdateCorr); err != nil {
				return err
			}
			if err := lab.WriteArtifacts(filepath.Join(*outDir, "BareTrace"),
				in.BareStore, in.BareOps, in.BareReadCorr, in.BareUpdateCorr); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\nartifact output tree written to %s\n", *outDir)
		}
		fmt.Fprintf(stdout, "\ntotal runtime: %.1fs\n", time.Since(start).Seconds())
		return nil
	}
}

// printOpLatencies summarizes per-op store latency percentiles for both
// trace configurations from the shared registry.
func printOpLatencies(w io.Writer, registry *obs.Registry) {
	snap := registry.Snapshot()
	fmt.Fprintln(w, "== store op latency percentiles")
	for _, mode := range []string{lab.Bare.String(), lab.Cached.String()} {
		for _, op := range []string{"get", "put", "delete", "has", "scan", "batch"} {
			name := obs.Name("ethkv_op_latency_ns", "op", op, "trace", mode)
			h, ok := snap.Histograms[name]
			if !ok || h.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "   %-10s %-6s n=%-9d %s\n", mode, op, h.Count, obs.FormatQuantiles(h))
		}
	}
	fmt.Fprintln(w)
}

// genCmd collects CacheTrace/BareTrace files: it builds a genesis state and
// imports synthetic blocks through the instrumented Geth-style storage
// stack — the equivalent of running the paper's modified Geth client. A
// persistent -backend leaves the store behind for sizedist.
func genCmd(fs *flag.FlagSet) func(io.Writer) error {
	wf := addWorkloadFlags(fs, 1000)
	sf := backends.RegisterFlags(fs, "mem")
	dir := fs.String("dir", "traces", "output directory: one <mode> subdirectory per trace")
	mode := fs.String("mode", "both", "trace mode: bare, cached, or both")
	return func(stdout io.Writer) error {
		modes := map[string][]lab.Mode{
			"bare":   {lab.Bare},
			"cached": {lab.Cached},
			"both":   {lab.Bare, lab.Cached},
		}[*mode]
		if modes == nil {
			return fmt.Errorf("unknown -mode %q (want bare, cached, or both)", *mode)
		}
		cfg, err := labConfig(wf, sf)
		if err != nil {
			return err
		}
		for _, m := range modes {
			fmt.Fprintf(stdout, "collecting %s: %d blocks, %d accounts, %d contracts...\n",
				m, wf.blocks, wf.workload.Accounts, wf.workload.Contracts)
			cfg.Mode, cfg.Dir = m, filepath.Join(*dir, m.String())
			res, err := lab.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s run failed: %w", m, err)
			}
			fmt.Fprintf(stdout, "  trace: %s\n", res.Path)
			if cfg.Backend != "mem" {
				fmt.Fprintf(stdout, "  store: %s\n", lab.StoreDir(cfg.Dir))
			}
			fmt.Fprintf(stdout, "  blocks=%d txs=%d frozen=%d store-pairs=%d\n",
				res.Stats.Blocks, res.Stats.Txs, res.Stats.Frozen, res.Store.Total)
		}
		return nil
	}
}

// opdistCmd prints a trace's per-class operation mix (Tables II/III) and the
// per-key frequency summaries behind Figure 3.
func opdistCmd(fs *flag.FlagSet) func(io.Writer) error {
	return traceCmd(fs, func(w io.Writer, r *trace.Reader, name string) error {
		dist, err := analysis.CollectOpDist(r, nil)
		if err != nil {
			return err
		}
		report.WriteOpTable(w, name, dist)
		report.WriteFigure3(w, name, dist)
		return nil
	})
}

// corrCmd runs the distance-based correlation analysis over a trace: the
// top class-pair correlated counts per distance (Figures 4/6) and the
// per-key-pair frequency distributions at analysis.NearDistance and
// analysis.FarDistance (5/7).
func corrCmd(fs *flag.FlagSet) func(io.Writer) error {
	op := fs.String("op", "read", "correlation stream: read or update")
	topN := fs.Int("top", 3, "class pairs to report per panel")
	return traceCmd(fs, func(w io.Writer, r *trace.Reader, name string) error {
		var typ trace.OpType
		switch *op {
		case "read":
			typ = trace.OpRead
		case "update":
			typ = trace.OpUpdate
		default:
			return fmt.Errorf("unknown -op %q (want read or update)", *op)
		}
		corr, err := analysis.CollectCorrelations(r, typ)
		if err != nil {
			return err
		}
		name += " (" + *op + ")"
		report.WriteCorrelationFigure(w, name, corr, *topN)
		report.WriteFrequencyFigure(w, name, corr, *topN)
		return nil
	})
}

// sizedistCmd censuses the store a persistent `gen` left behind and prints
// the per-class pair counts and size distributions (Table I, Figure 2). The
// store opens through the backend factory, so -backend (and -policy,
// -shards) must be what gen ran with: Open refuses any other layout the
// store directory records. A directory without a record is adopted under the
// flags given, so the empty-store check below still catches a wrong -backend
// there.
func sizedistCmd(fs *flag.FlagSet) func(io.Writer) error {
	db := fs.String("db", "", "store directory: the store: line gen printed")
	sf := backends.RegisterFlags(fs, "lsm")
	return func(stdout io.Writer) error {
		if *db == "" {
			return errors.New("-db is required")
		}
		// Opening a missing directory would create an empty store there.
		if _, err := os.Stat(*db); err != nil {
			return err
		}
		kind, opts, err := sf.Options()
		if err != nil {
			return err
		}
		store, err := backends.Open(kind, *db, opts)
		if err != nil {
			return err
		}
		defer store.Close()
		dist, err := analysis.CollectSizeDist(store)
		if err != nil {
			return err
		}
		if dist.Total == 0 {
			return fmt.Errorf("%s holds no %s store: pass the -backend gen ran with", *db, kind)
		}
		report.WriteTable1(stdout, dist)
		report.WriteFigure2(stdout, dist, analysis.DefaultTrackedClasses())
		return nil
	}
}

// statCmd prints a trace's untracked Table II/III census — per-class op
// counts and byte volumes without the per-key maps — a first look before
// the heavier analyses.
func statCmd(fs *flag.FlagSet) func(io.Writer) error {
	return traceCmd(fs, func(w io.Writer, r *trace.Reader, _ string) error {
		dist, err := analysis.CollectOpDist(r, []rawdb.Class{})
		if err != nil {
			return err
		}
		report.WriteTraceStat(w, dist)
		return nil
	})
}
