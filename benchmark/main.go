// Command benchmark is the repo's benchmark: it generates a Geth-shaped KV
// trace from a seed, replays it closed-loop through four compositions of the
// stack kvnet -> shard -> hybrid/policy -> lsm | flatstore | hashstore,
// checks the resulting state against an in-memory oracle, and prints every
// metric BENCHMARK.json names. See README.md.
//
//	bash benchmark/run.sh --workload mixed_lsm_local --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupRounds is how many times a run sets the workload up from scratch
// (trace, oracle, open, preload); setup_s is the median round.
const setupRounds = 2

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	dir      string
	scale    scale
	corrupt  bool // tests only: damage the final state before verification
}

func main() {
	var (
		opt    options
		trace  int
		noiseN int
		spec   string
	)
	flag.StringVar(&opt.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated trace")
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	flag.StringVar(&opt.dir, "dir", ".work", "scratch directory for stores and spans.json")
	flag.IntVar(&noiseN, "noise", 0, "run every workload this many times as two interleaved sets and compare the sets against the bounds")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "benchmark definition, for -noise")
	flag.Parse()
	opt.traced = trace != 0
	opt.scale = benchScale

	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		fatal(err)
	}
	// lab.Run keeps its freezer in the temp directory; keep that inside the
	// scratch directory too.
	abs, err := filepath.Abs(opt.dir)
	if err != nil {
		fatal(err)
	}
	opt.dir = abs
	os.Setenv("TMPDIR", abs)

	if noiseN > 0 {
		os.Exit(runNoise(noiseN, spec, opt))
	}
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = names[:0]
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	}
	ok := true
	for _, name := range names {
		wl, found := workloadByName(name)
		if !found {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		rep, err := run(wl, opt)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		ok = ok && rep.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run sets a workload up, runs its timed phase (two of them with tracing:
// untraced for reference, then traced), and prints the stamp and the metrics.
func run(wl *workload, opt options) (*report, error) {
	var (
		setups []float64
		prep   *prepared
		in     *input
	)
	for round := 0; round < setupRounds; round++ {
		start := time.Now()
		var err error
		if in, err = newInput(opt.seed, opt.scale); err != nil {
			return nil, err
		}
		if prep, err = prepare(wl, in, workDir(opt.dir, round), false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if round < setupRounds-1 {
			if err := prep.discard(); err != nil {
				return nil, err
			}
		}
	}
	sort.Float64s(setups)
	setupS := setups[len(setups)/2]

	printStamp(wl, in, opt)
	res, err := prep.runTimed(opt.seconds, opt.corrupt)
	if err != nil {
		return nil, err
	}
	values := res.endToEnd(setupS)
	defs := endToEndDefs
	if opt.traced {
		untraced := res
		if prep, err = prepare(wl, in, workDir(opt.dir, setupRounds), true); err != nil {
			return nil, err
		}
		if res, err = prep.runTimed(opt.seconds, false); err != nil {
			return nil, err
		}
		values, defs = res.perLayer(untraced), perLayerDefs
		printSeamTable(res)
		spans := filepath.Join(opt.dir, "spans-"+wl.name+".json")
		if err := res.rec.writeChromeTrace(spans, spanSampleEvery); err != nil {
			return nil, err
		}
		fmt.Printf("spans: 1 in %d written to %s\n", spanSampleEvery, spans)
		// A wrong state in either phase voids the run.
		res.failed += untraced.failed
		res.problems = append(untraced.problems, res.problems...)
	}

	rep := &report{
		Correct: res.failed == 0 && len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	fmt.Printf("passes: %v   ops: %d   unsampled calls: %d   wall: %.3fs (settle %.3fs)   peak RSS reset: %v\n",
		passesOf(res), res.ops(), res.unsampled(), res.wallS(), res.settleS, res.rssResettable)
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		fmt.Printf("%-36s %16.6f %s\n", d.name, values[d.name], d.unit)
	}
	for _, p := range res.problems {
		fmt.Printf("FAILED: %s\n", p)
	}
	return rep, nil
}

// spanSampleEvery thins the Chrome trace to a size a browser opens.
const spanSampleEvery = 64

func passesOf(r *phaseResult) []int {
	var out []int
	for _, c := range r.clients {
		out = append(out, c.passes)
	}
	return out
}

func printHost() {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s   revision: %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}

func printStamp(wl *workload, in *input, opt options) {
	fmt.Printf("workload: %s   traced: %v   seed: %d   seconds: %g\n", wl.name, opt.traced, opt.seed, opt.seconds)
	printHost()
	fmt.Printf("trace: digest=%s blocks=%d ops=%d (reads %d, writes+deletes %d, scans %d)   live: %d pairs, %.1f MiB\n",
		in.digest, in.scale.blocks, len(in.ops), in.reads, in.writes, in.scans, in.livePairs, float64(in.liveBytes)/(1<<20))
}

func printSeamTable(r *phaseResult) {
	fmt.Printf("%-14s %-7s %10s %12s %10s %10s\n", "seam", "op", "count", "total_ms", "p50_us", "p99_us")
	for _, row := range r.rec.table() {
		fmt.Printf("%-14s %-7s %10d %12.3f %10.3f %10.3f\n", row.seam, row.op, row.count, row.totalMs, row.p50us, row.p99us)
	}
}
