// Package ethkv is the public facade of the Ethereum KV-workload analysis
// lab: a from-scratch reproduction of "An Analysis of Ethereum Workloads
// from a Key-Value Storage Perspective" (IISWC 2025).
//
// The package re-exports the experiment pipeline's entry points so
// downstream users drive everything through one import:
//
//	bare, cached, err := ethkv.CollectTraces(300, ethkv.DefaultWorkload())
//	findings := ethkv.CheckFindings(bare, cached)
//	for _, f := range findings {
//	    fmt.Printf("Finding %d holds=%v: %s\n", f.ID, f.Holds, f.Evidence)
//	}
//
// Specialized surfaces live in the internal packages and are exercised by
// the command-line tools (cmd/) and examples (examples/):
//
//   - internal/lab: experiment orchestration (modes, file traces, LSM runs)
//   - internal/analysis: censuses, read ratios, correlation passes
//   - internal/trace: the binary trace format and the instrumented store
//   - internal/chain + internal/state + internal/trie + internal/snapshot
//   - internal/rawdb: the Geth-shaped storage stack
//   - internal/lsm, internal/flatstore: the ordered store and the
//     single-seek point store the paper's §V design pairs
//   - internal/fanout, with internal/shard and internal/hybrid on top: one
//     partition-function core composing those stores by key hash or by
//     class policy; internal/backends builds every composition by name
package ethkv

import (
	"io"

	"ethkv/internal/analysis"
	"ethkv/internal/chain"
	"ethkv/internal/lab"
	"ethkv/internal/report"
	"ethkv/internal/trace"
)

// WorkloadConfig tunes the synthetic workload generator.
type WorkloadConfig = chain.WorkloadConfig

// DefaultWorkload returns the configuration the paper-reproduction
// experiments use (20k EOAs, 1.5k contracts, 150 tx/block, seed 42).
func DefaultWorkload() WorkloadConfig { return chain.DefaultWorkload() }

// Result is one trace-collection run's output: the in-memory op stream,
// the post-run store census, and the import counters.
type Result = lab.Result

// Finding is one of the paper's 11 findings with its measured evidence.
type Finding = analysis.Finding

// Op is one traced KV operation.
type Op = trace.Op

// Trace modes.
const (
	// Bare reproduces BareTrace: no caching, no snapshot acceleration.
	Bare = lab.Bare
	// Cached reproduces CacheTrace: caching + snapshot acceleration.
	Cached = lab.Cached
)

// CollectTraces runs the full pipeline twice over the same workload — once
// bare, once cached — and returns both results. This is the setup every
// comparative finding needs.
func CollectTraces(blocks int, workload WorkloadConfig) (bare, cached *Result, err error) {
	return lab.RunBoth(blocks, workload)
}

// Collect runs a single trace-collection pass in the given mode.
func Collect(mode lab.Mode, blocks int, workload WorkloadConfig) (*Result, error) {
	return lab.Run(lab.Config{Mode: mode, Blocks: blocks, Workload: workload})
}

// CheckFindings evaluates all 11 findings of the paper against a bare and
// a cached run, returning them in paper order.
func CheckFindings(bare, cached *Result) []Finding {
	return lab.BuildFindings(bare, cached)
}

// WriteReport renders the full report — every table and figure plus the
// findings checklist — to w, scanning each trace once.
func WriteReport(w io.Writer, bare, cached *Result) {
	report.WritePaper(w, analysis.BuildFindingsInput(cached.Ops, bare.Ops, cached.Store, bare.Store))
}

// OpenTrace opens a trace file written by Collect with a Dir-configured
// run or by `ethkvlab gen`, for streaming analysis.
func OpenTrace(path string) (*trace.Reader, error) {
	return trace.OpenFile(path)
}
