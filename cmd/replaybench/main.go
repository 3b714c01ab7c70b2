// Command replaybench replays a recorded trace file against a chosen
// storage backend and reports its I/O costs — the workload-driven way to
// compare store designs (§V) on measured rather than synthetic access
// patterns.
//
// With -metrics-addr the run exposes live Prometheus metrics (per-op latency
// histograms, store internals) and the net/http/pprof surface, and the final
// report includes per-op latency percentiles.
//
// With -serve the tool becomes a load generator against a remote kvserver:
// -clients concurrent workers replay disjoint stripes of the trace through
// one batching kvnet client, and the report shows wall-clock op/s per client
// and overall plus the achieved coalescing (mean ops per frame).
//
// Usage:
//
//	replaybench -trace traces/BareTrace/BareTrace.bin -backend lsm
//	replaybench -trace traces/BareTrace/BareTrace.bin -backend hybrid \
//	    -metrics-addr 127.0.0.1:8321 -metrics-hold 30s
//	replaybench -trace traces/BareTrace/BareTrace.bin \
//	    -serve 127.0.0.1:9420 -clients 64 -conns 4 -duration 30s
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
	"sync"
	"time"

	"ethkv/internal/backends"
	"ethkv/internal/hybrid"
	"ethkv/internal/kv"
	"ethkv/internal/kvnet"
	"ethkv/internal/obs"
	"ethkv/internal/policy"
	"ethkv/internal/report"
	"ethkv/internal/trace"
)

// progressChunk is how many trace ops replay between progress lines when a
// metrics registry is active.
const progressChunk = 200_000

func main() {
	var (
		tracePath    = flag.String("trace", "", "trace file to replay")
		policyOut    = flag.String("policy-out", "", "where -policy auto writes the derived policy (default: policy-derived.json next to the trace)")
		dir          = flag.String("dir", "", "working directory (default: temp)")
		censusPath   = flag.String("census", "", "after the replay, write a post-state census (Table I plus an order-independent content digest) to this file; byte-identical across backends iff the stores hold identical data")
		metricsAddr  = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. 127.0.0.1:8321); empty disables")
		metricsHold  = flag.Duration("metrics-hold", 0, "keep the metrics server up this long after the replay finishes (for scraping/profiling a finished run)")
		duration     = flag.Duration("duration", 0, "stop replaying after this long, even mid-trace (0 = replay everything)")
		shardSweep   = flag.String("shard-sweep", "", "comma-separated shard counts (e.g. 1,2,4,8,16): replay the trace once per count with -sweep-workers concurrent workers and report the scaling curve")
		sweepWorkers = flag.Int("sweep-workers", 8, "concurrent replay workers per sweep point in -shard-sweep mode")
		storeFlags   = backends.RegisterFlags(flag.CommandLine, "lsm")

		serveAddr = flag.String("serve", "", "replay against a remote kvserver at this address instead of a local backend")
		clients   = flag.Int("clients", 16, "concurrent replay workers in -serve mode")
		conns     = flag.Int("conns", 4, "TCP connections the kvnet client multiplexes over in -serve mode")
		batchOps  = flag.Int("batch-ops", 0, "max point ops per coalesced frame in -serve mode (1 disables batching, 0 = client default)")
		window    = flag.Int("window", 0, "max in-flight frames per connection in -serve mode (0 = client default)")
	)
	// This tool alone can derive the policy it runs under.
	flag.Lookup("policy").Usage = "per-class storage policy for the hybrid backend: a policy JSON file, or \"auto\" to derive one from the trace's census (implies -backend hybrid)"
	flag.Lookup("block-cache-mb").Usage = "LSM block cache budget in MiB (0 = store default, negative disables; lsm/lazy/hybrid backends)"
	flag.Parse()
	if *tracePath == "" {
		log.Fatal("usage: replaybench -trace <file> [-backend <" + backends.Kinds() + "> | -policy <file|auto> | -serve <addr>]")
	}
	if storeFlags.Policy != "" && (*serveAddr != "" || *shardSweep != "") {
		log.Fatal("-policy is a local single-store mode; it cannot combine with -serve or -shard-sweep")
	}
	if *serveAddr != "" {
		ops, err := loadOps(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := runServe(*serveAddr, ops, *clients, *conns, *batchOps, *window, *duration); err != nil {
			log.Fatal(err)
		}
		return
	}

	workDir := *dir
	if workDir == "" {
		var err error
		workDir, err = os.MkdirTemp("", "replaybench-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(workDir)
	}

	// -policy auto is derived below, from the trace; a file is loaded here.
	autoPolicy := storeFlags.Policy == "auto"
	if autoPolicy {
		storeFlags.Policy = ""
	}
	backend, opts, err := storeFlags.Options()
	if err != nil {
		log.Fatal(err)
	}

	if *shardSweep != "" {
		ops, err := loadOps(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		counts, err := parseSweepCounts(*shardSweep)
		if err != nil {
			log.Fatal(err)
		}
		if err := runShardSweep(ops, backend, workDir, opts, counts, *sweepWorkers); err != nil {
			log.Fatal(err)
		}
		return
	}

	var registry *obs.Registry
	if *metricsAddr != "" {
		registry = obs.NewRegistry()
		addr, err := obs.Serve(*metricsAddr, registry)
		if err != nil {
			log.Fatalf("metrics server: %v", err)
		}
		fmt.Printf("metrics: http://%s/metrics   pprof: http://%s/debug/pprof/\n", addr, addr)
	}

	// Ops load before the store opens: -policy auto derives the policy
	// from the trace census, which must exist before construction.
	ops, err := loadOps(*tracePath)
	if err != nil {
		log.Fatal(err)
	}
	if autoPolicy {
		backend, opts.Policy = "hybrid", policy.Derive(policy.CollectCensus(ops))
		out := *policyOut
		if out == "" {
			out = filepath.Join(filepath.Dir(*tracePath), "policy-derived.json")
		}
		if err := opts.Policy.Save(out); err != nil {
			log.Fatalf("policy: %v", err)
		}
		fmt.Printf("derived policy (%d classes over %d routes) written to %s\n",
			len(opts.Policy.Classes), len(opts.Policy.Routes), out)
	}

	raw, err := backends.Open(backend, workDir, opts)
	if err != nil {
		log.Fatal(err)
	}
	// Instrument is a no-op when registry is nil.
	store := kv.Instrument(raw, registry, "store", backend)
	defer store.Close()
	fmt.Printf("replaying %d ops against %s...\n", len(ops), backend)
	start := time.Now()
	res, err := replayWithProgress(store, ops, registry, start, *duration)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("ops: %d (reads %d, writes %d, deletes %d, scans %d) in %.2fs (%.0f ops/s)\n",
		res.Ops, res.Reads, res.Writes, res.Deletes, res.Scans,
		elapsed.Seconds(), float64(res.Ops)/elapsed.Seconds())
	st := res.Stats
	fmt.Printf("physical: %.1f MiB written, %.1f MiB read\n",
		float64(st.PhysicalBytesWrite)/(1<<20), float64(st.PhysicalBytesRead)/(1<<20))
	fmt.Printf("write amplification: %.2f   read amplification: %.2f\n",
		st.WriteAmplification(), st.ReadAmplification())
	fmt.Printf("tombstones live: %d   compactions: %d\n",
		st.TombstonesLive, st.CompactionCount)
	// Stall share and debt peak make compaction-scheduler regressions
	// visible in the plain summary, without a Prometheus scrape.
	wallShare := func(nanos uint64) float64 {
		if elapsed <= 0 {
			return 0
		}
		return 100 * float64(nanos) / float64(elapsed.Nanoseconds())
	}
	fmt.Printf("write stalls: %d (%.1f%% of wall time stalled: %.1f%% flush queue, %.1f%% L0 stop; flush jobs %.1f%% in table writes, %.1f%% in manifest commits)   compaction debt peak: %.1f MiB\n",
		st.WriteStalls, wallShare(st.WriteStallNanos),
		wallShare(st.WriteStallQueueNanos), wallShare(st.WriteStallL0Nanos),
		wallShare(st.FlushTableNanos), wallShare(st.ManifestNanos),
		float64(st.CompactionDebtPeak)/(1<<20))
	fmt.Printf("compaction concurrency: max %d in flight, %d sub-compactions, %.2fs with >=2 overlapped\n",
		st.MaxConcurrentCompactions, st.SubCompactions,
		time.Duration(st.CompactionParallelNanos).Seconds())
	// The durable write path's device cost; all zero with the WAL off.
	fmt.Printf("wal syncs: %d (%.1f%% of wall time inside the barrier; %d commits shared another's)   manifest writes: %d\n",
		st.WALSyncs, wallShare(st.WALSyncNanos), st.WALSharedCommits, st.ManifestWrites)
	fmt.Printf("io retries: %d   degraded: %d\n",
		st.IORetries, st.Degraded)
	if hs, ok := raw.(*hybrid.Store); ok {
		per := hs.BackendStats()
		for _, name := range hs.Backends() {
			rs := per[name]
			fmt.Printf("route %-12s gets=%d puts=%d deletes=%d  %.1f MiB written, %.1f MiB read\n",
				name, rs.Gets, rs.Puts, rs.Deletes,
				float64(rs.PhysicalBytesWrite)/(1<<20), float64(rs.PhysicalBytesRead)/(1<<20))
		}
	}
	if st.BlockCacheHits+st.BlockCacheMisses > 0 {
		fmt.Printf("block cache: %d hits, %d misses (%.1f%% hit rate), %d evictions, %.1f KiB pinned\n",
			st.BlockCacheHits, st.BlockCacheMisses, 100*st.BlockCacheHitRate(),
			st.BlockCacheEvictions, float64(st.BlockCachePinnedBytes)/(1<<10))
		fmt.Printf("bloom: %d negatives short-circuited, %d false positives\n",
			st.BloomNegatives, st.BloomFalsePositives)
	}
	if *censusPath != "" {
		if err := writeCensus(store, *censusPath); err != nil {
			log.Fatalf("census: %v", err)
		}
		fmt.Printf("census written to %s\n", *censusPath)
	}
	if registry != nil {
		printLatencySummary(registry, backend)
		if *metricsHold > 0 {
			fmt.Printf("holding metrics server for %s...\n", *metricsHold)
			time.Sleep(*metricsHold)
		}
	}
}

// replayWithProgress replays ops in chunks, emitting one structured progress
// line per chunk when metrics are on: position, throughput, and live get/put
// latency percentiles from the registry. A nonzero duration caps the replay
// wall-clock; the cap is checked between chunks. Without a registry or a
// cap it is a single plain Replay call.
func replayWithProgress(store kv.Store, ops []trace.Op, registry *obs.Registry, start time.Time, duration time.Duration) (*hybrid.ReplayResult, error) {
	if registry == nil && duration <= 0 {
		return hybrid.Replay(store, ops)
	}
	var deadline time.Time
	if duration > 0 {
		deadline = start.Add(duration)
	}
	total := &hybrid.ReplayResult{}
	for off := 0; off < len(ops); off += progressChunk {
		if !deadline.IsZero() && time.Now().After(deadline) {
			fmt.Printf("duration cap reached at op %d/%d\n", off, len(ops))
			break
		}
		end := off + progressChunk
		if end > len(ops) {
			end = len(ops)
		}
		res, err := hybrid.Replay(store, ops[off:end])
		if err != nil {
			return nil, err
		}
		total.Ops += res.Ops
		total.Reads += res.Reads
		total.Writes += res.Writes
		total.Deletes += res.Deletes
		total.Scans += res.Scans
		total.Stats = res.Stats // stats are cumulative on the store
		if registry != nil {
			elapsed := time.Since(start)
			snap := registry.Snapshot()
			fmt.Printf("progress ops=%d/%d ops_per_sec=%.0f get{%s} put{%s}\n",
				end, len(ops), float64(total.Ops)/elapsed.Seconds(),
				quantilesFor(snap, "get"), quantilesFor(snap, "put"))
		}
	}
	return total, nil
}

// runServe replays the trace against a remote kvserver: clients workers
// replay disjoint stripes of the op stream through one batching kvnet
// client, so concurrent workers' point ops coalesce into shared frames
// exactly as a real multi-tenant front end's would.
func runServe(addr string, ops []trace.Op, clients, conns, batchOps, window int, duration time.Duration) error {
	if clients < 1 {
		clients = 1
	}
	c, err := kvnet.Dial(addr, kvnet.ClientOptions{
		Conns:       conns,
		BatchMaxOps: batchOps,
		Window:      window,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	// Stripe the trace across workers: worker w replays ops w, w+N, w+2N...
	// striping (rather than contiguous shards) keeps every worker inside
	// the same temporal region of the workload at the same time.
	shards := make([][]trace.Op, clients)
	for i, op := range ops {
		w := i % clients
		shards[w] = append(shards[w], op)
	}

	fmt.Printf("serving replay: %d ops, %d clients, %d conns, batch-ops=%d, window=%d against %s\n",
		len(ops), clients, conns, batchOps, window, addr)
	start := time.Now()
	var deadline time.Time
	if duration > 0 {
		deadline = start.Add(duration)
	}

	type workerResult struct {
		ops     uint64
		elapsed time.Duration
		err     error
	}
	results := make([]workerResult, clients)
	// serveChunk bounds how stale the deadline check can get.
	const serveChunk = 4096
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wStart := time.Now()
			shard := shards[w]
			for off := 0; off < len(shard); off += serveChunk {
				if !deadline.IsZero() && time.Now().After(deadline) {
					break
				}
				end := off + serveChunk
				if end > len(shard) {
					end = len(shard)
				}
				res, err := hybrid.Replay(c, shard[off:end])
				if res != nil {
					results[w].ops += res.Ops
				}
				if err != nil {
					results[w].err = err
					break
				}
			}
			results[w].elapsed = time.Since(wStart)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var totalOps uint64
	for w, r := range results {
		if r.err != nil {
			return fmt.Errorf("client %d: %w", w, r.err)
		}
		totalOps += r.ops
		fmt.Printf("client %02d: %d ops in %.2fs (%.0f op/s)\n",
			w, r.ops, r.elapsed.Seconds(), float64(r.ops)/r.elapsed.Seconds())
	}
	fmt.Printf("overall: %d ops in %.2fs (%.0f op/s)\n",
		totalOps, elapsed.Seconds(), float64(totalOps)/elapsed.Seconds())
	ns := c.NetStats()
	fmt.Printf("transport: %d frames (%d op frames, mean batch %.1f ops), %.1f MiB sent, %.1f MiB received\n",
		ns.FramesSent, ns.OpFrames, ns.MeanBatch(),
		float64(ns.BytesSent)/(1<<20), float64(ns.BytesRecv)/(1<<20))
	st := c.Stats()
	fmt.Printf("server store: %.1f MiB written, %.1f MiB read (WA %.2f, RA %.2f)\n",
		float64(st.PhysicalBytesWrite)/(1<<20), float64(st.PhysicalBytesRead)/(1<<20),
		st.WriteAmplification(), st.ReadAmplification())
	return nil
}

// quantilesFor summarizes one op's latency histogram from a snapshot,
// aggregating across label sets (store=...) that share the op.
func quantilesFor(snap obs.Snapshot, op string) string {
	for name, h := range snap.Histograms {
		if h.Count > 0 && strings.HasPrefix(name, "ethkv_op_latency_ns{") &&
			strings.Contains(name, `op="`+op+`"`) {
			return obs.FormatQuantiles(h)
		}
	}
	return "no samples"
}

// printLatencySummary prints final per-op latency percentiles.
func printLatencySummary(registry *obs.Registry, backend string) {
	snap := registry.Snapshot()
	fmt.Println("op latency percentiles:")
	for _, op := range []string{"get", "put", "delete", "has", "scan", "batch"} {
		name := obs.Name("ethkv_op_latency_ns", "op", op, "store", backend)
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Printf("  %-6s n=%-9d %s\n", op, h.Count, obs.FormatQuantiles(h))
	}
}

// writeCensus writes the post-replay census (report.WriteCensus) to path.
func writeCensus(store kv.Store, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.WriteCensus(f, store); err != nil {
		return err
	}
	return f.Close()
}

// loadOps reads the whole trace into memory via the batched reader path
// (replays revisit nothing, but Replay takes a slice; traces at tool scale
// fit comfortably).
func loadOps(path string) ([]trace.Op, error) {
	r, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var ops []trace.Op
	batch := make([]trace.Op, 8192)
	for {
		n, err := r.NextBatch(batch)
		ops = append(ops, batch[:n]...)
		if errors.Is(err, io.EOF) {
			return ops, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
