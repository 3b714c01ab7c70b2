// Command replaybench replays a recorded trace file against a chosen
// storage backend and reports its I/O costs — the workload-driven way to
// compare store designs (§V) on measured rather than synthetic access
// patterns.
//
// After the replay the store is settled (its buffered writes flushed) and
// scanned once, and the report ends with the bytes its directory holds per
// file kind once closed, and their ratio to the live key and value bytes
// the scan read: the store's space amplification. -census writes that
// scan's census too.
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
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"ethkv/internal/backends"
	"ethkv/internal/hybrid"
	"ethkv/internal/kv"
	"ethkv/internal/kvnet"
	"ethkv/internal/lsm"
	"ethkv/internal/obs"
	"ethkv/internal/policy"
	"ethkv/internal/report"
	"ethkv/internal/trace"
)

// progressChunk is how many trace ops replay between progress lines (with
// metrics on) and between checks for an early stop.
const progressChunk = 200_000

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The first signal ends the replay early; a second one kills as usual.
	context.AfterFunc(ctx, stop)
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run replays the trace the flags name and reports to stdout. A done ctx
// ends the replay (and the -metrics-hold wait) early, reporting what ran.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replaybench", flag.ContinueOnError)
	var (
		tracePath   = fs.String("trace", "", "trace file to replay")
		policyOut   = fs.String("policy-out", "", "where -policy auto writes the derived policy (default: policy-derived.json next to the trace)")
		dir         = fs.String("dir", "", "working directory (default: temp)")
		censusPath  = fs.String("census", "", "after the replay, write a post-state census (Table I plus an order-independent content digest) to this file; byte-identical across backends iff the stores hold identical data")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. 127.0.0.1:8321); empty disables")
		metricsHold = fs.Duration("metrics-hold", 0, "keep the metrics server up this long after the replay finishes (for scraping/profiling a finished run)")
		duration    = fs.Duration("duration", 0, "stop replaying after this long, even mid-trace (0 = replay everything)")
		storeFlags  = backends.RegisterFlags(fs, "lsm")

		serveAddr = fs.String("serve", "", "replay against a remote kvserver at this address instead of a local backend")
		clients   = fs.Int("clients", 16, "concurrent replay workers in -serve mode")
		conns     = fs.Int("conns", 4, "TCP connections the kvnet client multiplexes over in -serve mode")
		batchOps  = fs.Int("batch-ops", 0, "max point ops per coalesced frame in -serve mode (1 disables batching, 0 = client default)")
		window    = fs.Int("window", 0, "max in-flight frames per connection in -serve mode (0 = client default)")
	)
	// This tool alone can derive the policy it runs under.
	fs.Lookup("policy").Usage = "per-class storage policy for the hybrid backend: a policy JSON file, or \"auto\" to derive one from the trace's census (implies -backend hybrid)"
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return errors.New("usage: replaybench -trace <file> [-backend <" + backends.Kinds() + "> | -policy <file|auto> | -serve <addr>]")
	}
	if storeFlags.Policy != "" && *serveAddr != "" {
		return errors.New("-policy is a local single-store mode; it cannot combine with -serve")
	}
	// Ops load before any store opens: -policy auto derives the policy
	// from the trace census, which must exist before construction.
	ops, err := loadOps(*tracePath)
	if err != nil {
		return err
	}
	if *serveAddr != "" {
		return runServe(ctx, stdout, *serveAddr, ops, *clients, *conns, *batchOps, *window, *duration)
	}

	workDir := *dir
	if workDir == "" {
		workDir, err = os.MkdirTemp("", "replaybench-*")
		if err != nil {
			return err
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
		return err
	}

	var registry *obs.Registry
	if *metricsAddr != "" {
		registry = obs.NewRegistry()
		addr, err := obs.Serve(*metricsAddr, registry)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		fmt.Fprintf(stdout, "metrics: http://%s/metrics   pprof: http://%s/debug/pprof/\n", addr, addr)
	}

	if autoPolicy {
		backend, opts.Policy = "hybrid", policy.Derive(policy.CollectCensus(ops))
		out := *policyOut
		if out == "" {
			out = filepath.Join(filepath.Dir(*tracePath), "policy-derived.json")
		}
		if err := opts.Policy.Save(out); err != nil {
			return fmt.Errorf("policy: %w", err)
		}
		fmt.Fprintf(stdout, "derived policy (%d classes over %d routes) written to %s\n",
			len(opts.Policy.Classes), len(opts.Policy.Routes), out)
	}

	raw, err := backends.Open(backend, workDir, opts)
	if err != nil {
		return err
	}
	// Instrument is a no-op when registry is nil.
	store := kv.Instrument(raw, registry, "store", backend)
	defer store.Close()
	fmt.Fprintf(stdout, "replaying %d ops against %s...\n", len(ops), backend)
	start := time.Now()
	res, err := replayWithProgress(ctx, stdout, store, ops, registry, start, *duration)
	if err != nil {
		return err
	}
	if err := res.Settle(store); err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "ops: %d (reads %d, writes %d, deletes %d, scans %d) in %.2fs (%.0f ops/s)\n",
		res.Ops, res.Reads, res.Writes, res.Deletes, res.Scans,
		elapsed.Seconds(), float64(res.Ops)/elapsed.Seconds())
	st := res.Stats
	fmt.Fprintf(stdout, "physical: %.1f MiB written, %.1f MiB read\n",
		float64(st.PhysicalBytesWrite)/(1<<20), float64(st.PhysicalBytesRead)/(1<<20))
	fmt.Fprintf(stdout, "write amplification: %.2f   read amplification: %.2f\n",
		st.WriteAmplification(), st.ReadAmplification())
	fmt.Fprintf(stdout, "tombstones live: %d   compactions: %d (trivial moves: %d, %.1f MiB relinked)\n",
		st.TombstonesLive, st.CompactionCount, st.TrivialMoves, float64(st.TrivialMoveBytes)/(1<<20))
	// Stall share and debt peak make compaction-scheduler regressions
	// visible in the plain summary, without a Prometheus scrape.
	wallShare := func(nanos uint64) float64 {
		if elapsed <= 0 {
			return 0
		}
		return 100 * float64(nanos) / float64(elapsed.Nanoseconds())
	}
	fmt.Fprintf(stdout, "write stalls: %d (%.1f%% of wall time stalled: %.1f%% flush queue, %.1f%% L0 stop; flush jobs %.1f%% in table writes, %.1f%% in manifest commits)   compaction debt peak: %.1f MiB\n",
		st.WriteStalls, wallShare(st.WriteStallNanos),
		wallShare(st.WriteStallQueueNanos), wallShare(st.WriteStallL0Nanos),
		wallShare(st.FlushTableNanos), wallShare(st.ManifestNanos),
		float64(st.CompactionDebtPeak)/(1<<20))
	// The durable write path's device cost; all zero with the WAL off.
	fmt.Fprintf(stdout, "wal syncs: %d (%.1f%% of wall time inside the barrier; %d commits shared another's)   manifest writes: %d\n",
		st.WALSyncs, wallShare(st.WALSyncNanos), st.WALSharedCommits, st.ManifestWrites)
	fmt.Fprintf(stdout, "io retries: %d   degraded: %d\n",
		st.IORetries, st.Degraded)
	if hs, ok := raw.(*hybrid.Store); ok {
		per := hs.BackendStats()
		for _, name := range hs.Backends() {
			rs := per[name]
			fmt.Fprintf(stdout, "route %-12s gets=%d puts=%d deletes=%d  %.1f MiB written, %.1f MiB read\n",
				name, rs.Gets, rs.Puts, rs.Deletes,
				float64(rs.PhysicalBytesWrite)/(1<<20), float64(rs.PhysicalBytesRead)/(1<<20))
		}
	}
	if bs, ok := blobStats(raw); ok {
		fmt.Fprintf(stdout, "blob files: %d   live: %.1f MiB   dead: %.1f MiB   written: %.1f MiB\n",
			bs.Files, float64(bs.LiveBytes)/(1<<20), float64(bs.DeadBytes)/(1<<20), float64(bs.WrittenBytes)/(1<<20))
	}
	if st.BlockCacheHits+st.BlockCacheMisses > 0 {
		fmt.Fprintf(stdout, "block cache: %d hits, %d misses (%.1f%% hit rate), %d evictions, %.1f KiB pinned\n",
			st.BlockCacheHits, st.BlockCacheMisses, 100*st.BlockCacheHitRate(),
			st.BlockCacheEvictions, float64(st.BlockCachePinnedBytes)/(1<<10))
		fmt.Fprintf(stdout, "bloom: %d negatives short-circuited, %d false positives\n",
			st.BloomNegatives, st.BloomFalsePositives)
	}
	live, err := writeCensus(store, *censusPath)
	if err != nil {
		return fmt.Errorf("census: %w", err)
	}
	if *censusPath != "" {
		fmt.Fprintf(stdout, "census written to %s\n", *censusPath)
	}
	if registry != nil {
		printLatencySummary(stdout, registry, backend)
		if *metricsHold > 0 {
			fmt.Fprintf(stdout, "holding metrics server for %s...\n", *metricsHold)
			select {
			case <-time.After(*metricsHold):
			case <-ctx.Done():
			}
		}
	}
	// Closing waits out the background jobs' file removals, so the
	// directory holds exactly the settled store.
	if err := store.Close(); err != nil {
		return err
	}
	space, err := measureSpace(workDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", space.report(live))
	return nil
}

// replayWithProgress replays ops in chunks, emitting one structured progress
// line per chunk when metrics are on: position, throughput, and live get/put
// latency percentiles from the registry. A done ctx or a nonzero duration
// cap ends the replay early; both are checked between chunks.
func replayWithProgress(ctx context.Context, w io.Writer, store kv.Store, ops []trace.Op, registry *obs.Registry, start time.Time, duration time.Duration) (*hybrid.ReplayResult, error) {
	var deadline time.Time
	if duration > 0 {
		deadline = start.Add(duration)
	}
	total := &hybrid.ReplayResult{}
	for off := 0; off < len(ops); off += progressChunk {
		if ctx.Err() != nil {
			fmt.Fprintf(w, "interrupted at op %d/%d\n", off, len(ops))
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			fmt.Fprintf(w, "duration cap reached at op %d/%d\n", off, len(ops))
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
			fmt.Fprintf(w, "progress ops=%d/%d ops_per_sec=%.0f get{%s} put{%s}\n",
				end, len(ops), float64(total.Ops)/elapsed.Seconds(),
				quantilesFor(snap, "get"), quantilesFor(snap, "put"))
		}
	}
	return total, nil
}

// runServe replays the trace against a remote kvserver: clients workers
// replay disjoint stripes of the op stream through one batching kvnet
// client, so concurrent workers' point ops coalesce into shared frames
// exactly as a real multi-tenant front end's would. A done ctx or the
// duration cap stops every worker at its next chunk.
func runServe(ctx context.Context, out io.Writer, addr string, ops []trace.Op, clients, conns, batchOps, window int, duration time.Duration) error {
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

	fmt.Fprintf(out, "serving replay: %d ops, %d clients, %d conns, batch-ops=%d, window=%d against %s\n",
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
				if ctx.Err() != nil || !deadline.IsZero() && time.Now().After(deadline) {
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
		fmt.Fprintf(out, "client %02d: %d ops in %.2fs (%.0f op/s)\n",
			w, r.ops, r.elapsed.Seconds(), float64(r.ops)/r.elapsed.Seconds())
	}
	fmt.Fprintf(out, "overall: %d ops in %.2fs (%.0f op/s)\n",
		totalOps, elapsed.Seconds(), float64(totalOps)/elapsed.Seconds())
	ns := c.NetStats()
	fmt.Fprintf(out, "transport: %d frames (%d op frames, mean batch %.1f ops), %.1f MiB sent, %.1f MiB received\n",
		ns.FramesSent, ns.OpFrames, ns.MeanBatch(),
		float64(ns.BytesSent)/(1<<20), float64(ns.BytesRecv)/(1<<20))
	st := c.Stats()
	fmt.Fprintf(out, "server store: %.1f MiB written, %.1f MiB read (WA %.2f, RA %.2f)\n",
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
func printLatencySummary(w io.Writer, registry *obs.Registry, backend string) {
	snap := registry.Snapshot()
	fmt.Fprintln(w, "op latency percentiles:")
	for _, op := range []string{"get", "put", "delete", "has", "scan", "batch"} {
		name := obs.Name("ethkv_op_latency_ns", "op", op, "store", backend)
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-6s n=%-9d %s\n", op, h.Count, obs.FormatQuantiles(h))
	}
}

// writeCensus scans the settled store once for its census
// (report.WriteCensus), written to path unless path is empty, and returns
// the live key and value bytes the scan read.
func writeCensus(store kv.Store, path string) (uint64, error) {
	scan := &countingIterable{Iterable: store}
	if path == "" {
		err := report.WriteCensus(io.Discard, scan)
		return scan.bytes, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := report.WriteCensus(f, scan); err != nil {
		return 0, err
	}
	return scan.bytes, f.Close()
}

// countingIterable sums the key and value bytes its iterators step over.
type countingIterable struct {
	kv.Iterable
	bytes uint64
}

func (c *countingIterable) NewIterator(prefix, start []byte) kv.Iterator {
	return &countingIterator{Iterator: c.Iterable.NewIterator(prefix, start), bytes: &c.bytes}
}

type countingIterator struct {
	kv.Iterator
	bytes *uint64
}

func (it *countingIterator) Next() bool {
	if !it.Iterator.Next() {
		return false
	}
	*it.bytes += uint64(len(it.Key()) + len(it.Value()))
	return true
}

// spaceKinds names the kinds of file a store directory holds, in report
// order, and kindOf sorts a file name into one: LSM tables, blob files,
// write-ahead logs and MANIFEST, flat store segments, and the rest (the
// flat store's CURRENT, the factory's LAYOUT.json).
var spaceKinds = []string{"sst", "blob", "wal", "manifest", "flat", "other"}

func kindOf(name string) string {
	switch {
	case strings.HasSuffix(name, ".sst"):
		return "sst"
	case strings.HasSuffix(name, ".blob"):
		return "blob"
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
		return "wal"
	case strings.HasPrefix(name, "MANIFEST"):
		return "manifest"
	case strings.HasPrefix(name, "flat-") && strings.HasSuffix(name, ".log"):
		return "flat"
	}
	return "other"
}

// spaceUsage is the bytes of the files under a store directory, by kind.
type spaceUsage map[string]int64

// measureSpace sums the sizes of the regular files under dir, shard and
// route subdirectories included, by kind.
func measureSpace(dir string) (spaceUsage, error) {
	use := spaceUsage{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		use[kindOf(d.Name())] += info.Size()
		return nil
	})
	return use, err
}

func (u spaceUsage) total() (n int64) {
	for _, b := range u {
		n += b
	}
	return n
}

// report renders u and its ratio to live, the store's live key and value
// bytes.
func (u spaceUsage) report(live uint64) string {
	const mib = 1 << 20
	var b strings.Builder
	fmt.Fprintf(&b, "space: %.1f MiB on disk (", float64(u.total())/mib)
	for i, kind := range spaceKinds {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.1f", kind, float64(u[kind])/mib)
	}
	fmt.Fprintf(&b, " MiB) for %.1f MiB of live keys and values: space amplification %.2f",
		float64(live)/mib, float64(u.total())/float64(max(live, 1)))
	return b.String()
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

// blobStats sums the blob files of every LSM in s, walking down shard and
// hybrid fan-outs; ok is false when s holds no LSM.
func blobStats(s kv.Store) (sum lsm.BlobStats, ok bool) {
	switch s := s.(type) {
	case *lsm.DB:
		return s.BlobStats(), true
	case interface {
		Len() int
		Child(int) kv.Store
	}:
		for i := 0; i < s.Len(); i++ {
			if bs, leaf := blobStats(s.Child(i)); leaf {
				sum.Files += bs.Files
				sum.LiveBytes += bs.LiveBytes
				sum.DeadBytes += bs.DeadBytes
				sum.WrittenBytes += bs.WrittenBytes
				ok = true
			}
		}
	}
	return sum, ok
}
