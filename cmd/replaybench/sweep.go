package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ethkv/internal/backends"
	"ethkv/internal/hybrid"
	"ethkv/internal/shard"
	"ethkv/internal/trace"
)

// parseSweepCounts turns "-shard-sweep 1,2,4,8,16" into a count list.
func parseSweepCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q in -shard-sweep (want positive integers, e.g. 1,2,4,8,16)", part)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("-shard-sweep named no shard counts")
	}
	return counts, nil
}

// cpuTime reads the process's cumulative user+system CPU time. The sweep
// charges each point with the CPU burned during its replay, so CPU/op is
// comparable across shard counts even when wall-clock shrinks with
// parallelism.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runShardSweep replays the trace once per shard count, each point with
// `workers` concurrent replay goroutines striped over the op stream (as in
// -serve mode, so every worker stays in the same temporal region of the
// workload). Each point reports throughput, CPU per op, and the per-shard
// share of point ops so skew is visible next to the scaling it costs.
func runShardSweep(out io.Writer, ops []trace.Op, backend, workDir string, opts backends.Options, counts []int, workers int) error {
	if workers < 1 {
		workers = 1
	}
	fmt.Fprintf(out, "shard sweep: %d ops, backend=%s, mode=%s, workers=%d, counts=%v\n",
		len(ops), backend, opts.ShardMode, workers, counts)

	// Stripe once; the stripes are identical for every sweep point.
	stripes := make([][]trace.Op, workers)
	for i, op := range ops {
		stripes[i%workers] = append(stripes[i%workers], op)
	}

	type point struct {
		shards   int
		opsPerS  float64
		cpuUsOp  float64
		shardOps []uint64
	}
	var curve []point
	for _, n := range counts {
		dir := filepath.Join(workDir, fmt.Sprintf("sweep-%02d", n))
		opts.Shards = n
		store, err := backends.Open(backend, dir, opts)
		if err != nil {
			return fmt.Errorf("shards=%d: %w", n, err)
		}

		start, cpu0 := time.Now(), cpuTime()
		results := make([]struct {
			ops uint64
			err error
		}, workers)
		var wg sync.WaitGroup
		for w := range stripes {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				res, err := hybrid.Replay(store, stripes[w])
				if res != nil {
					results[w].ops = res.Ops
				}
				results[w].err = err
			}(w)
		}
		wg.Wait()
		elapsed, cpu := time.Since(start), cpuTime()-cpu0

		var total uint64
		for w, r := range results {
			if r.err != nil {
				store.Close()
				return fmt.Errorf("shards=%d worker %d: %w", n, w, r.err)
			}
			total += r.ops
		}
		p := point{
			shards:  n,
			opsPerS: float64(total) / elapsed.Seconds(),
		}
		if total > 0 {
			p.cpuUsOp = float64(cpu.Microseconds()) / float64(total)
		}
		if r, ok := store.(*shard.Router); ok {
			for _, st := range r.ShardStats() {
				p.shardOps = append(p.shardOps, st.Gets+st.Puts+st.Deletes)
			}
		} else {
			p.shardOps = []uint64{total}
		}
		if err := store.Close(); err != nil {
			return fmt.Errorf("shards=%d: close: %w", n, err)
		}
		curve = append(curve, p)

		fmt.Fprintf(out, "shards=%-2d  %9.0f op/s  %6.2f cpu_us/op  shard-ops=%s\n",
			n, p.opsPerS, p.cpuUsOp, formatShardShare(p.shardOps))
	}

	if len(curve) > 1 && curve[0].shards == 1 && curve[0].opsPerS > 0 {
		fmt.Fprintln(out, "scaling vs 1 shard:")
		for _, p := range curve[1:] {
			fmt.Fprintf(out, "  shards=%-2d  %.2fx\n", p.shards, p.opsPerS/curve[0].opsPerS)
		}
	}
	return nil
}

// formatShardShare renders per-shard op counts as percentages of the total,
// so a skewed partition reads as obviously lopsided.
func formatShardShare(shardOps []uint64) string {
	var total uint64
	for _, n := range shardOps {
		total += n
	}
	if total == 0 {
		return "[]"
	}
	parts := make([]string, len(shardOps))
	for i, n := range shardOps {
		parts[i] = fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
	}
	return "[" + strings.Join(parts, " ") + "]"
}
