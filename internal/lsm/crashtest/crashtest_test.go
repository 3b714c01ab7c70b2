package crashtest

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// seedCount returns how many seeds the suite sweeps. ETHKV_CRASHTEST_SEEDS
// overrides the default (the Makefile crashtest target sets 200+); -short
// trims it for quick iteration.
func seedCount(t *testing.T, def int) int {
	if s := os.Getenv("ETHKV_CRASHTEST_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad ETHKV_CRASHTEST_SEEDS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return def / 4
	}
	return def
}

// TestCrashRecoverySeeds is the main sweep: every seed runs the full
// workload-crash-reopen-verify cycle. Width and fault mix rotate with the
// seed so one sweep covers single-writer determinism, concurrent writers,
// and recovery under transient-fault retry. ETHKV_CRASHTEST_SEED replays
// one failing seed in isolation.
func TestCrashRecoverySeeds(t *testing.T) {
	if s := os.Getenv("ETHKV_CRASHTEST_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad ETHKV_CRASHTEST_SEED=%q", s)
		}
		res := Run(configFor(seed), t.Fatalf)
		t.Logf("seed %d: crashed=%v units=%d retries=%d",
			seed, res.Crashed, res.UnitsRun, res.IORetries)
		return
	}
	n := seedCount(t, 60)
	var crashed, retries atomic.Int64
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			res := Run(configFor(seed), t.Fatalf)
			if res.Crashed {
				crashed.Add(1)
			}
			if res.IORetries > 0 {
				retries.Add(1)
			}
		})
	}
	t.Cleanup(func() {
		t.Logf("%d seeds: %d crashed mid-workload, %d exercised retries",
			n, crashed.Load(), retries.Load())
	})
}

// configFor spreads the seed space over concurrency widths and fault
// mixes: a third single-writer, a third 2-way, a third 4-way; every other
// seed adds transient write faults on top of the crash. The block-cache
// budget rotates orthogonally (default, tiny, disabled), every fourth
// seed injects transient read faults, and the compaction scheduler width
// rotates through 1/2/4 workers — so the sweep also proves recovery is
// cache-size-independent, read-retry-safe, and holds when the crash lands
// while multiple range-disjoint compactions are in flight.
func configFor(seed int64) Config {
	cfg := Config{
		Seed:              seed,
		Workers:           []int{1, 2, 4}[seed%3],
		Units:             40,
		BlockCacheBytes:   []int64{0, 4 << 10, -1}[(seed/3)%3],
		CompactionWorkers: []int{1, 2, 4}[(seed/4)%3],
	}
	if seed%2 == 0 {
		cfg.TransientProb = 0.05
	}
	if seed%4 == 1 {
		cfg.ReadTransientProb = 0.02
	}
	return cfg
}

// TestCrashRecoverySyncLatencySeeds is the commit-pipeline row, over seeds
// of its own on top of the main sweep's matrix (cache budgets and fault mixes
// still rotate through configFor — so every other seed adds transient write
// faults): four writers, four compaction workers, and a modeled sync cost,
// so the crash lands while WAL syncs and manifest writes — issued with no
// store lock held — are in flight, with other writers' records appended
// behind the barrier, queued on it, or waiting their turn at the memtable.
func TestCrashRecoverySyncLatencySeeds(t *testing.T) {
	n := seedCount(t, 60) / 5
	for seed := int64(1301); seed < 1301+int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%04d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := configFor(seed)
			cfg.Workers = 4
			cfg.CompactionWorkers = 4
			cfg.SyncLatency = 200 * time.Microsecond
			Run(cfg, t.Fatalf)
		})
	}
}

// TestCrashRecoveryDeterministic replays single-writer seeds twice and
// requires bit-identical recovered states — the property that makes any
// sweep failure reproducible from its seed alone.
func TestCrashRecoveryDeterministic(t *testing.T) {
	for seed := int64(101); seed < 106; seed++ {
		cfg := Config{Seed: seed, Workers: 1, Units: 30, TransientProb: 0.1}
		a := capture(t, cfg)
		b := capture(t, cfg)
		if a != b {
			t.Fatalf("seed %d diverged between runs:\n%s\n---\n%s", seed, a, b)
		}
	}
}

// TestCrashRecoveryTinyCacheDeterministic replays seeds whose store runs a
// cache smaller than one table while transient read faults fire. Read
// faults draw from an rng separate from the write schedule, so replays must
// stay bit-identical — the invariant that keeps sweep failures reproducible
// now that reads are demand-paged.
func TestCrashRecoveryTinyCacheDeterministic(t *testing.T) {
	for seed := int64(201); seed < 206; seed++ {
		cfg := Config{
			Seed: seed, Workers: 1, Units: 30,
			TransientProb: 0.05, ReadTransientProb: 0.05,
			BlockCacheBytes: 4 << 10,
		}
		a := capture(t, cfg)
		b := capture(t, cfg)
		if a != b {
			t.Fatalf("seed %d diverged between runs:\n%s\n---\n%s", seed, a, b)
		}
	}
}

// capture runs one cycle and fingerprints its observable outcome.
func capture(t *testing.T, cfg Config) string {
	t.Helper()
	res := Run(cfg, t.Fatalf)
	return fmt.Sprintf("crashed=%v units=%d", res.Crashed, res.UnitsRun)
}

// TestCrashRecoveryWideBatches leans on large batches so group records
// routinely straddle the torn-tail boundary, stressing the all-or-nothing
// guarantee specifically.
func TestCrashRecoveryWideBatches(t *testing.T) {
	n := seedCount(t, 20)
	for seed := int64(501); seed < 501+int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			Run(Config{Seed: seed, Workers: 2, Units: 60}, t.Fatalf)
		})
	}
}

// TestCrashRecoveryFlatSeeds sweeps the same workload-crash-reopen-verify
// cycle over the flat single-seek backend. The flat store's ack discipline
// matches the verifier's model — batches commit as one synced group
// record, single ops are un-synced appends — and its tiny compaction
// threshold here makes generation rewrites and CURRENT swaps routine
// events inside the crash window. ETHKV_CRASHTEST_SEED replays one seed.
func TestCrashRecoveryFlatSeeds(t *testing.T) {
	if s := os.Getenv("ETHKV_CRASHTEST_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad ETHKV_CRASHTEST_SEED=%q", s)
		}
		cfg := configFor(seed)
		cfg.Backend = "flat"
		res := Run(cfg, t.Fatalf)
		t.Logf("flat seed %d: crashed=%v units=%d retries=%d",
			seed, res.Crashed, res.UnitsRun, res.IORetries)
		return
	}
	n := seedCount(t, 60)
	var crashed, retries atomic.Int64
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := configFor(seed)
			cfg.Backend = "flat"
			res := Run(cfg, t.Fatalf)
			if res.Crashed {
				crashed.Add(1)
			}
			if res.IORetries > 0 {
				retries.Add(1)
			}
		})
	}
	t.Cleanup(func() {
		t.Logf("flat: %d seeds: %d crashed mid-workload, %d exercised retries",
			n, crashed.Load(), retries.Load())
	})
}

// TestCrashRecoveryFlatDeterministic replays single-writer flat-backend
// seeds twice, requiring identical outcomes: compaction iterates its index
// in sorted key order precisely so the injected write schedule stays
// seed-reproducible.
func TestCrashRecoveryFlatDeterministic(t *testing.T) {
	for seed := int64(301); seed < 306; seed++ {
		cfg := Config{
			Seed: seed, Workers: 1, Units: 30,
			TransientProb: 0.1, Backend: "flat",
		}
		a := capture(t, cfg)
		b := capture(t, cfg)
		if a != b {
			t.Fatalf("flat seed %d diverged between runs:\n%s\n---\n%s", seed, a, b)
		}
	}
}

// TestCrashRecoveryShardedSeeds sweeps the crash cycle over a sharded
// router: shard width, backend kind, concurrency, and fault mix all rotate
// with the seed, one seeded victim shard crashes mid-workload, and
// recovery is verified per (writer, shard) — the granularity at which
// cross-shard batches are atomic. ETHKV_CRASHTEST_SEED replays one seed.
func TestCrashRecoveryShardedSeeds(t *testing.T) {
	if s := os.Getenv("ETHKV_CRASHTEST_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad ETHKV_CRASHTEST_SEED=%q", s)
		}
		res := Run(shardedConfigFor(seed), t.Fatalf)
		t.Logf("sharded seed %d: crashed=%v units=%d retries=%d",
			seed, res.Crashed, res.UnitsRun, res.IORetries)
		return
	}
	n := seedCount(t, 60)
	var crashed, retries atomic.Int64
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			res := Run(shardedConfigFor(seed), t.Fatalf)
			if res.Crashed {
				crashed.Add(1)
			}
			if res.IORetries > 0 {
				retries.Add(1)
			}
		})
	}
	t.Cleanup(func() {
		t.Logf("sharded: %d seeds: %d crashed mid-workload, %d exercised retries",
			n, crashed.Load(), retries.Load())
	})
}

// shardedConfigFor layers shard width and backend rotation on top of the
// unsharded sweep's concurrency and fault mix: widths 2, 3, and 5 (odd
// widths catch modulo mistakes evens mask), with every third seed running
// flat children instead of lsm.
func shardedConfigFor(seed int64) Config {
	cfg := configFor(seed)
	cfg.Shards = []int{2, 3, 5}[(seed/2)%3]
	if seed%3 == 2 {
		cfg.Backend = "flat"
	}
	return cfg
}

// TestCrashRecoveryShardedDeterministic replays single-writer sharded
// seeds twice and requires identical outcomes: per-shard plans derive from
// (run seed, shard index) alone, so a sweep failure replays from its seed
// even though the crash lands on one shard of several.
func TestCrashRecoveryShardedDeterministic(t *testing.T) {
	for seed := int64(401); seed < 406; seed++ {
		cfg := Config{Seed: seed, Workers: 1, Units: 30, TransientProb: 0.1, Shards: 3}
		a := capture(t, cfg)
		b := capture(t, cfg)
		if a != b {
			t.Fatalf("sharded seed %d diverged between runs:\n%s\n---\n%s", seed, a, b)
		}
	}
}

// TestCrashRecoveryShardedWideBatches leans on large batches against a
// sharded router, so nearly every unit straddles shards and the per-shard
// group-commit discipline — shards before the crash point committed,
// shards after it untouched — is what the verifier exercises.
func TestCrashRecoveryShardedWideBatches(t *testing.T) {
	n := seedCount(t, 20)
	for seed := int64(901); seed < 901+int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			Run(Config{Seed: seed, Workers: 2, Units: 60, Shards: 4}, t.Fatalf)
		})
	}
}

// TestCrashRecoveryConcurrentCompactions pins the widest compaction
// scheduler (4 workers, tiny sub-compaction threshold) under transient
// write faults, so the seeded crash routinely lands while flushes and
// multiple range-disjoint compactions race on the injected filesystem.
// Prefix consistency must hold no matter which of the concurrent merges
// the power loss tears.
func TestCrashRecoveryConcurrentCompactions(t *testing.T) {
	n := seedCount(t, 20)
	for seed := int64(1101); seed < 1101+int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%04d", seed), func(t *testing.T) {
			t.Parallel()
			Run(Config{
				Seed: seed, Workers: 2, Units: 60,
				CompactionWorkers: 4, TransientProb: 0.05,
			}, t.Fatalf)
		})
	}
}

// TestCrashRecoveryFlatWideBatches leans on large batches against the flat
// backend so group records routinely straddle the torn-tail boundary: a
// cut or damaged group must drop the whole batch, never a partial one.
func TestCrashRecoveryFlatWideBatches(t *testing.T) {
	n := seedCount(t, 20)
	for seed := int64(701); seed < 701+int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			Run(Config{Seed: seed, Workers: 2, Units: 60, Backend: "flat"}, t.Fatalf)
		})
	}
}
