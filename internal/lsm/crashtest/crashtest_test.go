// Package crashtest holds the crash sweeps: each test runs storetest's
// crash ending over a seed range of one or more rows of its table, the
// config rotating with the seed. `make crashtest` runs them all at 200 seeds
// under -race; ETHKV_CRASHTEST_SEED replays one seed of any sweep.
package crashtest

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	"ethkv/internal/storetest"
)

// seeds returns how many seeds a sweep runs: def, a quarter of it under
// -short, or ETHKV_CRASHTEST_SEEDS when set.
func seeds(t *testing.T, def int) int {
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

// sweep runs the crash ending over seeds first … first+n-1 as parallel
// subtests, pick naming each seed's row and config. ETHKV_CRASHTEST_SEED
// replays that one seed instead.
func sweep(t *testing.T, first int64, n int, pick func(seed int64) (row string, cfg storetest.Config)) {
	run := func(t *testing.T, seed int64) storetest.Result {
		row, cfg := pick(seed)
		cfg.Seed = seed
		return storetest.Crash(storetest.Find(t, row), cfg, t.Errorf)
	}
	if s := os.Getenv("ETHKV_CRASHTEST_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad ETHKV_CRASHTEST_SEED=%q", s)
		}
		t.Logf("seed %d: %+v", seed, run(t, seed))
		return
	}
	var crashed, retries atomic.Int64
	for seed := first; seed < first+int64(n); seed++ {
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			res := run(t, seed)
			if res.Crashed {
				crashed.Add(1)
			}
			if res.IORetries > 0 {
				retries.Add(1)
			}
		})
	}
	t.Cleanup(func() {
		t.Logf("%d seeds: %d crashed mid-workload, %d exercised retries", n, crashed.Load(), retries.Load())
	})
}

// rotate spreads the seed space over concurrency widths and fault mixes: a
// third single-writer, a third 2-way, a third 4-way; every other seed adds
// transient write faults on top of the crash. The block-cache budget rotates
// orthogonally (default, tiny, disabled), every fourth seed injects
// transient read faults, and the compaction width rotates through 1/2/4
// workers — so a sweep also proves recovery is cache-size-independent,
// read-retry-safe, and holds when the crash lands while range-disjoint
// compactions are in flight.
func rotate(seed int64) storetest.Config {
	cfg := storetest.Config{
		Writers:           []int{1, 2, 4}[seed%3],
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

// rotating sweeps row with the rotated config.
func rotating(row string) func(int64) (string, storetest.Config) {
	return func(seed int64) (string, storetest.Config) { return row, rotate(seed) }
}

// wide leans on large batches from two writers, so group records routinely
// straddle the torn-tail boundary — and, over several leaves, nearly every
// unit straddles leaves — stressing all-or-nothing per leaf.
func wide(row string) func(int64) (string, storetest.Config) {
	return func(int64) (string, storetest.Config) {
		return row, storetest.Config{Writers: 2, Units: 60}
	}
}

func TestCrashRecoverySeeds(t *testing.T) {
	sweep(t, 1, seeds(t, 60), rotating("lsm"))
}

// TestCrashRecoverySyncLatencySeeds is the commit-pipeline row over seeds of
// its own, its four writers, four compaction workers and 200 µs syncs on top
// of the rotation.
func TestCrashRecoverySyncLatencySeeds(t *testing.T) {
	sweep(t, 1301, seeds(t, 60)/5, rotating("lsm/sync-latency"))
}

// TestCrashRecoveryLargeValueSeeds is the rotation with a quarter of the
// values at 1–8 KiB, so flushes separate them into blob files and merges
// retire those files while the crash can land between a blob file's sync,
// its table's manifest, and its unlink.
func TestCrashRecoveryLargeValueSeeds(t *testing.T) {
	sweep(t, 1501, seeds(t, 60), func(seed int64) (string, storetest.Config) {
		cfg := rotate(seed)
		cfg.LargeValues = true
		return "lsm", cfg
	})
}

func TestCrashRecoveryWideBatches(t *testing.T) {
	sweep(t, 501, seeds(t, 20), wide("lsm"))
}

// TestCrashRecoveryConcurrentCompactions pins the widest compaction
// scheduler under transient write faults, so the crash routinely lands while
// a flush races the store's compaction.
func TestCrashRecoveryConcurrentCompactions(t *testing.T) {
	sweep(t, 1101, seeds(t, 20), func(int64) (string, storetest.Config) {
		return "lsm/4-workers", storetest.Config{Writers: 2, Units: 60, TransientProb: 0.05}
	})
}

// TestCrashRecoveryFlatSeeds: a tiny compaction threshold makes generation
// rewrites and CURRENT swaps routine inside the crash window.
func TestCrashRecoveryFlatSeeds(t *testing.T) {
	sweep(t, 1, seeds(t, 60), rotating("flat"))
}

func TestCrashRecoveryFlatWideBatches(t *testing.T) {
	sweep(t, 701, seeds(t, 20), wide("flat"))
}

// TestCrashRecoveryShardedSeeds rotates shard width — 2, 3 and 5; odd widths
// catch modulo mistakes even ones mask — with every third seed on flat
// children instead of lsm.
func TestCrashRecoveryShardedSeeds(t *testing.T) {
	sweep(t, 1, seeds(t, 60), func(seed int64) (string, storetest.Config) {
		kind := "lsm"
		if seed%3 == 2 {
			kind = "flat"
		}
		return fmt.Sprintf("shards=%d/%s", []int{2, 3, 5}[(seed/2)%3], kind), rotate(seed)
	})
}

func TestCrashRecoveryShardedWideBatches(t *testing.T) {
	sweep(t, 901, seeds(t, 20), wide("shards=4/lsm"))
}

// TestCrashRecoveryHybridSeeds sweeps the factory's default hybrid layout —
// an LSM route with its WAL on beside a flat route — where a batch spanning
// both routes commits the LSM's share first.
func TestCrashRecoveryHybridSeeds(t *testing.T) {
	sweep(t, 1, seeds(t, 60), rotating("hybrid"))
}

// TestCrashRecoveryShardedHybridSeeds sweeps the composition the repo
// benchmark serves: three shards, each a default hybrid, six leaves.
func TestCrashRecoveryShardedHybridSeeds(t *testing.T) {
	sweep(t, 1, seeds(t, 60), rotating("shards=3/hybrid"))
}

// The determinism replays run single-writer seeds twice and require the
// same outcome — whether the crash tripped mid-run, how many units ran, how
// many pairs recovered — which is what makes any sweep failure reproducible
// from its seed alone.
func deterministic(t *testing.T, first int64, row string, cfg storetest.Config) {
	for seed := first; seed < first+5; seed++ {
		cfg.Seed, cfg.Writers, cfg.Units = seed, 1, 30
		a := storetest.Crash(storetest.Find(t, row), cfg, t.Errorf)
		b := storetest.Crash(storetest.Find(t, row), cfg, t.Errorf)
		if a != b {
			t.Fatalf("%s seed %d diverged between runs: %+v vs %+v", row, seed, a, b)
		}
	}
}

func TestCrashRecoveryDeterministic(t *testing.T) {
	deterministic(t, 101, "lsm", storetest.Config{TransientProb: 0.1})
}

// TestCrashRecoveryTinyCacheDeterministic: read faults draw from an rng
// separate from the write schedule, so replays with a cache smaller than one
// table stay identical even though every read is demand-paged.
func TestCrashRecoveryTinyCacheDeterministic(t *testing.T) {
	deterministic(t, 201, "lsm/tiny-cache", storetest.Config{TransientProb: 0.05, ReadTransientProb: 0.05})
}

// TestCrashRecoveryFlatDeterministic: flat compaction iterates its index in
// key order precisely so the injected write schedule stays reproducible.
func TestCrashRecoveryFlatDeterministic(t *testing.T) {
	deterministic(t, 301, "flat", storetest.Config{TransientProb: 0.1})
}

// TestCrashRecoveryShardedDeterministic: per-leaf plans derive from (seed,
// leaf) alone, so a failure replays even though the crash lands on one shard
// of several.
func TestCrashRecoveryShardedDeterministic(t *testing.T) {
	deterministic(t, 401, "shards=3/lsm", storetest.Config{TransientProb: 0.1})
}
