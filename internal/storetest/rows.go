package storetest

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ethkv/internal/backends"
	"ethkv/internal/compaction"
	"ethkv/internal/fanout"
	"ethkv/internal/faultfs"
	"ethkv/internal/flatstore"
	"ethkv/internal/hybrid"
	"ethkv/internal/kv"
	"ethkv/internal/kvnet"
	"ethkv/internal/lsm"
	"ethkv/internal/obs"
	"ethkv/internal/policy"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// Row is one store composition and the endings it supports; every row runs
// kvtest's contract checks and the live ending.
type Row struct {
	Name string
	// Open opens the composition with its state under dir: empty at first,
	// what a clean Close left there afterwards.
	Open func(t *testing.T, dir string) (kv.Store, error)
	// Reopens: a clean Close keeps the state, so the reopen ending runs.
	Reopens bool
	// Corrupt damages the durable files of s, open under dir, reporting
	// whether it closed s so that Open must show the damage: kvtest's
	// CorruptScanError runs.
	Corrupt func(t *testing.T, s kv.Store, dir string) (closed bool)
	// Crash is the composition rebuilt over injected filesystems: the crash
	// ending runs.
	Crash *Shape
}

// Shape is a factory composition the crash ending builds over one injected
// filesystem per leaf — the kind itself, or each policy route of a hybrid —
// with thresholds tiny enough that a small workload runs through rotation,
// flush and compaction (an LSM leaf, WAL on) or generation compaction and
// the CURRENT swap (a flat leaf).
type Shape struct {
	Kind string
	Opts backends.Options // Shards, Policy
	Tune func(*Config)    // the row's own knobs, over every crash config
}

// Rows is the table: a row per composition the repository builds or serves.
var Rows = rows()

// Find returns the named row.
func Find(t *testing.T, name string) Row {
	t.Helper()
	for _, r := range Rows {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("storetest: no row %q", name)
	return Row{}
}

func rows() []Row {
	// The LSM rows' thresholds are small enough that the checks run through
	// flushes and compactions.
	lsmRow := func(name string, o lsm.Options, tune func(*Config)) Row {
		o.MemtableBytes, o.L0CompactionTrigger, o.LevelBaseBytes = 8<<10, 2, 32<<10
		open := func(_ *testing.T, dir string) (kv.Store, error) { return lsm.Open(dir, o) }
		return Row{Name: name, Open: open, Reopens: true, Crash: &Shape{Kind: "lsm", Tune: tune}}
	}
	flatRow := func(name string, o flatstore.Options) Row {
		open := func(_ *testing.T, dir string) (kv.Store, error) { return flatstore.Open(dir, o) }
		return Row{Name: name, Open: open, Reopens: true, Crash: &Shape{Kind: "flat"}}
	}
	plainLSM, plainFlat := lsmRow("lsm", lsm.Options{}, nil), flatRow("flat", flatstore.Options{})
	plainLSM.Corrupt, plainFlat.Corrupt = corruptTables("*.sst"), corruptLog("flat-*.log")
	table := []Row{
		{Name: "mem", Open: inMemory(func() kv.Store { return kv.NewMemStore() })},
		plainLSM,
		// A cache under one 4 KiB block per shard: every read churns it.
		lsmRow("lsm/tiny-cache", lsm.Options{BlockCacheBytes: 4 << 10}, func(c *Config) { c.BlockCacheBytes = 4 << 10 }),
		lsmRow("lsm/no-cache", lsm.Options{BlockCacheBytes: -1}, func(c *Config) { c.BlockCacheBytes = -1 }),
		lsmRow("lsm/4-workers", lsm.Options{Pool: compaction.NewPool(4)}, func(c *Config) { c.CompactionWorkers = 4 }),
		// The commit pipeline: four writers behind 200 µs syncs, so the crash
		// lands while WAL syncs and manifest writes — issued with no store
		// lock held — are in flight and other writers queue behind them.
		lsmRow("lsm/sync-latency", lsm.Options{FS: faultfs.WithSyncLatency(faultfs.OS, 200*time.Microsecond)}, func(c *Config) {
			c.Writers, c.CompactionWorkers, c.SyncLatency = 4, 4, 200*time.Microsecond
		}),
		plainFlat,
		flatRow("flat/tiny-compaction", flatstore.Options{CompactAfterDeadBytes: 1 << 10}),
	}
	// Sharded: CorruptScan damages ONE shard, whose error the merged scan
	// must latch rather than serve the others' keys as a clean short scan.
	for _, n := range []int{1, 2, 3, 4, 5, 7} {
		under := ""
		if n > 1 {
			under = "shard-00"
		}
		table = append(table,
			factoryRow(fmt.Sprintf("shards=%d/lsm", n), "lsm", backends.Options{Shards: n},
				corruptTables(filepath.Join(under, "lsm", "*.sst"))),
			factoryRow(fmt.Sprintf("shards=%d/flat", n), "flat", backends.Options{Shards: n},
				corruptLog(filepath.Join(under, "flat", "flat-*.log"))))
	}
	return append(table,
		factoryRow("hybrid", "hybrid", backends.Options{}, nil),
		factoryRow("hybrid/derived", "hybrid", backends.Options{Policy: DerivedPolicy()}, nil),
		// What the repo benchmark serves.
		factoryRow("shards=3/hybrid", "hybrid", backends.Options{Shards: 3}, nil),
		Row{Name: "hybrid/mem", Open: func(*testing.T, string) (kv.Store, error) {
			return hybrid.NewRouted([]hybrid.Backend{
				{Name: "ordered", Store: kv.NewMemStore()},
				{Name: "point", Store: kv.NewMemStore()},
			}, map[rawdb.Class]int{rawdb.ClassCode: 1, rawdb.ClassTxLookup: 1}, 0)
		}},
		Row{Name: "instrumented", Open: inMemory(func() kv.Store {
			return kv.Instrument(kv.NewMemStore(), obs.NewRegistry(), "store", "mem")
		})},
		Row{Name: "traced", Open: inMemory(func() kv.Store { return trace.WrapStore(kv.NewMemStore(), &trace.SliceSink{}) })},
		Row{Name: "fanout", Open: inMemory(func() kv.Store {
			pick := func(key []byte) int {
				h := fnv.New32a()
				h.Write(key)
				return int(h.Sum32() % 3)
			}
			children := []kv.Store{kv.NewMemStore(), kv.NewMemStore(), kv.NewMemStore()}
			return fanout.New("child", []string{"00", "01", "02"}, children, pick, nil)
		})},
		// kvnet loopback, three client configurations: plain; small batches
		// over an LSM, so coalescing carries every check; batching off.
		Row{Name: "kvnet", Open: served(kvnet.ClientOptions{Conns: 2}, memStore), Reopens: true},
		Row{Name: "kvnet/lsm", Open: served(kvnet.ClientOptions{Conns: 2, BatchMaxOps: 8, Window: 4},
			func(dir string) (kv.Store, error) {
				return lsm.Open(dir, lsm.Options{MemtableBytes: 64 << 10, L0CompactionTrigger: 2, LevelBaseBytes: 256 << 10})
			}), Reopens: true},
		Row{Name: "kvnet/unbatched", Open: served(kvnet.ClientOptions{BatchMaxOps: 1, Window: 16}, memStore), Reopens: true},
		// Finding 3's ablation: its staging log lives in memory.
		Row{Name: "lazy", Open: inMemory(func() kv.Store { return hybrid.NewLazyStore(kv.NewMemStore()) })},
	)
}

// DerivedPolicy is a hand-written three-route policy: two LSM routes beside
// a flat one, so a batch splits over three children and two LSM instances
// share one compaction pool. (Derive itself emits at most ordered and flat.)
func DerivedPolicy() *policy.Policy {
	return &policy.Policy{
		Default: "ordered",
		Routes: map[string]policy.Spec{
			"ordered": {Kind: "lsm"},
			"lookup":  {Kind: "lsm"},
			"flat":    {Kind: "flat"},
		},
		Classes: map[string]string{
			"TxLookup": "lookup", "BlockBody": "flat", "BlockReceipts": "flat", "Code": "flat",
		},
	}
}

func inMemory(open func() kv.Store) func(*testing.T, string) (kv.Store, error) {
	return func(*testing.T, string) (kv.Store, error) { return open(), nil }
}

func memStore(string) (kv.Store, error) { return kv.NewMemStore(), nil }

// factoryRow is a composition opened through backends.Open — the path every
// binary takes — and crashed as the same composition over injected leaves.
func factoryRow(name, kind string, opts backends.Options, corrupt func(*testing.T, kv.Store, string) bool) Row {
	return Row{
		Name:    name,
		Open:    func(_ *testing.T, dir string) (kv.Store, error) { return backends.Open(kind, dir, opts) },
		Reopens: true,
		Corrupt: corrupt,
		Crash:   &Shape{Kind: kind, Opts: opts},
	}
}

// served dials a loopback kvnet server over backing(dir/store). The first
// open starts the server for the test's lifetime and leaves its address in
// dir, so opening dir again dials the live server: a new client generation
// is what reopening a served store means.
func served(opts kvnet.ClientOptions, backing func(dir string) (kv.Store, error)) func(*testing.T, string) (kv.Store, error) {
	return func(t *testing.T, dir string) (kv.Store, error) {
		addrFile := filepath.Join(dir, "server-addr")
		if addr, err := os.ReadFile(addrFile); err == nil {
			return kvnet.Dial(string(addr), opts)
		}
		store, err := backing(filepath.Join(dir, "store"))
		if err != nil {
			return nil, err
		}
		srv := kvnet.NewServer(store, kvnet.ServerOptions{Logf: func(string, ...any) {}})
		t.Cleanup(func() { srv.Close(); store.Close() })
		addr, err := srv.Listen("127.0.0.1:0")
		if err == nil {
			err = os.WriteFile(addrFile, []byte(addr), 0o644)
		}
		if err != nil {
			return nil, err
		}
		return kvnet.Dial(addr, opts)
	}
}

// corruptTables settles s into tables, closes it, and breaks the entry
// framing at the start of every table matching glob under dir — byte 0 is
// the first entry's flags, 1+ its key-length varint. Footers stay valid, so
// the reopen accepts the tables and only the scan can find the damage.
func corruptTables(glob string) func(*testing.T, kv.Store, string) bool {
	return func(t *testing.T, s kv.Store, dir string) bool {
		if err := kv.Flush(s); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for _, p := range mustGlob(t, filepath.Join(dir, glob)) {
			stompBytes(t, p, 1, 10)
		}
		return true
	}
}

// corruptLog damages the first value log matching glob in place, keeping s
// open: a reopen would truncate at the first bad record, but the live
// resident index still points into the damaged extents, so the read path's
// per-record CRC must fail the scan. 64 bytes span more than one record.
func corruptLog(glob string) func(*testing.T, kv.Store, string) bool {
	return func(t *testing.T, _ kv.Store, dir string) bool {
		stompBytes(t, mustGlob(t, filepath.Join(dir, glob))[0], 1000, 64)
		return false
	}
}

func mustGlob(t *testing.T, pattern string) []string {
	paths, err := filepath.Glob(pattern)
	if err != nil || len(paths) == 0 {
		t.Fatalf("nothing to corrupt at %s (err=%v)", pattern, err)
	}
	return paths
}

// stompBytes overwrites n bytes of the file at off with 0xFF — continuation
// bytes no uvarint-framed record decodes through.
func stompBytes(t *testing.T, path string, off, n int) {
	raw, err := os.ReadFile(path)
	if err == nil && off+n > len(raw) {
		err = fmt.Errorf("only %d bytes", len(raw))
	}
	if err != nil {
		t.Fatalf("corrupt %s: %v", path, err)
	}
	for i := off; i < off+n; i++ {
		raw[i] = 0xFF
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// leaves is how many filesystems the shape takes.
func (sh *Shape) leaves() int {
	n, p := max(sh.Opts.Shards, 1), sh.Opts.Policy
	if sh.Kind != "hybrid" {
		return n
	}
	if p == nil {
		p = backends.DefaultHybridPolicy()
	}
	return n * len(p.Routes)
}

// open composes the shape as backends.Open does, each leaf a store over the
// filesystem next returns. Leaves open in a fixed order — shard by shard, a
// hybrid's routes by name — so a reopen hands every leaf back its own.
func (sh *Shape) open(cfg Config, next func() faultfs.FS) (kv.Store, error) {
	return backends.Compose(sh.Kind, "", sh.Opts, func(kind, _ string) (kv.Store, error) {
		return openLeaf(kind, cfg, next())
	})
}

// openLeaf opens one durable store over fsys.
func openLeaf(kind string, cfg Config, fsys faultfs.FS) (kv.Store, error) {
	switch kind {
	case "flat":
		return flatstore.Open("db", flatstore.Options{
			FS: fsys, CompactAfterDeadBytes: 2 << 10,
		})
	case "lsm":
		return lsm.Open("db", lsm.Options{
			MemtableBytes:       2 << 10,
			L0CompactionTrigger: 2,
			LevelBaseBytes:      8 << 10,
			FS:                  fsys,
			BlockCacheBytes:     cfg.BlockCacheBytes,
			Pool:                compaction.NewPool(max(cfg.CompactionWorkers, 1)),
		})
	}
	return nil, fmt.Errorf("storetest: no crash leaf of kind %q", kind)
}
