// Package backends constructs the repo's storage backends by name. It is
// the shared factory behind the replaybench load generator, the ethkvlab
// pipeline, and the kvserver network front end, so a backend added here
// becomes replayable and servable at once. Every kind it opens scans in
// ascending key order. The hybrid kind is policy-driven: Options.Policy (or
// DefaultHybridPolicy, the paper's §V layout) names the routes, picks each
// route's backend kind and tuning, and assigns classes to routes.
package backends

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ethkv/internal/compaction"
	"ethkv/internal/flatstore"
	"ethkv/internal/hybrid"
	"ethkv/internal/kv"
	"ethkv/internal/lsm"
	"ethkv/internal/policy"
	"ethkv/internal/rawdb"
	"ethkv/internal/shard"
)

// Options tunes backend construction.
type Options struct {
	// BlockCacheBytes sets the LSM block-cache budget (0 = store default,
	// negative disables; lsm and hybrid backends). With sharding, each
	// shard gets the full budget.
	BlockCacheBytes int64
	// Shards partitions the keyspace across this many child stores of the
	// requested kind behind a shard.Router (0 or 1 = unsharded). Each
	// child lives under dir/shard-NN, so a sharded database reopens from
	// the same dir and shard count.
	Shards int
	// ShardMode selects the partition function: "hash" (default) or
	// "class" (key-class routing that keeps a class's range scans
	// shard-local).
	ShardMode string
	// Policy configures the hybrid kind's routes (nil =
	// DefaultHybridPolicy: ordered LSM + single-seek flat store). Ignored by
	// other kinds.
	Policy *policy.Policy
	// CompactionWorkers is the process-wide background concurrency budget
	// for LSM-backed kinds (0 = default). One compaction.Pool of this size
	// is shared by every LSM instance the Open call creates — all shards
	// and all policy routes — so `-shards 8` contends for these workers
	// instead of spawning 8 uncoordinated sets; the pool prefers the
	// instance with the highest compaction debt. It is also each
	// instance's own concurrency cap (a policy route can lower its cap
	// with the compaction_workers option).
	CompactionWorkers int
}

// Kinds lists the recognised backend names, for usage strings.
func Kinds() string { return "lsm, flat, mem, or hybrid" }

// Open constructs the requested store under dir. With opts.Shards > 1 the
// store is a shard.Router over that many children of the same kind. Every
// LSM instance the call creates — across shards and policy routes — shares
// one compaction.Pool sized at opts.CompactionWorkers, so background
// concurrency is budgeted process-wide rather than per instance.
func Open(kind, dir string, opts Options) (kv.Store, error) {
	pool := compaction.NewPool(opts.CompactionWorkers)
	return Compose(kind, dir, opts, func(spec policy.Spec, dir string) (kv.Store, error) {
		return openRoute(spec, dir, opts, pool)
	})
}

// Compose builds kind under dir exactly as Open does — the shard router, a
// hybrid's policy routes in their order and directories — but opens every
// leaf store (the kind itself, or one policy route) with leaf. Open passes
// the factory's own; the crash tests pass stores over injected filesystems.
func Compose(kind, dir string, opts Options, leaf func(spec policy.Spec, dir string) (kv.Store, error)) (kv.Store, error) {
	if opts.Shards > 1 {
		mode, err := shard.ParseMode(opts.ShardMode)
		if err != nil {
			return nil, err
		}
		children := make([]kv.Store, opts.Shards)
		for i := range children {
			child, err := openOne(kind, filepath.Join(dir, fmt.Sprintf("shard-%02d", i)), opts, leaf)
			if err != nil {
				for _, c := range children[:i] {
					c.Close()
				}
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			children[i] = child
		}
		return shard.New(children, shard.Options{Mode: mode})
	}
	return openOne(kind, dir, opts, leaf)
}

// openOne constructs a single (unsharded) store of the requested kind: the
// kind as an option-less route in dir/<kind>, or a hybrid whose routes sit
// directly in dir.
func openOne(kind, dir string, opts Options, leaf func(policy.Spec, string) (kv.Store, error)) (kv.Store, error) {
	if kind != "hybrid" {
		return leaf(policy.Spec{Kind: kind}, filepath.Join(dir, kind))
	}
	p := opts.Policy
	if p == nil {
		p = DefaultHybridPolicy()
	}
	return openPolicyStore(dir, p, leaf)
}

// DefaultHybridPolicy is the paper's §V layout as a policy. The scan
// classes (Finding 4) and every unrouted class stay on the ordered LSM. The
// lifecycle-deleted classes (Finding 5) and the point-read world state
// (Finding 3) go to the single-seek flat store, which appends every write
// and answers a read with one access.
func DefaultHybridPolicy() *policy.Policy {
	return &policy.Policy{
		Default: "ordered",
		Routes: map[string]policy.Spec{
			"ordered": {Kind: "lsm"},
			"flat":    {Kind: "flat"},
		},
		Classes: map[string]string{
			"SnapshotAccount": "ordered",
			"SnapshotStorage": "ordered",
			"BlockHeader":     "ordered",
			"TxLookup":        "flat",
			"BlockBody":       "flat",
			"BlockReceipts":   "flat",
			"TrieNodeAccount": "flat",
			"TrieNodeStorage": "flat",
			"Code":            "flat",
		},
	}
}

// openPolicyStore instantiates a policy as a hybrid.Store: one physical
// backend per route, each under dir/<route>. Route names are sorted so the
// backend (and therefore batch commit) order is deterministic across runs
// and reopens. A subdirectory of dir that is not a route is refused: it
// holds the keys of a route this policy lacks (a store written under another
// derived policy, or a default hybrid from before the hash kind was
// removed), and opening without it would hide them from Get and scans.
func openPolicyStore(dir string, p *policy.Policy, leaf func(policy.Spec, string) (kv.Store, error)) (kv.Store, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(p.Routes))
	for name := range p.Routes {
		names = append(names, name)
	}
	sort.Strings(names)
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	for _, e := range entries {
		if _, ok := p.Routes[e.Name()]; e.IsDir() && !ok {
			return nil, fmt.Errorf("hybrid: %s is not a route of the policy (routes: %s)",
				filepath.Join(dir, e.Name()), strings.Join(names, ", "))
		}
	}

	idx := make(map[string]int, len(names))
	bks := make([]hybrid.Backend, 0, len(names))
	closeAll := func() {
		for _, b := range bks {
			b.Store.Close()
		}
	}
	for _, name := range names {
		st, err := leaf(p.Routes[name], filepath.Join(dir, name))
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("route %s: %w", name, err)
		}
		idx[name] = len(bks)
		bks = append(bks, hybrid.Backend{Name: name, Store: st})
	}

	routing := make(map[rawdb.Class]int, len(p.Classes))
	for c, route := range p.Routing() {
		routing[c] = idx[route]
	}
	s, err := hybrid.NewRouted(bks, routing, idx[p.Default])
	if err != nil {
		closeAll()
		return nil, err
	}
	return s, nil
}

// openRoute opens one backend of spec.Kind at dir, applying the spec's
// option knobs — the one place a kind name becomes a store. Unknown knobs
// are errors so a typo in a policy file cannot silently fall back to
// defaults. (hybrid is a factory kind only, composed around this: a policy
// cannot nest.)
func openRoute(spec policy.Spec, dir string, opts Options, pool *compaction.Pool) (kv.Store, error) {
	switch spec.Kind {
	case "lsm":
		o := lsm.Options{
			DisableWAL:          true,
			MemtableBytes:       256 << 10,
			L0CompactionTrigger: 4,
			LevelBaseBytes:      1 << 20,
			BlockCacheBytes:     opts.BlockCacheBytes,
			CompactionWorkers:   opts.CompactionWorkers,
			Pool:                pool,
		}
		for k, v := range spec.Options {
			switch k {
			case "memtable_kb":
				o.MemtableBytes = int(v) << 10
			case "l0_compaction_trigger":
				o.L0CompactionTrigger = int(v)
			case "level_base_kb":
				o.LevelBaseBytes = v << 10
			case "block_cache_mb":
				o.BlockCacheBytes = v << 20
			case "compaction_table_kb":
				o.CompactionTableBytes = int(v) << 10
			case "compaction_workers":
				// Per-route cap on concurrent compactions; the shared
				// pool still bounds the process-wide total.
				o.CompactionWorkers = int(v)
			default:
				return nil, fmt.Errorf("unknown lsm option %q", k)
			}
		}
		return lsm.Open(dir, o)
	case "flat":
		o := flatstore.Options{}
		for k, v := range spec.Options {
			switch k {
			case "compact_after_dead_kb":
				o.CompactAfterDeadBytes = v << 10
			default:
				return nil, fmt.Errorf("unknown flat option %q", k)
			}
		}
		return flatstore.Open(dir, o)
	case "mem":
		if len(spec.Options) != 0 {
			return nil, fmt.Errorf("mem backend takes no options")
		}
		return kv.NewMemStore(), nil
	default:
		// Only a factory kind gets here: a policy's kinds were validated.
		return nil, fmt.Errorf("unknown backend %q (want %s)", spec.Kind, Kinds())
	}
}
