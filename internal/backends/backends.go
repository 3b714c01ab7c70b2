// Package backends constructs the repo's storage backends by name. It is
// the shared factory behind the replaybench load generator, the ethkvlab
// pipeline, and the kvserver network front end, so a backend added here
// becomes replayable and servable at once. Every kind it opens scans in
// ascending key order. The hybrid kind is policy-driven: Options.Policy (or
// DefaultHybridPolicy, the paper's §V layout) names the routes, picks each
// route's backend kind, and assigns classes to routes; every route opens with
// the factory's own settings for its kind. A store directory records the
// layout it was created with (layout.go), and Open refuses to reopen it
// under another.
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
	// Shards partitions the keyspace by key hash across this many child
	// stores of the requested kind behind a shard.Router (0 or 1 =
	// unsharded). Each child lives under dir/shard-NN; the directory's
	// layout record refuses a reopen at any other count.
	Shards int
	// Policy configures the hybrid kind's routes (nil =
	// DefaultHybridPolicy: ordered LSM + single-seek flat store). Ignored by
	// other kinds.
	Policy *policy.Policy
	// CompactionWorkers is the process-wide background concurrency budget
	// for LSM-backed kinds (0 = compaction.DefaultWorkers). One
	// compaction.Pool of this size is shared by every LSM instance the Open
	// call creates — all shards and all policy routes — so `-shards 8`
	// contends for these workers instead of spawning 8 uncoordinated sets;
	// the pool prefers the instance with the highest compaction debt. Each
	// instance runs one compaction at a time, so more workers than
	// instances buys only a flush beside each merge; 1 is the serial mode.
	CompactionWorkers int
}

// Kinds lists the recognised backend names, for usage strings.
func Kinds() string { return "lsm, flat, mem, or hybrid" }

// Open constructs the requested store under dir. With opts.Shards > 1 the
// store is a shard.Router over that many children of the same kind. Every
// LSM instance the call creates — across shards and policy routes — shares
// one compaction.Pool sized at opts.CompactionWorkers, so background
// concurrency is budgeted process-wide rather than per instance.
//
// A directory whose layout record disagrees with kind and opts is refused
// before anything opens; a directory without one is adopted, and the
// record is written once the store is open. A mem store keeps nothing past
// Close, so it has no layout to keep.
func Open(kind, dir string, opts Options) (kv.Store, error) {
	want := layoutOf(kind, opts)
	record := kind != "mem"
	if record {
		recorded, err := checkLayout(dir, want)
		if err != nil {
			return nil, err
		}
		record = !recorded
	}
	pool := compaction.NewPool(opts.CompactionWorkers)
	s, err := Compose(kind, dir, opts, func(kind, dir string) (kv.Store, error) {
		return openRoute(kind, dir, opts, pool)
	})
	if err != nil || !record {
		return s, err
	}
	if err := writeLayout(dir, want); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Compose builds kind under dir exactly as Open does — the shard router, a
// hybrid's policy routes in their order and directories — but opens every
// leaf store (the kind itself, or one policy route) with leaf. Open passes
// the factory's own; the crash tests pass stores over injected filesystems.
func Compose(kind, dir string, opts Options, leaf func(kind, dir string) (kv.Store, error)) (kv.Store, error) {
	if opts.Shards > 1 {
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
		return shard.New(children, shard.Options{})
	}
	return openOne(kind, dir, opts, leaf)
}

// openOne constructs a single (unsharded) store of the requested kind: the
// kind as a leaf in dir/<kind>, or a hybrid whose routes sit directly in dir.
func openOne(kind, dir string, opts Options, leaf func(kind, dir string) (kv.Store, error)) (kv.Store, error) {
	if kind != "hybrid" {
		return leaf(kind, filepath.Join(dir, kind))
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
func openPolicyStore(dir string, p *policy.Policy, leaf func(kind, dir string) (kv.Store, error)) (kv.Store, error) {
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
		st, err := leaf(p.Routes[name].Kind, filepath.Join(dir, name))
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

// LSMOptions is the shape of every LSM the factory opens: no WAL, 1 MiB
// memtables, compaction at 4 L0 tables and an L1 target of 4 MiB, which
// is what those 4 flushes hold. The factory sets the block cache and the
// compaction pool on top of it.
func LSMOptions() lsm.Options {
	return lsm.Options{
		DisableWAL:          true,
		MemtableBytes:       1 << 20,
		L0CompactionTrigger: 4,
		LevelBaseBytes:      4 << 20,
	}
}

// openRoute opens one backend of kind at dir — the one place a kind name
// becomes a store. (hybrid is a factory kind only, composed around this: a
// policy cannot nest.)
func openRoute(kind, dir string, opts Options, pool *compaction.Pool) (kv.Store, error) {
	switch kind {
	case "lsm":
		o := LSMOptions()
		o.BlockCacheBytes = opts.BlockCacheBytes
		o.Pool = pool
		return lsm.Open(dir, o)
	case "flat":
		return flatstore.Open(dir, flatstore.Options{})
	case "mem":
		return kv.NewMemStore(), nil
	default:
		// Only a factory kind gets here: a policy's kinds were validated.
		return nil, fmt.Errorf("unknown backend %q (want %s)", kind, Kinds())
	}
}
