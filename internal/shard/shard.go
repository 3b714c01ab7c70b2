// Package shard partitions a keyspace horizontally across N child stores
// behind a router that implements the full kv.Store interface. Sharding is
// the single-node scaling move the paper's per-class census motivates: the
// workload's key classes are wildly skewed, so spreading keys across
// independent stores lets a multi-core node parallelize what one store's
// internal locks serialize — without changing any result.
//
// Two partition modes:
//
//   - ModeHash spreads every key by a 64-bit FNV-1a hash of the whole key.
//     Load balances near-uniformly; range scans touch every shard and are
//     served through a latching k-way merge.
//   - ModeClass routes by the key's storage class (rawdb.Classify), so all
//     keys of one class — and therefore every class-confined range scan the
//     workload issues (Finding 4) — live on a single shard. Keys of unknown
//     class fall back to the key hash.
//
// Routing is a pure function of (key, shard count, mode): two router
// instances over the same configuration always agree, which is what makes
// reopening a sharded database from its per-shard directories sound.
//
// Everything else — point dispatch, the split batch and its per-shard
// atomicity rule, the merged scan, lifecycle and stats fan-out — is
// internal/fanout's Core with this package's partition function; the
// semantics relative to a single store are stated once, there.
package shard

import (
	"fmt"
	"hash/fnv"

	"ethkv/internal/fanout"
	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
)

// Mode selects the partition function.
type Mode int

const (
	// ModeHash partitions by FNV-1a hash of the whole key.
	ModeHash Mode = iota
	// ModeClass partitions by storage class, falling back to the key hash
	// for keys no class claims.
	ModeClass
)

func (m Mode) String() string {
	if m == ModeClass {
		return "class"
	}
	return "hash"
}

// ParseMode parses "hash" or "class" ("" defaults to hash).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "hash":
		return ModeHash, nil
	case "class":
		return ModeClass, nil
	default:
		return ModeHash, fmt.Errorf("shard: unknown mode %q (want hash or class)", s)
	}
}

// Options tunes a Router.
type Options struct {
	// Mode selects the partition function. Default ModeHash.
	Mode Mode
}

// Router implements kv.Store over N child stores by partitioning the
// keyspace: a fanout.Core (which supplies every kv.Store method, Flush,
// Drain, Stats, RegisterMetrics, Child and ChildOf — the shard owning a key)
// whose pick is the shard function. All methods are safe for concurrent use
// if the children are.
type Router struct {
	*fanout.Core
	mode Mode
}

var _ kv.Store = (*Router)(nil)
var _ kv.StatsProvider = (*Router)(nil)
var _ kv.MetricsRegistrar = (*Router)(nil)

// New assembles a router over children. At least one child is required; a
// one-child router is a valid (if pointless) degenerate configuration that
// the equivalence tests lean on.
func New(children []kv.Store, opts Options) (*Router, error) {
	n := len(children)
	if n == 0 {
		return nil, fmt.Errorf("shard: need at least one child store")
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%02d", i)
	}
	pick := func(key []byte) int { return shardOf(key, n, opts.Mode) }
	core := fanout.New("shard", names, append([]kv.Store(nil), children...), pick, nil)
	return &Router{Core: core, mode: opts.Mode}, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.Len() }

// Mode returns the partition mode.
func (r *Router) Mode() Mode { return r.mode }

// ShardStats returns each child's own counters (zero for children without
// stats) — the per-shard load distribution the scale sweep reports.
func (r *Router) ShardStats() []kv.Stats { return r.ChildStats() }

// shardOf is the pure partition function: total (every key maps to exactly
// one shard in [0, n)) and deterministic across router instances.
func shardOf(key []byte, n int, mode Mode) int {
	if n == 1 {
		return 0
	}
	if mode == ModeClass {
		if c := rawdb.Classify(key); c != rawdb.ClassUnknown {
			return int(uint(c) % uint(n))
		}
	}
	h := fnv.New64a()
	h.Write(key)
	return int(h.Sum64() % uint64(n))
}
