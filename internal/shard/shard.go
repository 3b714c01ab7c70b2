// Package shard partitions a keyspace horizontally across N child stores
// behind a router that implements the full kv.Store interface. Sharding is
// the single-node scaling move the paper's per-class census motivates: the
// workload's key classes are wildly skewed, so spreading keys across
// independent stores lets a multi-core node parallelize what one store's
// internal locks serialize — without changing any result.
//
// The partition function is a 64-bit FNV-1a hash of the whole key modulo
// the shard count. Load balances near-uniformly; range scans touch every
// shard and are served through a latching k-way merge. (Keeping a class on
// one store is the hybrid store's job, not the router's.)
//
// Routing is a pure function of (key, shard count): two routers over the
// same count agree on every key. That alone does not make reopening a
// sharded directory sound — a router over another count would look for
// most keys on the wrong shard — so internal/backends records the count a
// directory was created with and refuses a reopen under any other.
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
)

// Options tunes a Router. It has no fields: the partition function is fixed.
type Options struct{}

// Router implements kv.Store over N child stores by partitioning the
// keyspace: a fanout.Core (which supplies every kv.Store method, Flush,
// Drain, Stats, RegisterMetrics, Child and ChildOf — the shard owning a key)
// whose pick is the shard function. All methods are safe for concurrent use
// if the children are.
type Router struct {
	*fanout.Core
}

var _ kv.Store = (*Router)(nil)
var _ kv.StatsProvider = (*Router)(nil)
var _ kv.MetricsRegistrar = (*Router)(nil)

// New assembles a router over children. At least one child is required; a
// one-child router is a valid (if pointless) degenerate configuration that
// the equivalence tests lean on.
func New(children []kv.Store, _ Options) (*Router, error) {
	n := len(children)
	if n == 0 {
		return nil, fmt.Errorf("shard: need at least one child store")
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%02d", i)
	}
	pick := func(key []byte) int { return shardOf(key, n) }
	core := fanout.New("shard", names, append([]kv.Store(nil), children...), pick, nil)
	return &Router{Core: core}, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.Len() }

// ShardStats returns each child's own counters (zero for children without
// stats) — the per-shard load distribution.
func (r *Router) ShardStats() []kv.Stats { return r.ChildStats() }

// shardOf is the pure partition function: total (every key maps to exactly
// one shard in [0, n)) and deterministic across router instances.
func shardOf(key []byte, n int) int {
	if n == 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write(key)
	return int(h.Sum64() % uint64(n))
}
