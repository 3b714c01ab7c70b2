// Package hybrid implements §V's conceptual design: a class-routed key-value
// store that picks the data structure by the class's measured access
// pattern, plus the correlation-aware cache wiring. It exists to evaluate
// the paper's design recommendations against the single-LSM baseline
// (ablation experiments E12/E13 in DESIGN.md).
//
// The store is a generic dispatcher over N named backends: a routing table
// maps each rawdb.Class to a backend index, and every operation classifies
// its key and dispatches to the class's route. Keys of unrouted classes
// (including ClassUnknown) go to the default route. internal/policy derives
// routing tables plus per-backend configurations from a workload census;
// the classic three-route layout of the paper (ordered LSM, append-only
// log, hash store — Findings 3-5) remains available through New.
//
// Two cross-backend invariants the dispatcher maintains:
//
//   - Batches are split into one sub-batch per target backend and the
//     sub-batches commit in backend order, so each backend sees a single
//     atomic (group-committed) batch rather than a stream of single ops.
//   - Scans merge every backend whose classes could match the requested
//     prefix (rawdb.Class.MatchesScanPrefix), via the shard package's
//     latching k-way merge, so a short or empty prefix cannot silently
//     confine the scan to one route.
package hybrid

import (
	"fmt"

	"ethkv/internal/kv"
	"ethkv/internal/obs"
	"ethkv/internal/rawdb"
	"ethkv/internal/shard"
)

// Route identifies one of the classic three routes (kept for the paper's
// fixed layout and as indices into New's backend order).
type Route int

// The three classic routes. Their numeric values double as backend indices
// in stores assembled by New.
const (
	RouteOrdered Route = iota // LSM/B+-tree style ordered store
	RouteLog                  // append-only log with batched deletion
	RouteHash                 // hash store with in-place deletes
)

func (r Route) String() string {
	switch r {
	case RouteLog:
		return "log"
	case RouteHash:
		return "hash"
	default:
		return "ordered"
	}
}

// DefaultRouting maps every class per the paper's findings: scan classes
// stay ordered (Finding 4), lifecycle-deleted classes ride the log
// (Finding 5), point-read world state rides the hash store (Finding 3).
func DefaultRouting() map[rawdb.Class]Route {
	return map[rawdb.Class]Route{
		// Scan classes stay ordered (Finding 4).
		rawdb.ClassSnapshotAccount: RouteOrdered,
		rawdb.ClassSnapshotStorage: RouteOrdered,
		rawdb.ClassBlockHeader:     RouteOrdered,
		// Lifecycle-deleted classes ride the log (Finding 5).
		rawdb.ClassTxLookup:      RouteLog,
		rawdb.ClassBlockBody:     RouteLog,
		rawdb.ClassBlockReceipts: RouteLog,
		// Point-read world state rides the hash store (Finding 3).
		rawdb.ClassTrieNodeAccount: RouteHash,
		rawdb.ClassTrieNodeStorage: RouteHash,
		rawdb.ClassCode:            RouteHash,
	}
}

// Backend is one named route of a hybrid store.
type Backend struct {
	Name  string
	Store kv.Store
}

// Store is the class-routed hybrid store. It implements kv.Store: every
// operation classifies its key and dispatches to the route's backend.
type Store struct {
	backends []Backend
	// routes is indexed by rawdb.Class: dispatch runs on every op, so the
	// class -> backend map is flattened to an array lookup. Unrouted
	// classes (and ClassUnknown) hold def.
	routes [rawdb.NumClasses + 1]int
	def    int                 // backends index for unrouted classes
	routed map[rawdb.Class]int // the explicit routing, for scan planning
}

var _ kv.Store = (*Store)(nil)

// NewRouted assembles a hybrid store over arbitrary named backends.
// routing maps classes to indices into backends; classes absent from the
// map (and ClassUnknown, which can never be routed) fall through to
// backends[def].
func NewRouted(backends []Backend, routing map[rawdb.Class]int, def int) (*Store, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("hybrid: no backends")
	}
	seen := make(map[string]bool, len(backends))
	for i, b := range backends {
		if b.Name == "" {
			return nil, fmt.Errorf("hybrid: backend %d has no name", i)
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("hybrid: duplicate backend name %q", b.Name)
		}
		seen[b.Name] = true
		if b.Store == nil {
			return nil, fmt.Errorf("hybrid: backend %q has nil store", b.Name)
		}
	}
	if def < 0 || def >= len(backends) {
		return nil, fmt.Errorf("hybrid: default backend index %d out of range", def)
	}
	r := make(map[rawdb.Class]int, len(routing))
	s := &Store{backends: backends, def: def, routed: r}
	for i := range s.routes {
		s.routes[i] = def
	}
	for c, i := range routing {
		if i < 0 || i >= len(backends) {
			return nil, fmt.Errorf("hybrid: class %s routed to backend index %d out of range", c, i)
		}
		if c <= rawdb.ClassUnknown || int(c) > rawdb.NumClasses {
			return nil, fmt.Errorf("hybrid: cannot route class %s", c)
		}
		r[c] = i
		s.routes[c] = i
	}
	return s, nil
}

// New assembles the classic three-route hybrid store (ordered/log/hash
// backend order, ordered as the default route). routing may be nil for
// DefaultRouting.
func New(ordered, log, hash kv.Store, routing map[rawdb.Class]Route) *Store {
	if routing == nil {
		routing = DefaultRouting()
	}
	idx := make(map[rawdb.Class]int, len(routing))
	for c, r := range routing {
		idx[c] = int(r)
	}
	s, err := NewRouted([]Backend{
		{Name: RouteOrdered.String(), Store: ordered},
		{Name: RouteLog.String(), Store: log},
		{Name: RouteHash.String(), Store: hash},
	}, idx, int(RouteOrdered))
	if err != nil {
		// The three-route shape is valid by construction unless a backend
		// is nil, which was always a caller bug.
		panic(err)
	}
	return s
}

// Backends returns the route names in backend order.
func (s *Store) Backends() []string {
	names := make([]string, len(s.backends))
	for i, b := range s.backends {
		names[i] = b.Name
	}
	return names
}

// routeIndex picks the backend index for a key.
func (s *Store) routeIndex(key []byte) int {
	return s.routes[rawdb.Classify(key)]
}

// backend picks the store for a key.
func (s *Store) backend(key []byte) kv.Store {
	return s.backends[s.routeIndex(key)].Store
}

// Get implements kv.Reader.
func (s *Store) Get(key []byte) ([]byte, error) { return s.backend(key).Get(key) }

// Has implements kv.Reader.
func (s *Store) Has(key []byte) (bool, error) { return s.backend(key).Has(key) }

// Put implements kv.Writer.
func (s *Store) Put(key, value []byte) error { return s.backend(key).Put(key, value) }

// Delete implements kv.Writer.
func (s *Store) Delete(key []byte) error { return s.backend(key).Delete(key) }

// scanBackends returns, in backend order, the indices of every backend a
// scan over prefix may need to visit: the default route (unrouted and
// unknown-class keys can match any prefix) plus each route owning a class
// whose keys could start with the prefix. Classifying the prefix itself
// would be wrong — a one-byte prefix like "l" is ClassUnknown, yet every
// TxLookup key starts with it.
func (s *Store) scanBackends(prefix []byte) []int {
	include := make([]bool, len(s.backends))
	include[s.def] = true
	for c, i := range s.routed {
		if !include[i] && c.MatchesScanPrefix(prefix) {
			include[i] = true
		}
	}
	out := make([]int, 0, len(s.backends))
	for i, in := range include {
		if in {
			out = append(out, i)
		}
	}
	return out
}

// NewIterator implements kv.Iterable with a merged scan over every backend
// whose classes can match the prefix (see scanBackends). With a single
// candidate backend the child iterator is returned directly; otherwise the
// children are k-way-merged with latched errors (shard.MergeIterators).
// Order is only meaningful when every merged child is ordered; the
// measured workload's scans are confined to ordered classes (Finding 4),
// so class-specific prefixes keep their single ordered child and full-range
// scans trade order for completeness.
func (s *Store) NewIterator(prefix, start []byte) kv.Iterator {
	idxs := s.scanBackends(prefix)
	if len(idxs) == 1 {
		return s.backends[idxs[0]].Store.NewIterator(prefix, start)
	}
	iters := make([]kv.Iterator, len(idxs))
	for i, bi := range idxs {
		iters[i] = s.backends[bi].Store.NewIterator(prefix, start)
	}
	return shard.MergeIterators(iters)
}

// NewBatch implements kv.Batcher with a routing batch.
func (s *Store) NewBatch() kv.Batch {
	return &routedBatch{store: s}
}

// Flush forces buffered writes down on every backend that supports it,
// returning the first error after attempting all: one route's failure must
// not leave the others' writes buffered.
func (s *Store) Flush() error {
	var first error
	for _, b := range s.backends {
		if f, ok := b.Store.(interface{ Flush() error }); ok {
			if err := f.Flush(); err != nil && first == nil {
				first = fmt.Errorf("route %s: flush: %w", b.Name, err)
			}
		}
	}
	return first
}

// Drain implements kv.Drainer by draining every backend that supports it,
// returning the first error after attempting all.
func (s *Store) Drain() error {
	var first error
	for _, b := range s.backends {
		if err := kv.Drain(b.Store); err != nil && first == nil {
			first = fmt.Errorf("route %s: drain: %w", b.Name, err)
		}
	}
	return first
}

// Close closes every backend, returning the first error.
func (s *Store) Close() error {
	var first error
	for _, b := range s.backends {
		if err := b.Store.Close(); err != nil && first == nil {
			first = fmt.Errorf("route %s: %w", b.Name, err)
		}
	}
	return first
}

// Stats merges the backends' counters. kv.Stats.Merge carries every field —
// including counters only some backends track (live/dead value-log bytes,
// compaction rewrites, physical read ops) — so a new counter added to
// kv.Stats can never be silently dropped from the merged view.
func (s *Store) Stats() kv.Stats {
	var out kv.Stats
	for _, b := range s.backends {
		if sp, ok := b.Store.(kv.StatsProvider); ok {
			out.Merge(sp.Stats())
		}
	}
	return out
}

// RegisterMetrics implements kv.MetricsRegistrar by delegating to each
// backend that can export internals, labelling series with route=<name> so
// the backends stay distinguishable on one registry.
func (s *Store) RegisterMetrics(r *obs.Registry, labels ...string) {
	if r == nil {
		return
	}
	for _, b := range s.backends {
		rl := append([]string{"route", b.Name}, labels...)
		if reg, ok := b.Store.(kv.MetricsRegistrar); ok {
			reg.RegisterMetrics(r, rl...)
		} else if sp, ok := b.Store.(kv.StatsProvider); ok {
			kv.RegisterStatsMetrics(r, sp, rl...)
		}
	}
}

// BackendStats returns per-route counters for ablation reporting, keyed by
// route name.
func (s *Store) BackendStats() map[string]kv.Stats {
	out := make(map[string]kv.Stats, len(s.backends))
	for _, b := range s.backends {
		if sp, ok := b.Store.(kv.StatsProvider); ok {
			out[b.Name] = sp.Stats()
		}
	}
	return out
}

// routedBatch groups batched ops into one sub-batch per target backend and
// commits the sub-batches in backend (fixed route) order, mirroring
// shard.Router's batch. Each backend therefore receives its share of the
// hybrid batch as a single Batch.Write — one WAL group-commit record on an
// LSM route, one atomic group record on a flat route — instead of the
// per-op Put/Delete replay that would lose batch atomicity.
type routedBatch struct {
	store *Store
	ops   []batchOp
	size  int
}

type batchOp struct {
	key, value []byte
	delete     bool
}

func (b *routedBatch) Put(key, value []byte) error {
	b.ops = append(b.ops, batchOp{
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	})
	b.size += len(key) + len(value)
	return nil
}

func (b *routedBatch) Delete(key []byte) error {
	b.ops = append(b.ops, batchOp{key: append([]byte(nil), key...), delete: true})
	b.size += len(key)
	return nil
}

func (b *routedBatch) ValueSize() int { return b.size }

func (b *routedBatch) Write() error {
	s := b.store
	subs := make([]kv.Batch, len(s.backends))
	for _, op := range b.ops {
		i := s.routeIndex(op.key)
		if subs[i] == nil {
			subs[i] = s.backends[i].Store.NewBatch()
		}
		var err error
		if op.delete {
			err = subs[i].Delete(op.key)
		} else {
			err = subs[i].Put(op.key, op.value)
		}
		if err != nil {
			return fmt.Errorf("route %s: %w", s.backends[i].Name, err)
		}
	}
	for i, sub := range subs {
		if sub == nil {
			continue
		}
		if err := sub.Write(); err != nil {
			return fmt.Errorf("route %s: %w", s.backends[i].Name, err)
		}
	}
	return nil
}

func (b *routedBatch) Reset() { b.ops, b.size = b.ops[:0], 0 }

func (b *routedBatch) Replay(w kv.Writer) error {
	for _, op := range b.ops {
		var err error
		if op.delete {
			err = w.Delete(op.key)
		} else {
			err = w.Put(op.key, op.value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
