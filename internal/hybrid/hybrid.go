// Package hybrid implements §V's conceptual design: a class-routed key-value
// store that picks the data structure by the class's measured access
// pattern. It exists to evaluate the paper's design recommendations against
// the single-LSM baseline (ablation experiments E12/E13 in DESIGN.md). The
// correlation-aware cache lives in internal/cache.
//
// The store is a generic dispatcher over N named backends: a routing table
// maps each rawdb.Class to a backend index, and every operation classifies
// its key and dispatches to the class's route. Keys of unrouted classes
// (including ClassUnknown) go to the default route. NewRouted is the only
// constructor; the routing tables come from internal/policy, which derives
// them plus per-backend configurations from a workload census, and the
// paper's fixed layout (ordered LSM for scan classes, single-seek flat store
// for the rest — Findings 3-5) is one such policy,
// backends.DefaultHybridPolicy.
//
// The dispatch machine itself — point dispatch, the split batch (one atomic
// sub-batch per touched backend, committed in backend order), the merged
// scan, lifecycle and stats fan-out — is internal/fanout's Core. This package
// supplies the partition function (key class -> route) and the scan plan:
// a scan visits every backend whose classes could match the requested prefix
// (rawdb.Class.MatchesScanPrefix), so a short or empty prefix cannot
// silently confine the scan to one route.
package hybrid

import (
	"fmt"

	"ethkv/internal/fanout"
	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
)

// Backend is one named route of a hybrid store.
type Backend struct {
	Name  string
	Store kv.Store
}

// Store is the class-routed hybrid store: a fanout.Core (which supplies
// every kv.Store method, Flush, Drain, Stats and RegisterMetrics) that
// classifies each key and dispatches to its class's route.
type Store struct {
	*fanout.Core
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
	stores := make([]kv.Store, len(backends))
	for i, b := range backends {
		stores[i] = b.Store
	}
	s.Core = fanout.New("route", s.Backends(), stores, s.routeIndex, s.scanBackends)
	return s, nil
}

// Backends returns the route names in backend order.
func (s *Store) Backends() []string {
	names := make([]string, len(s.backends))
	for i, b := range s.backends {
		names[i] = b.Name
	}
	return names
}

// routeIndex picks the backend index for a key — the Core's pick.
func (s *Store) routeIndex(key []byte) int {
	return s.routes[rawdb.Classify(key)]
}

// scanBackends is the Core's plan. It returns, in backend order, the indices
// of every backend a scan over prefix may need to visit: the default route
// (unrouted and unknown-class keys can match any prefix) plus each route
// owning a class whose keys could start with the prefix. Classifying the
// prefix itself would be wrong — a one-byte prefix like "l" is ClassUnknown,
// yet every TxLookup key starts with it. A class-specific prefix usually
// leaves one candidate, whose iterator the Core returns as is; otherwise the
// Core merges the candidates in key order.
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

// BackendStats returns per-route counters for ablation reporting, keyed by
// route name.
func (s *Store) BackendStats() map[string]kv.Stats {
	out := make(map[string]kv.Stats, len(s.backends))
	for i, st := range s.ChildStats() {
		out[s.backends[i].Name] = st
	}
	return out
}
