// Package policy closes the loop from workload census to storage layout
// (ROADMAP item 5): it models a per-class storage policy — which backend
// kind serves each of the paper's key classes — and derives one
// automatically from a traced workload's analysis.OpDist — the census behind
// the paper's Tables II/III — reading the per-class measures those tables
// report (read ratio, delete ratio, scan share, write share).
//
// A policy names a set of routes (one backend kind each), assigns classes
// to routes, and picks a default route for unrouted and unknown-class
// keys. internal/backends instantiates it as a hybrid.Store with one
// physical backend per route, opened with the factory's own settings: a
// route carries no tuning.
//
// The serialized form is JSON plus '//' comment lines (stripped on load);
// Derive records its per-class rationale so the emitted file documents why
// each class landed where it did.
package policy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"ethkv/internal/analysis"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// Kinds a route may use: the durable, ordered kinds internal/backends
// accepts for single-backend stores. The factory's mem kind is not one — a
// route of it inside a directory-backed hybrid would drop its classes at
// Close.
var validKinds = map[string]bool{"lsm": true, "flat": true}

// Spec configures one route's physical backend.
type Spec struct {
	// Kind is the backend kind: lsm or flat.
	Kind string `json:"kind"`
}

// Policy is a per-class storage policy.
type Policy struct {
	// Default names the route for unrouted classes and unknown keys.
	Default string `json:"default"`
	// Routes maps route name -> backend spec.
	Routes map[string]Spec `json:"routes"`
	// Classes maps class name (rawdb.Class.String) -> route name. Classes
	// absent from the map use Default.
	Classes map[string]string `json:"classes"`
	// Rationale maps class name -> why Derive chose its route. Not part of
	// the JSON schema; Encode emits it as comment lines.
	Rationale map[string]string `json:"-"`
}

// Validate checks internal consistency: the default route exists, every
// class name parses, every class's route exists, kinds are known, and
// route names are safe to use as directory names.
func (p *Policy) Validate() error {
	if p.Default == "" {
		return fmt.Errorf("policy: no default route")
	}
	if len(p.Routes) == 0 {
		return fmt.Errorf("policy: no routes")
	}
	if _, ok := p.Routes[p.Default]; !ok {
		return fmt.Errorf("policy: default route %q not defined", p.Default)
	}
	for name, spec := range p.Routes {
		if !routeNameOK(name) {
			return fmt.Errorf("policy: route name %q (must be [A-Za-z0-9._-]+, not . or ..)", name)
		}
		if !validKinds[spec.Kind] {
			return fmt.Errorf("policy: route %q has unknown kind %q (want lsm or flat)", name, spec.Kind)
		}
	}
	for class, route := range p.Classes {
		if _, ok := rawdb.ParseClass(class); !ok {
			return fmt.Errorf("policy: unknown class %q", class)
		}
		if _, ok := p.Routes[route]; !ok {
			return fmt.Errorf("policy: class %s routed to undefined route %q", class, route)
		}
	}
	return nil
}

// routeNameOK reports whether name is a single path element naming a child
// of the store directory: "." and ".." would name the directory itself and
// its parent.
func routeNameOK(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// Routing converts Classes to a rawdb.Class-keyed map. Call Validate
// first; unparseable class names are skipped here.
func (p *Policy) Routing() map[rawdb.Class]string {
	out := make(map[rawdb.Class]string, len(p.Classes))
	for class, route := range p.Classes {
		if c, ok := rawdb.ParseClass(class); ok {
			out[c] = route
		}
	}
	return out
}

// Encode renders the policy as commented JSON: valid JSON once the '//'
// lines are stripped, with one comment line per class carrying Derive's
// rationale. Classes appear in Table I order, routes alphabetically.
func (p *Policy) Encode() []byte {
	var b bytes.Buffer
	b.WriteString("// ethkv storage policy: class -> route -> backend kind.\n")
	b.WriteString("// Lines starting with // are comments and are stripped on load.\n")
	b.WriteString("{\n")
	fmt.Fprintf(&b, "  \"default\": %q,\n", p.Default)

	b.WriteString("  \"routes\": {\n")
	routeNames := make([]string, 0, len(p.Routes))
	for name := range p.Routes {
		routeNames = append(routeNames, name)
	}
	sort.Strings(routeNames)
	for i, name := range routeNames {
		spec, _ := json.Marshal(p.Routes[name])
		comma := ","
		if i == len(routeNames)-1 {
			comma = ""
		}
		fmt.Fprintf(&b, "    %q: %s%s\n", name, spec, comma)
	}
	b.WriteString("  },\n")

	b.WriteString("  \"classes\": {\n")
	ordered := make([]string, 0, len(p.Classes))
	for _, c := range rawdb.AllClasses() {
		if _, ok := p.Classes[c.String()]; ok {
			ordered = append(ordered, c.String())
		}
	}
	// Defensive: include any names not covered by Table I order.
	if len(ordered) < len(p.Classes) {
		covered := make(map[string]bool, len(ordered))
		for _, n := range ordered {
			covered[n] = true
		}
		var rest []string
		for n := range p.Classes {
			if !covered[n] {
				rest = append(rest, n)
			}
		}
		sort.Strings(rest)
		ordered = append(ordered, rest...)
	}
	for i, name := range ordered {
		if why := p.Rationale[name]; why != "" {
			fmt.Fprintf(&b, "    // %s: %s\n", name, why)
		}
		comma := ","
		if i == len(ordered)-1 {
			comma = ""
		}
		fmt.Fprintf(&b, "    %q: %q%s\n", name, p.Classes[name], comma)
	}
	b.WriteString("  }\n}\n")
	return b.Bytes()
}

// Save writes the encoded policy to path.
func (p *Policy) Save(path string) error {
	return os.WriteFile(path, p.Encode(), 0o644)
}

// Parse decodes a policy from commented JSON and validates it.
func Parse(data []byte) (*Policy, error) {
	var clean bytes.Buffer
	for _, line := range strings.Split(string(data), "\n") {
		if t := strings.TrimSpace(line); strings.HasPrefix(t, "//") {
			continue
		}
		clean.WriteString(line)
		clean.WriteByte('\n')
	}
	dec := json.NewDecoder(&clean)
	dec.DisallowUnknownFields()
	p := &Policy{}
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Load reads and parses a policy file.
func Load(path string) (*Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// CollectCensus folds a traced op stream into the untracked census Derive
// reads: the paper's per-class op counts without per-key frequency maps.
// Cache hits are skipped by OpDist's one rule — they never reach the store
// the policy lays out.
func CollectCensus(ops []trace.Op) *analysis.OpDist {
	return analysis.CollectOpDistSlice(ops, []rawdb.Class{})
}

// Derivation thresholds (documented in DESIGN.md §16).
const (
	// DeleteHeavyRatio: deletes/total at or above this mark a class
	// tombstone-heavy (TxLookup-style lifecycle churn).
	DeleteHeavyRatio = 0.10
	// ReadHotRatio: reads/total at or above this mark a class
	// point-read-hot.
	ReadHotRatio = 0.40
	// WriteOnceRatio: (writes+updates)/total at or above this mark a class
	// write-once/write-mostly.
	WriteOnceRatio = 0.95
)

// Route names Derive emits.
const (
	routeOrdered = "ordered" // LSM: scans and leftovers
	routeFlat    = "flat"    // single-seek flat store
)

// Derive builds a policy from a census using the paper's per-class
// measures — the two-store layout of the paper's §V. Rules, first match
// wins:
//
//  1. Any scans -> ordered LSM (scans need key order, Finding 4).
//  2. Delete ratio >= DeleteHeavyRatio (lifecycle-deleted, Finding 5), read
//     ratio >= ReadHotRatio (point-read-hot, Finding 3), or write share >=
//     WriteOnceRatio (write-once) -> flat store. It answers a read with one
//     access, appends every write, and drops a deleted key's index entry at
//     once — no tombstone debt.
//  3. Otherwise the class stays on the default ordered route.
func Derive(census *analysis.OpDist) *Policy {
	p := &Policy{
		Default:   routeOrdered,
		Routes:    map[string]Spec{routeOrdered: {Kind: "lsm"}},
		Classes:   make(map[string]string),
		Rationale: make(map[string]string),
	}
	for _, c := range rawdb.AllClasses() {
		cc := census.PerClass[c]
		if cc == nil || cc.Total() == 0 {
			continue
		}
		total := float64(cc.Total())
		readRatio := float64(cc.Reads) / total
		delRatio := float64(cc.Deletes) / total
		writeRatio := float64(cc.Writes+cc.Updates) / total

		route := routeFlat
		var why string
		switch {
		case cc.Scans > 0:
			route = routeOrdered
			why = fmt.Sprintf("%d scans — needs key order; ordered LSM", cc.Scans)
		case delRatio >= DeleteHeavyRatio:
			why = fmt.Sprintf("delete ratio %.1f%% ≥ %.0f%% — flat store drops deleted keys at once, no tombstone debt",
				100*delRatio, 100*DeleteHeavyRatio)
		case readRatio >= ReadHotRatio:
			why = fmt.Sprintf("read ratio %.1f%% ≥ %.0f%% — point-read-hot; single-seek flat store",
				100*readRatio, 100*ReadHotRatio)
		case writeRatio >= WriteOnceRatio:
			why = fmt.Sprintf("write share %.1f%% ≥ %.0f%% — write-once; append-only flat store",
				100*writeRatio, 100*WriteOnceRatio)
		default:
			route = routeOrdered
			why = fmt.Sprintf("mixed (read %.1f%%, write %.1f%%, delete %.1f%%) — default ordered LSM",
				100*readRatio, 100*writeRatio, 100*delRatio)
		}
		if route == routeFlat {
			p.Routes[routeFlat] = Spec{Kind: "flat"}
		}
		p.Classes[c.String()] = route
		p.Rationale[c.String()] = why
	}
	return p
}
