// Package obs is the storage stack's observability layer: lock-free
// counters, gauges, and log₂-bucketed latency histograms collected behind a
// Registry, exported three ways — a Snapshot API for benchmark harnesses, a
// Prometheus text endpoint (with net/http/pprof alongside), and whatever
// periodic progress lines a long-running tool wants to print.
//
// The paper's whole method is measuring the KV stream from outside the
// store; this package turns the same lens inward so the repo's own storage
// stack stops being a black box at runtime. Hot-path cost is one atomic add
// per event (two for histograms); when a component is handed a nil
// *Registry everything compiles down to untaken branches.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing lock-free counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a lock-free instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the bucket count of a log₂ histogram: bucket i holds
// values v with bits.Len64(v) == i, i.e. bucket 0 holds zero and bucket i>0
// holds [2^(i-1), 2^i). 64-bit values need 65 buckets.
const histBuckets = 65

// Histogram is a lock-free log₂-bucketed histogram. One Observe costs two
// atomic adds; there is no lock, no allocation, and no bucket search — the
// bucket index is the bit length of the value. Resolution is a factor of
// two, which is exactly what latency percentiles need (the difference
// between 1.1µs and 1.4µs is noise; the difference between 1µs and 1ms is
// the finding).
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value (typically nanoseconds).
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// snapshot copies the histogram's counters. Concurrent Observes may land
// between bucket reads; the snapshot is consistent to within in-flight
// events, which is all a percentile readout needs.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [histBuckets]uint64
}

// bucketBounds returns the value range [lo, hi] covered by bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1)<<i - 1)
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]) by linear
// interpolation inside the owning log₂ bucket. With factor-of-two buckets
// the estimate is within 2x of the true value, and typically much closer.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank < next || i == histBuckets-1 {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / float64(n)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return 0
}

// Registry holds named metrics. Metric constructors are get-or-create and
// safe for concurrent use; the returned handles are the hot-path objects —
// look them up once, not per event.
//
// Series names follow the Prometheus data model: a bare name
// ("lsm_flush_queue") or a name with labels (`op_latency_ns{op="get"}`).
// The exposition layer splits the label block when it needs to inject the
// histogram "le" label.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() float64),
		histograms: make(map[string]*Histogram),
	}
}

// Name composes a series name from a base and alternating label key/value
// pairs: Name("op_latency_ns", "op", "get") → `op_latency_ns{op="get"}`.
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// splitName separates a series name into its base and label block (without
// braces). A name without labels returns an empty label block.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback gauge: f is invoked at snapshot/export
// time. f must be safe to call from any goroutine. Re-registering a name
// replaces the callback.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = f
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies every metric. Callback gauges are evaluated; a callback
// returning NaN is recorded as 0.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	funcs := make(map[string]func() float64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		funcs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	r.mu.Unlock()

	// Values are read outside the registry lock: callback gauges may take
	// component locks of their own (the LSM level gauges take db.mu).
	snap := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)+len(funcs)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, c := range counters {
		snap.Counters[k] = c.Load()
	}
	for k, g := range gauges {
		snap.Gauges[k] = float64(g.Load())
	}
	for k, f := range funcs {
		v := f()
		if math.IsNaN(v) {
			v = 0
		}
		snap.Gauges[k] = v
	}
	for k, h := range hists {
		snap.Histograms[k] = h.snapshot()
	}
	return snap
}

// sortedKeys returns map keys in lexical order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
