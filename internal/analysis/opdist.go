package analysis

import (
	"sort"

	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// ClassOps aggregates one class's operation counts (one row of Table II or
// Table III) plus, for the world-state classes, the per-key frequency
// distributions behind Figure 3.
type ClassOps struct {
	Class   rawdb.Class
	Reads   uint64
	Writes  uint64
	Updates uint64
	Deletes uint64
	Scans   uint64

	// Per-key operation frequency (key -> times op'd). Populated only for
	// tracked classes to bound memory; nil otherwise.
	ReadFreq   map[string]uint32
	WriteFreq  map[string]uint32 // writes + updates
	DeleteFreq map[string]uint32
}

// Total returns the class's total op count.
func (c *ClassOps) Total() uint64 {
	return c.Reads + c.Writes + c.Updates + c.Deletes + c.Scans
}

// OpDist is a full trace's operation census.
type OpDist struct {
	PerClass map[rawdb.Class]*ClassOps
	Total    uint64
	// tracked marks classes with per-key frequency maps.
	tracked map[rawdb.Class]bool
	// maxTrackedKeys bounds each per-key frequency map; 0 = unlimited.
	// Once a map is full, counts for already-tracked keys keep updating
	// but new keys are dropped and Truncated is set — the memory guard
	// for paper-scale traces (billions of ops over ~10^8 keys).
	maxTrackedKeys int
	// Truncated reports that at least one frequency map hit the cap.
	Truncated bool
}

// DefaultTrackedClasses are the world-state classes whose per-key
// frequencies Figure 3 plots.
func DefaultTrackedClasses() []rawdb.Class {
	return []rawdb.Class{
		rawdb.ClassTrieNodeAccount, rawdb.ClassTrieNodeStorage,
		rawdb.ClassSnapshotAccount, rawdb.ClassSnapshotStorage,
	}
}

// NewOpDistLimited is NewOpDist with a per-class cap on tracked keys.
func NewOpDistLimited(trackClasses []rawdb.Class, maxTrackedKeys int) *OpDist {
	d := NewOpDist(trackClasses)
	d.maxTrackedKeys = maxTrackedKeys
	return d
}

// NewOpDist creates an empty census tracking per-key frequencies for the
// given classes (nil = DefaultTrackedClasses).
func NewOpDist(trackClasses []rawdb.Class) *OpDist {
	if trackClasses == nil {
		trackClasses = DefaultTrackedClasses()
	}
	d := &OpDist{
		PerClass: make(map[rawdb.Class]*ClassOps),
		tracked:  make(map[rawdb.Class]bool),
	}
	for _, c := range trackClasses {
		d.tracked[c] = true
	}
	return d
}

// Observe folds one traced op into the census. Cache hits (op.Hit) are
// skipped: the paper's traces capture only ops that reach the KV store.
func (d *OpDist) Observe(op trace.Op) {
	if op.Hit {
		return
	}
	co := d.PerClass[op.Class]
	if co == nil {
		co = &ClassOps{Class: op.Class}
		if d.tracked[op.Class] {
			co.ReadFreq = make(map[string]uint32)
			co.WriteFreq = make(map[string]uint32)
			co.DeleteFreq = make(map[string]uint32)
		}
		d.PerClass[op.Class] = co
	}
	switch op.Type {
	case trace.OpRead:
		co.Reads++
		d.bump(co.ReadFreq, op.Key)
	case trace.OpWrite:
		co.Writes++
		d.bump(co.WriteFreq, op.Key)
	case trace.OpUpdate:
		co.Updates++
		d.bump(co.WriteFreq, op.Key)
	case trace.OpDelete:
		co.Deletes++
		d.bump(co.DeleteFreq, op.Key)
	case trace.OpScan:
		co.Scans++
	}
	d.Total++
}

// bump increments a per-key counter, honoring the tracked-key cap.
func (d *OpDist) bump(freq map[string]uint32, key []byte) {
	if freq == nil {
		return
	}
	if _, exists := freq[string(key)]; !exists &&
		d.maxTrackedKeys > 0 && len(freq) >= d.maxTrackedKeys {
		d.Truncated = true
		return
	}
	freq[string(key)]++
}

// observeBatch feeds a batch in stream order (the engine's fan-out target).
func (d *OpDist) observeBatch(ops []trace.Op) {
	for i := range ops {
		d.Observe(ops[i])
	}
}

// CollectOpDist streams a trace reader through a new census in batched
// reads.
func CollectOpDist(r *trace.Reader, trackClasses []rawdb.Class) (*OpDist, error) {
	e := NewEngine()
	h := e.AddOpDist(trackClasses)
	if err := e.RunReader(r); err != nil {
		return nil, err
	}
	return h.Result(), nil
}

// CollectOpDistSlice builds a census from in-memory ops.
func CollectOpDistSlice(ops []trace.Op, trackClasses []rawdb.Class) *OpDist {
	e := NewEngine()
	h := e.AddOpDist(trackClasses)
	if err := e.RunSlice(ops); err != nil {
		// RunSlice cannot fail: no I/O is involved.
		panic(err)
	}
	return h.Result()
}

// Share returns a class's fraction of all ops (Table II/III column 2).
func (d *OpDist) Share(class rawdb.Class) float64 {
	if d.Total == 0 {
		return 0
	}
	co := d.PerClass[class]
	if co == nil {
		return 0
	}
	return float64(co.Total()) / float64(d.Total)
}

// ScanningClasses returns the classes with at least one scan (Finding 4
// expects exactly three: SnapshotAccount, SnapshotStorage, BlockHeader).
func (d *OpDist) ScanningClasses() []rawdb.Class {
	var out []rawdb.Class
	for class, co := range d.PerClass {
		if co.Scans > 0 {
			out = append(out, class)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalReads sums reads across classes.
func (d *OpDist) TotalReads() uint64 {
	var total uint64
	for _, co := range d.PerClass {
		total += co.Reads
	}
	return total
}

// TotalWritesAndUpdates sums writes+updates across classes.
func (d *OpDist) TotalWritesAndUpdates() uint64 {
	var total uint64
	for _, co := range d.PerClass {
		total += co.Writes + co.Updates
	}
	return total
}

// WorldStateReads sums reads of the four world-state classes.
func (d *OpDist) WorldStateReads() uint64 {
	var total uint64
	for class, co := range d.PerClass {
		if class.IsWorldState() {
			total += co.Reads
		}
	}
	return total
}

// WorldStateWrites sums writes+updates of the four world-state classes.
func (d *OpDist) WorldStateWrites() uint64 {
	var total uint64
	for class, co := range d.PerClass {
		if class.IsWorldState() {
			total += co.Writes + co.Updates
		}
	}
	return total
}

// ReadRatio computes Table IV's metric: the fraction of a class's stored
// pairs that were read at least once during the trace. classPairs is the
// class's pair count from the store census.
func (d *OpDist) ReadRatio(class rawdb.Class, classPairs uint64) float64 {
	co := d.PerClass[class]
	if co == nil || co.ReadFreq == nil || classPairs == 0 {
		return 0
	}
	return float64(len(co.ReadFreq)) / float64(classPairs)
}

// FreqPoint is one (frequency, keyCount) sample: "keyCount keys were
// operated on exactly frequency times".
type FreqPoint struct {
	Freq uint32
	Keys uint64
}

// FrequencyDistribution converts a per-key frequency map into sorted
// (frequency, keys) points — one Figure 3 panel.
func FrequencyDistribution(freq map[string]uint32) []FreqPoint {
	hist := make(map[uint32]uint64)
	for _, f := range freq {
		hist[f]++
	}
	points := make([]FreqPoint, 0, len(hist))
	for f, keys := range hist {
		points = append(points, FreqPoint{f, keys})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Freq < points[j].Freq })
	return points
}

// ReadOnceShare returns the fraction of read keys that were read exactly
// once (Finding 3's headline metric).
func ReadOnceShare(freq map[string]uint32) float64 {
	if len(freq) == 0 {
		return 0
	}
	var once int
	for _, f := range freq {
		if f == 1 {
			once++
		}
	}
	return float64(once) / float64(len(freq))
}

// MultiDeleteKeys counts keys deleted more than once — the repeatedly
// deleted-and-reinserted keys of Finding 5.
func MultiDeleteKeys(freq map[string]uint32) uint64 {
	var n uint64
	for _, f := range freq {
		if f > 1 {
			n++
		}
	}
	return n
}

// Classes returns the observed classes in descending op-count order.
func (d *OpDist) Classes() []rawdb.Class {
	out := make([]rawdb.Class, 0, len(d.PerClass))
	for class := range d.PerClass {
		out = append(out, class)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := d.PerClass[out[i]], d.PerClass[out[j]]
		if a.Total() != b.Total() {
			return a.Total() > b.Total()
		}
		return out[i] < out[j]
	})
	return out
}
