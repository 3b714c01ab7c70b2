package analysis

import (
	"sort"

	"ethkv/internal/keccak"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// The paper's correlation metric (§IV-C): two operations of the tracked
// type are correlated at distance d when exactly d other tracked operations
// separate them (d=0 means adjacent). For each distance the analysis counts
// occurrences of unordered key pairs, keeping only pairs observed at least
// twice, and aggregates the surviving occurrences per unordered CLASS pair.
// Frequency distributions (Figures 5 and 7) histogram the per-key-pair
// occurrence counts at NearDistance and FarDistance.

// ClassPair is an unordered pair of classes (A <= B).
type ClassPair struct {
	A, B rawdb.Class
}

// MakeClassPair normalizes the order.
func MakeClassPair(a, b rawdb.Class) ClassPair {
	if a > b {
		a, b = b, a
	}
	return ClassPair{a, b}
}

// Intra reports whether the pair is within one class.
func (p ClassPair) Intra() bool { return p.A == p.B }

// String renders the pair with the paper's abbreviation style.
func (p ClassPair) String() string {
	return p.A.String() + "-" + p.B.String()
}

// NearDistance and FarDistance are the ends of the paper's distance range:
// adjacent ops and the farthest separation counted. They are the two
// distances whose per-key-pair frequencies Figures 5 and 7 histogram.
const (
	NearDistance = 0
	FarDistance  = 1024
)

// distances are the log-spaced separations of Figures 4 and 6, ascending.
var distances = [...]int{NearDistance, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, FarDistance}

// Distances returns the log-spaced distances of Figures 4 and 6, ascending.
func Distances() []int { return append([]int(nil), distances[:]...) }

// Correlator consumes a trace and produces the correlation statistics.
// The hot-path state is indexed by distance position (not distance value)
// so Observe touches arrays, not nested maps.
type Correlator struct {
	// op selects the tracked operation: trace.OpRead for Figures 4-5,
	// trace.OpUpdate for Figures 6-7.
	op trace.OpType

	// ids numbers the distinct keys (by 64-bit fingerprint) in order of
	// first sight, so a key pair packs into one pairKey.
	ids map[uint64]uint32
	// ring holds the last FarDistance+1 tracked ops as (key id, class).
	ring [FarDistance + 1]ringEntry
	pos  uint64 // total tracked ops so far

	// counts[i][pair] accumulates occurrences at distances[i] that passed
	// the min-2 rule.
	counts [len(distances)]map[ClassPair]uint64
	// pairs[i] holds the exact per-key-pair occurrence counts at
	// distances[i].
	pairs [len(distances)]map[pairKey]pairStat
}

// ringEntry is one remembered op.
type ringEntry struct {
	key   uint32
	class rawdb.Class
}

// pairKey identifies an unordered key pair: the lower key id in the high
// half, the higher in the low half.
type pairKey uint64

// pairStat tracks one key pair's occurrences and classes in 8 bytes (the
// classes fit a byte each: rawdb has 29).
type pairStat struct {
	count uint32
	a, b  uint8 // the ClassPair's A and B
}

// pair returns the class pair the stat was recorded under.
func (s pairStat) pair() ClassPair {
	return ClassPair{rawdb.Class(s.a), rawdb.Class(s.b)}
}

// NewCorrelator builds a correlator over the ops of one type (cache hits
// excluded).
func NewCorrelator(op trace.OpType) *Correlator {
	c := &Correlator{op: op, ids: make(map[uint64]uint32)}
	for i := range c.counts {
		c.counts[i] = make(map[ClassPair]uint64)
		c.pairs[i] = make(map[pairKey]pairStat)
	}
	return c
}

// tracks reports whether the op belongs to the tracked stream.
func (c *Correlator) tracks(op trace.Op) bool {
	if op.Hit {
		return false // cache hits never reach the traced interface
	}
	return op.Type == c.op
}

// Observe feeds one op into the correlator.
func (c *Correlator) Observe(op trace.Op) {
	if !c.tracks(op) {
		return
	}
	h := hashKey(op.Key)
	id, ok := c.ids[h]
	if !ok {
		id = uint32(len(c.ids))
		c.ids[h] = id
	}
	class := op.Class
	for i, d := range distances {
		if uint64(d+1) > c.pos {
			break // not enough history yet
		}
		partner := c.ring[(c.pos-uint64(d)-1)%uint64(len(c.ring))]
		if partner.key == id {
			continue // same key is not a pair
		}
		c.apply(i, makePairKey(id, partner.key), MakeClassPair(class, partner.class))
	}
	c.ring[c.pos%uint64(len(c.ring))] = ringEntry{key: id, class: class}
	c.pos++
}

// observeBatch feeds a batch in stream order (the engine's fan-out target).
func (c *Correlator) observeBatch(ops []trace.Op) {
	for i := range ops {
		c.Observe(ops[i])
	}
}

// apply folds one correlated-pair observation at distance index i into the
// counters.
func (c *Correlator) apply(i int, pk pairKey, cp ClassPair) {
	s, ok := c.pairs[i][pk]
	if !ok {
		s = pairStat{a: uint8(cp.A), b: uint8(cp.B)}
	}
	s.count++
	c.pairs[i][pk] = s
	switch s.count {
	case 1:
		// Not yet correlated (needs at least two occurrences).
	case 2:
		c.counts[i][cp] += 2
	default:
		c.counts[i][cp]++
	}
}

// hashKey derives a 64-bit key fingerprint.
func hashKey(key []byte) uint64 {
	h := keccak.Hash256(key)
	return uint64(h[0]) | uint64(h[1])<<8 | uint64(h[2])<<16 | uint64(h[3])<<24 |
		uint64(h[4])<<32 | uint64(h[5])<<40 | uint64(h[6])<<48 | uint64(h[7])<<56
}

// makePairKey orders the two key ids.
func makePairKey(a, b uint32) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey(a)<<32 | pairKey(b)
}

// distIndex maps a distance value to its index, or -1.
func (c *Correlator) distIndex(d int) int {
	for i, dd := range distances {
		if dd == d {
			return i
		}
	}
	return -1
}

// Counts returns the correlated-op count for a class pair at a distance.
func (c *Correlator) Counts(d int, pair ClassPair) uint64 {
	i := c.distIndex(d)
	if i < 0 {
		return 0
	}
	return c.counts[i][pair]
}

// PairSeries is one class pair's counts across distances — one line of
// Figure 4 or 6.
type PairSeries struct {
	Pair   ClassPair
	Counts map[int]uint64
	Total  uint64
}

// TopPairs returns the n class pairs with the highest correlated count at
// the given distance, optionally restricted to intra- or cross-class pairs.
func (c *Correlator) TopPairs(d, n int, intra bool) []PairSeries {
	di := c.distIndex(d)
	if di < 0 {
		return nil
	}
	type row struct {
		pair  ClassPair
		count uint64
	}
	var rows []row
	for pair, count := range c.counts[di] {
		if pair.Intra() != intra {
			continue
		}
		rows = append(rows, row{pair, count})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return rows[i].pair.String() < rows[j].pair.String()
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	out := make([]PairSeries, 0, len(rows))
	for _, r := range rows {
		series := PairSeries{Pair: r.pair, Counts: make(map[int]uint64)}
		for i, dist := range distances {
			cnt := c.counts[i][r.pair]
			series.Counts[dist] = cnt
			series.Total += cnt
		}
		out = append(out, series)
	}
	return out
}

// FrequencyDistribution histograms per-key-pair occurrence counts for one
// class pair at distance d: at NearDistance and FarDistance, the Figure 5 /
// Figure 7 panels. Only pairs meeting the at-least-twice rule appear.
func (c *Correlator) FrequencyDistribution(d int, pair ClassPair) []FreqPoint {
	i := c.distIndex(d)
	if i < 0 {
		return nil
	}
	hist := make(map[uint32]uint64)
	for _, st := range c.pairs[i] {
		if st.count >= 2 && st.pair() == pair {
			hist[st.count]++
		}
	}
	points := make([]FreqPoint, 0, len(hist))
	for f, keys := range hist {
		points = append(points, FreqPoint{f, keys})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Freq < points[j].Freq })
	return points
}

// MaxPairFrequency returns the highest per-key-pair occurrence count for a
// class pair at distance d.
func (c *Correlator) MaxPairFrequency(d int, pair ClassPair) uint64 {
	i := c.distIndex(d)
	if i < 0 {
		return 0
	}
	var max uint32
	for _, st := range c.pairs[i] {
		if st.count >= 2 && st.count > max && st.pair() == pair {
			max = st.count
		}
	}
	return uint64(max)
}

// TrackedOps reports how many ops entered the correlation stream.
func (c *Correlator) TrackedOps() uint64 { return c.pos }

// CollectCorrelations streams a trace through a new correlator in one
// engine pass.
func CollectCorrelations(r *trace.Reader, op trace.OpType) (*Correlator, error) {
	e := NewEngine()
	c := e.AddCorrelator(op)
	if err := e.RunReader(r); err != nil {
		return nil, err
	}
	return c, nil
}

// CollectCorrelationsSlice runs a correlation pass over in-memory ops.
func CollectCorrelationsSlice(ops []trace.Op, op trace.OpType) *Correlator {
	e := NewEngine()
	c := e.AddCorrelator(op)
	if err := e.RunSlice(ops); err != nil {
		// RunSlice cannot fail: no I/O is involved.
		panic(err)
	}
	return c
}
