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
// occurrence counts at selected distances.

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

// DefaultDistances are the log-spaced distances of Figures 4 and 6.
func DefaultDistances() []int {
	return []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// CorrConfig tunes a correlation pass.
type CorrConfig struct {
	// Op selects the tracked operation: trace.OpRead for Figures 4-5,
	// trace.OpUpdate for Figures 6-7.
	Op trace.OpType
	// IncludeWrites folds OpWrite into an OpUpdate pass (Geth batches both
	// kinds at block boundaries; the paper's update analysis covers the
	// batched write stream).
	IncludeWrites bool
	// Distances are the separations to count (nil = DefaultDistances).
	Distances []int
	// TrackPairsAt lists the distances (subset of Distances) where exact
	// per-key-pair counts are kept for the frequency distributions; at
	// other distances a fixed-size counting sketch enforces the
	// at-least-twice rule with bounded memory. Nil = {0, 1024}.
	TrackPairsAt []int
}

// Correlator consumes a trace and produces the correlation statistics.
// The hot-path state is indexed by distance position (not distance value)
// so Observe touches slices, not nested maps.
type Correlator struct {
	cfg       CorrConfig
	distances []int
	maxDist   int

	// ring holds the last maxDist+1 tracked ops as (keyHash, class).
	ring []ringEntry
	pos  uint64 // total tracked ops so far

	// counts[i][pair] accumulates occurrences at distances[i] that passed
	// the min-2 rule.
	counts []map[ClassPair]uint64
	// pairCounts[i] holds exact per-key-pair occurrence counts when
	// distances[i] is tracked; nil otherwise (sketch path).
	pairCounts []map[pairKey]*pairStat
	// sketch approximates per-(pair,distance) occurrence counts for the
	// min-2 rule at non-tracked distances.
	sketch []uint8

	// pairCountsByDist aliases pairCounts by distance value for the
	// accessor methods (FrequencyDistribution, MaxPairFrequency).
	pairCountsByDist map[int]map[pairKey]*pairStat
}

// ringEntry is one remembered op.
type ringEntry struct {
	keyHash uint64
	class   rawdb.Class
}

// pairKey identifies an unordered key pair by two 64-bit key hashes.
type pairKey struct {
	lo, hi uint64
}

// pairStat tracks one key pair's occurrences and classes.
type pairStat struct {
	count uint64
	pair  ClassPair
}

// sketchBits sizes the counting sketch (2^24 counters = 16 MiB).
const sketchBits = 24

// sketchIndex hashes (pair, distance) into the counting sketch.
func sketchIndex(pk pairKey, d int) uint64 {
	return (pk.lo*0x9e3779b97f4a7c15 + pk.hi*0xc2b2ae3d27d4eb4f + uint64(d)*0x165667b19e3779f9) & (1<<sketchBits - 1)
}

// NewCorrelator builds a correlator for the config.
func NewCorrelator(cfg CorrConfig) *Correlator {
	if cfg.Distances == nil {
		cfg.Distances = DefaultDistances()
	}
	if cfg.TrackPairsAt == nil {
		cfg.TrackPairsAt = []int{0, 1024}
	}
	c := &Correlator{
		cfg:              cfg,
		distances:        append([]int(nil), cfg.Distances...),
		sketch:           make([]uint8, 1<<sketchBits),
		pairCountsByDist: make(map[int]map[pairKey]*pairStat),
	}
	sort.Ints(c.distances)
	c.maxDist = c.distances[len(c.distances)-1]
	c.ring = make([]ringEntry, c.maxDist+1)
	c.counts = make([]map[ClassPair]uint64, len(c.distances))
	c.pairCounts = make([]map[pairKey]*pairStat, len(c.distances))
	for i, d := range c.distances {
		c.counts[i] = make(map[ClassPair]uint64)
		for _, t := range cfg.TrackPairsAt {
			if t == d {
				c.pairCounts[i] = make(map[pairKey]*pairStat)
				c.pairCountsByDist[d] = c.pairCounts[i]
				break
			}
		}
	}
	// TrackPairsAt entries outside Distances never receive observations but
	// stay addressable, matching the historical accessor behavior.
	for _, d := range cfg.TrackPairsAt {
		if _, ok := c.pairCountsByDist[d]; !ok {
			c.pairCountsByDist[d] = make(map[pairKey]*pairStat)
		}
	}
	return c
}

// tracks reports whether the op belongs to the tracked stream.
func (c *Correlator) tracks(op trace.Op) bool {
	if op.Hit {
		return false // cache hits never reach the traced interface
	}
	if op.Type == c.cfg.Op {
		return true
	}
	return c.cfg.IncludeWrites && c.cfg.Op == trace.OpUpdate && op.Type == trace.OpWrite
}

// Observe feeds one op into the correlator.
func (c *Correlator) Observe(op trace.Op) {
	if !c.tracks(op) {
		return
	}
	h := hashKey(op.Key)
	class := op.Class
	for i, d := range c.distances {
		if uint64(d+1) > c.pos {
			break // not enough history yet
		}
		partner := c.ring[(c.pos-uint64(d)-1)%uint64(len(c.ring))]
		if partner.keyHash == h {
			continue // same key is not a pair
		}
		c.apply(i, d, makePairKey(h, partner.keyHash), MakeClassPair(class, partner.class))
	}
	c.ring[c.pos%uint64(len(c.ring))] = ringEntry{keyHash: h, class: class}
	c.pos++
}

// observeBatch feeds a batch in stream order (the engine's fan-out target).
func (c *Correlator) observeBatch(ops []trace.Op) {
	for i := range ops {
		c.Observe(ops[i])
	}
}

// apply folds one correlated-pair observation into the counters. i is the
// distance index, d the distance value (the sketch hash keys on it).
func (c *Correlator) apply(i, d int, pk pairKey, cp ClassPair) {
	var n uint64
	if stats := c.pairCounts[i]; stats != nil {
		s := stats[pk]
		if s == nil {
			s = &pairStat{pair: cp}
			stats[pk] = s
		}
		s.count++
		n = s.count
	} else {
		// Sketch path: a saturating (at 255) approximate occurrence count
		// for the min-2 rule.
		idx := sketchIndex(pk, d)
		if c.sketch[idx] < 255 {
			c.sketch[idx]++
		}
		n = uint64(c.sketch[idx])
	}
	switch n {
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

// makePairKey orders the two key hashes.
func makePairKey(a, b uint64) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// distIndex maps a distance value to its index, or -1.
func (c *Correlator) distIndex(d int) int {
	for i, dd := range c.distances {
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
		for i, dist := range c.distances {
			cnt := c.counts[i][r.pair]
			series.Counts[dist] = cnt
			series.Total += cnt
		}
		out = append(out, series)
	}
	return out
}

// FrequencyDistribution histograms per-key-pair occurrence counts for one
// class pair at a tracked distance: Figure 5 / Figure 7 panels. Only pairs
// meeting the at-least-twice rule appear.
func (c *Correlator) FrequencyDistribution(d int, pair ClassPair) []FreqPoint {
	stats, ok := c.pairCountsByDist[d]
	if !ok {
		return nil
	}
	hist := make(map[uint32]uint64)
	for _, st := range stats {
		if st.pair == pair && st.count >= 2 {
			hist[uint32(st.count)]++
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
// class pair at a tracked distance.
func (c *Correlator) MaxPairFrequency(d int, pair ClassPair) uint64 {
	stats, ok := c.pairCountsByDist[d]
	if !ok {
		return 0
	}
	var max uint64
	for _, st := range stats {
		if st.pair == pair && st.count >= 2 && st.count > max {
			max = st.count
		}
	}
	return max
}

// Distances returns the configured distances (sorted ascending).
func (c *Correlator) Distances() []int {
	return append([]int(nil), c.distances...)
}

// TrackedOps reports how many ops entered the correlation stream.
func (c *Correlator) TrackedOps() uint64 { return c.pos }

// CollectCorrelations streams a trace through a new correlator in one
// engine pass.
func CollectCorrelations(r *trace.Reader, cfg CorrConfig) (*Correlator, error) {
	e := NewEngine()
	h := e.AddCorrelator(cfg)
	if err := e.RunReader(r); err != nil {
		return nil, err
	}
	return h.Result(), nil
}

// CollectCorrelationsSlice runs a correlation pass over in-memory ops.
func CollectCorrelationsSlice(ops []trace.Op, cfg CorrConfig) *Correlator {
	e := NewEngine()
	h := e.AddCorrelator(cfg)
	if err := e.RunSlice(ops); err != nil {
		// RunSlice cannot fail: no I/O is involved.
		panic(err)
	}
	return h.Result()
}
