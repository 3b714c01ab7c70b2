// Package analysis implements the paper's trace-analysis suite: per-class
// KV size distributions (Findings 1-2), operation distributions and read
// ratios (Findings 3-7), and distance-based read/update correlation
// analysis (Findings 8-11). It is the repository's core contribution,
// mirroring the artifact's countKVSizeDistribution,
// kvOpDistributionAnalysis, readCorrelationAnalysis and
// updateCorrelationAnalysis tools.
package analysis

import (
	"errors"
	"math"
	"sort"

	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
)

// ClassSize aggregates the stored pairs of one class.
type ClassSize struct {
	Class      rawdb.Class
	Pairs      uint64
	KeyBytes   uint64
	ValueBytes uint64
	// Sums of squares, for the 95% confidence intervals Table I reports.
	KeySquares   float64
	ValueSquares float64
	// KeySizes / ValueSizes are exact size histograms (size -> count),
	// the raw data behind Figure 2's scatter plots.
	KeySizes   map[int]uint64
	ValueSizes map[int]uint64
}

// KeySizeCI95 returns the 95%% confidence half-width of the mean key size
// under the paper's normality assumption (1.96 * stderr).
func (c *ClassSize) KeySizeCI95() float64 {
	return ci95(c.KeySquares, float64(c.KeyBytes), c.Pairs)
}

// ValueSizeCI95 returns the 95%% confidence half-width of the mean value
// size.
func (c *ClassSize) ValueSizeCI95() float64 {
	return ci95(c.ValueSquares, float64(c.ValueBytes), c.Pairs)
}

// ci95 computes 1.96 * sqrt(variance/n) from raw moments.
func ci95(sumSquares, sum float64, n uint64) float64 {
	if n < 2 {
		return 0
	}
	mean := sum / float64(n)
	variance := sumSquares/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return 1.96 * math.Sqrt(variance/float64(n))
}

// MeanKeySize returns the average key size in bytes.
func (c *ClassSize) MeanKeySize() float64 {
	if c.Pairs == 0 {
		return 0
	}
	return float64(c.KeyBytes) / float64(c.Pairs)
}

// MeanValueSize returns the average value size in bytes.
func (c *ClassSize) MeanValueSize() float64 {
	if c.Pairs == 0 {
		return 0
	}
	return float64(c.ValueBytes) / float64(c.Pairs)
}

// SizeDist is the per-class size census of a store (Table I's raw data).
// The zero value is an empty census.
type SizeDist struct {
	PerClass map[rawdb.Class]*ClassSize
	Total    uint64 // total pairs
	Unknown  uint64 // pairs outside the schema
}

// Observe folds one stored pair into the census, bucketed by class.
func (d *SizeDist) Observe(key, value []byte) {
	class := rawdb.Classify(key)
	if class == rawdb.ClassUnknown {
		d.Unknown++
		return
	}
	if d.PerClass == nil {
		d.PerClass = make(map[rawdb.Class]*ClassSize)
	}
	cs := d.PerClass[class]
	if cs == nil {
		cs = &ClassSize{
			Class:      class,
			KeySizes:   make(map[int]uint64),
			ValueSizes: make(map[int]uint64),
		}
		d.PerClass[class] = cs
	}
	cs.Pairs++
	cs.KeyBytes += uint64(len(key))
	cs.ValueBytes += uint64(len(value))
	cs.KeySquares += float64(len(key)) * float64(len(key))
	cs.ValueSquares += float64(len(value)) * float64(len(value))
	cs.KeySizes[len(key)]++
	cs.ValueSizes[len(value)]++
	d.Total++
}

// CollectSizeDist scans every pair in the store into a census — the
// equivalent of running countKVSizeDistribution over the post-sync
// database. It reads the empty key, then scans one first byte at a time,
// meeting the pairs in the order of one full scan: a store that answers a
// scan with a snapshot (kv.MemStore) copies one class at a time, not the
// whole state. A read or scan that fails part-way returns its error, not
// a short census.
func CollectSizeDist(store interface {
	kv.Reader
	kv.Iterable
}) (*SizeDist, error) {
	dist := &SizeDist{}
	if v, err := store.Get(nil); err == nil {
		dist.Observe(nil, v)
	} else if !errors.Is(err, kv.ErrNotFound) {
		return nil, err
	}
	for b := 0; b < 256; b++ {
		if err := observeScan(dist, store.NewIterator([]byte{byte(b)}, nil)); err != nil {
			return nil, err
		}
	}
	return dist, nil
}

// observeScan folds every pair it yields into dist and releases it.
func observeScan(dist *SizeDist, it kv.Iterator) error {
	defer it.Release()
	for it.Next() {
		dist.Observe(it.Key(), it.Value())
	}
	return it.Error()
}

// Share returns a class's fraction of all pairs.
func (d *SizeDist) Share(class rawdb.Class) float64 {
	if d.Total == 0 {
		return 0
	}
	cs := d.PerClass[class]
	if cs == nil {
		return 0
	}
	return float64(cs.Pairs) / float64(d.Total)
}

// DominantShare sums the share of the five dominant classes of Finding 1.
func (d *SizeDist) DominantShare() float64 {
	return d.Share(rawdb.ClassTrieNodeStorage) +
		d.Share(rawdb.ClassSnapshotStorage) +
		d.Share(rawdb.ClassTxLookup) +
		d.Share(rawdb.ClassTrieNodeAccount) +
		d.Share(rawdb.ClassSnapshotAccount)
}

// SingletonClasses counts classes holding exactly one pair.
func (d *SizeDist) SingletonClasses() int {
	n := 0
	for _, cs := range d.PerClass {
		if cs.Pairs == 1 {
			n++
		}
	}
	return n
}

// DominantMeanKVSize is the pair-weighted mean KV size across the five
// dominant classes (the paper reports 79.1 bytes).
func (d *SizeDist) DominantMeanKVSize() float64 {
	var pairs, bytes uint64
	for _, class := range []rawdb.Class{
		rawdb.ClassTrieNodeStorage, rawdb.ClassSnapshotStorage,
		rawdb.ClassTxLookup, rawdb.ClassTrieNodeAccount,
		rawdb.ClassSnapshotAccount,
	} {
		if cs := d.PerClass[class]; cs != nil {
			pairs += cs.Pairs
			bytes += cs.KeyBytes + cs.ValueBytes
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(bytes) / float64(pairs)
}

// LargePairShare is the fraction of pairs whose key+value exceeds 1 KiB
// (the paper reports 0.04%).
func (d *SizeDist) LargePairShare() float64 {
	if d.Total == 0 {
		return 0
	}
	var large uint64
	for _, cs := range d.PerClass {
		// Approximate per-pair size by the value histogram plus mean key
		// size (keys are small and near-constant within a class).
		meanKey := int(cs.MeanKeySize())
		for size, count := range cs.ValueSizes {
			if size+meanKey > 1024 {
				large += count
			}
		}
	}
	return float64(large) / float64(d.Total)
}

// SizePoint is one (size, count) sample of a distribution.
type SizePoint struct {
	Size  int
	Count uint64
}

// ValueSizeSeries returns a class's value-size distribution as sorted
// scatter points — one Figure 2 panel.
func (d *SizeDist) ValueSizeSeries(class rawdb.Class) []SizePoint {
	cs := d.PerClass[class]
	if cs == nil {
		return nil
	}
	points := make([]SizePoint, 0, len(cs.ValueSizes))
	for size, count := range cs.ValueSizes {
		points = append(points, SizePoint{size, count})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Size < points[j].Size })
	return points
}

// Classes returns the classes present, ordered by pair count descending —
// Table I's row order.
func (d *SizeDist) Classes() []rawdb.Class {
	out := make([]rawdb.Class, 0, len(d.PerClass))
	for class := range d.PerClass {
		out = append(out, class)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := d.PerClass[out[i]], d.PerClass[out[j]]
		if a.Pairs != b.Pairs {
			return a.Pairs > b.Pairs
		}
		return out[i] < out[j]
	})
	return out
}
