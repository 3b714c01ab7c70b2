// Package report renders the paper's tables and figures as aligned text,
// mirroring the artifact's log-file outputs.
package report

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"ethkv/internal/analysis"
	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
)

// WritePaper writes the paper's evaluation from one analysis of both
// traces: Table I through Figure 7 (E1-E11 of DESIGN.md), then the
// findings checklist.
func WritePaper(w io.Writer, in *analysis.FindingsInput) {
	fmt.Fprintln(w, "== Table I: class inventory (CacheTrace store)")
	WriteTable1(w, in.CachedStore)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Figure 2: KV size distributions")
	WriteFigure2(w, in.CachedStore, analysis.DefaultTrackedClasses())
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Table II: operation distribution (CacheTrace)")
	WriteOpTable(w, "CacheTrace", in.CachedOps)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "== Table III: operation distribution (BareTrace)")
	WriteOpTable(w, "BareTrace", in.BareOps)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Table IV: read ratios")
	WriteTable4(w, in.BareOps, in.CachedOps, in.BareStore, in.CachedStore)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Figure 3: per-key op frequency (world state)")
	WriteFigure3(w, "CacheTrace", in.CachedOps)
	WriteFigure3(w, "BareTrace", in.BareOps)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Findings 6-7: caching and snapshot acceleration effect")
	WriteComparison(w, analysis.Compare(in.BareOps, in.CachedOps, in.BareStore, in.CachedStore))
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Figure 4: read correlations")
	WriteCorrelationFigure(w, "CacheTrace reads", in.CachedReadCorr, 3)
	WriteCorrelationFigure(w, "BareTrace reads", in.BareReadCorr, 3)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "== Figure 5: correlated-read frequency distributions")
	WriteFrequencyFigure(w, "CacheTrace", in.CachedReadCorr, 3)
	WriteFrequencyFigure(w, "BareTrace", in.BareReadCorr, 3)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Figure 6: update correlations")
	WriteCorrelationFigure(w, "CacheTrace updates", in.CachedUpdateCorr, 3)
	WriteCorrelationFigure(w, "BareTrace updates", in.BareUpdateCorr, 3)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "== Figure 7: correlated-update frequency distributions")
	WriteFrequencyFigure(w, "CacheTrace", in.CachedUpdateCorr, 3)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Findings checklist")
	WriteFindings(w, analysis.CheckFindings(in))
}

// WriteCensus dumps a store's state: the per-class size census (Table I)
// plus an order-independent digest over every key/value pair (XOR of
// per-pair SHA-256, so unordered backends hash identically to ordered ones).
// Two stores that replayed the same trace correctly produce byte-identical
// censuses, whatever they are composed of.
//
// Table I and the digest come from one scan of the store, and a scan that
// fails part-way writes nothing.
func WriteCensus(w io.Writer, store kv.Iterable) error {
	var dist analysis.SizeDist
	var digest [sha256.Size]byte
	it := store.NewIterator(nil, nil)
	defer it.Release()
	var lenBuf [8]byte
	for it.Next() {
		key, value := it.Key(), it.Value()
		dist.Observe(key, value)
		h := sha256.New()
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(key)))
		h.Write(lenBuf[:])
		h.Write(key)
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(value)))
		h.Write(lenBuf[:])
		h.Write(value)
		for i, b := range h.Sum(nil) {
			digest[i] ^= b
		}
	}
	if err := it.Error(); err != nil {
		return err
	}
	WriteTable1(w, &dist)
	_, err := fmt.Fprintf(w, "pairs: %d\nstate digest: %x\n", dist.Total+dist.Unknown, digest)
	return err
}

// WriteTable1 renders the class inventory (Table I) from a store census.
func WriteTable1(w io.Writer, dist *analysis.SizeDist) {
	fmt.Fprintf(w, "%-22s %14s %8s %12s %16s\n",
		"Class", "# KV pairs", "(%)", "Key size", "Value size")
	fmt.Fprintln(w, strings.Repeat("-", 70))
	for _, class := range dist.Classes() {
		cs := dist.PerClass[class]
		share := dist.Share(class) * 100
		shareStr := fmt.Sprintf("%.2f%%", share)
		if cs.Pairs == 1 {
			shareStr = "-"
		}
		keyStr := fmt.Sprintf("%.1f", cs.MeanKeySize())
		if ci := cs.KeySizeCI95(); ci >= 0.05 {
			keyStr = fmt.Sprintf("%.1f±%.1f", cs.MeanKeySize(), ci)
		}
		valStr := fmt.Sprintf("%.1f", cs.MeanValueSize())
		if ci := cs.ValueSizeCI95(); ci >= 0.05 {
			valStr = fmt.Sprintf("%.1f±%.1f", cs.MeanValueSize(), ci)
		}
		fmt.Fprintf(w, "%-22s %14d %8s %12s %16s\n",
			class, cs.Pairs, shareStr, keyStr, valStr)
	}
	fmt.Fprintf(w, "total pairs: %d   dominant-5 share: %.2f%%   singleton classes: %d\n",
		dist.Total, dist.DominantShare()*100, dist.SingletonClasses())
}

// WriteOpTable renders Table II or III from an op census.
func WriteOpTable(w io.Writer, name string, dist *analysis.OpDist) {
	fmt.Fprintf(w, "%s — operation distribution\n", name)
	fmt.Fprintf(w, "%-22s %8s %8s %9s %8s %8s %9s\n",
		"Class", "% ops", "Writes", "Updates", "Reads", "Scans", "Deletes")
	fmt.Fprintln(w, strings.Repeat("-", 80))
	for _, class := range dist.Classes() {
		co := dist.PerClass[class]
		total := co.Total()
		p := func(n uint64) string {
			if n == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f%%", float64(n)/float64(total)*100)
		}
		fmt.Fprintf(w, "%-22s %7.2f%% %8s %9s %8s %8s %9s\n",
			class, dist.Share(class)*100,
			p(co.Writes), p(co.Updates), p(co.Reads), p(co.Scans), p(co.Deletes))
	}
	fmt.Fprintf(w, "total ops: %d\n", dist.Total)
}

// WriteTraceStat renders an untracked census as `ethkvlab stat`'s table:
// per-class op counts and value bytes, busiest class first, then the
// trace's op and byte totals.
func WriteTraceStat(w io.Writer, dist *analysis.OpDist) {
	fmt.Fprintf(w, "%-22s %10s %10s %10s %10s %8s %12s\n",
		"Class", "Reads", "Writes", "Updates", "Deletes", "Scans", "ValueBytes")
	for _, class := range dist.Classes() {
		co := dist.PerClass[class]
		fmt.Fprintf(w, "%-22s %10d %10d %10d %10d %8d %12d\n",
			class, co.Reads, co.Writes, co.Updates, co.Deletes, co.Scans, co.ValueBytes)
	}
	fmt.Fprintf(w, "total ops: %d   data: %.1f MiB keys + %.1f MiB values\n",
		dist.Total, float64(dist.KeyBytes)/(1<<20), float64(dist.ValueBytes)/(1<<20))
}

// WriteTable4 renders the read ratios of the world-state classes.
func WriteTable4(w io.Writer, bareOps, cachedOps *analysis.OpDist,
	bareStore, cachedStore *analysis.SizeDist) {
	fmt.Fprintf(w, "%-18s %14s %14s\n", "Class", "BareTrace (%)", "CacheTrace (%)")
	fmt.Fprintln(w, strings.Repeat("-", 50))
	rows := []struct {
		class    rawdb.Class
		bareAlso bool
	}{
		{rawdb.ClassSnapshotAccount, false},
		{rawdb.ClassSnapshotStorage, false},
		{rawdb.ClassTrieNodeAccount, true},
		{rawdb.ClassTrieNodeStorage, true},
	}
	for _, row := range rows {
		bareStr := "-"
		if row.bareAlso {
			var pairs uint64
			if cs := bareStore.PerClass[row.class]; cs != nil {
				pairs = cs.Pairs
			}
			bareStr = fmt.Sprintf("%.2f", bareOps.ReadRatio(row.class, pairs)*100)
		}
		var pairs uint64
		if cs := cachedStore.PerClass[row.class]; cs != nil {
			pairs = cs.Pairs
		}
		fmt.Fprintf(w, "%-18s %14s %14.2f\n", row.class, bareStr,
			cachedOps.ReadRatio(row.class, pairs)*100)
	}
}

// WriteFigure2 renders a class's KV size scatter series.
func WriteFigure2(w io.Writer, dist *analysis.SizeDist, classes []rawdb.Class) {
	for _, class := range classes {
		points := dist.ValueSizeSeries(class)
		if len(points) == 0 {
			continue
		}
		min, max := points[0].Size, points[len(points)-1].Size
		peak := points[0]
		for _, p := range points {
			if p.Count > peak.Count {
				peak = p
			}
		}
		fmt.Fprintf(w, "%s: %d distinct value sizes, range [%d, %d] B, peak at %d B (%d pairs)\n",
			class, len(points), min, max, peak.Size, peak.Count)
		for _, p := range sample(points, 12) {
			fmt.Fprintf(w, "  size %6d B: %d pairs\n", p.Size, p.Count)
		}
	}
}

// WriteFigure3 renders per-key op-frequency distributions for the
// world-state classes.
func WriteFigure3(w io.Writer, name string, dist *analysis.OpDist) {
	fmt.Fprintf(w, "%s — per-key operation frequency (world state)\n", name)
	for _, class := range analysis.DefaultTrackedClasses() {
		co := dist.PerClass[class]
		if co == nil {
			continue
		}
		writeFreqLine := func(kind string, freq map[string]uint32) {
			points := analysis.FrequencyDistribution(freq)
			if len(points) == 0 {
				return
			}
			maxF := points[len(points)-1]
			fmt.Fprintf(w, "  %-18s %-7s keys=%d  once=%.1f%%  max-freq=%d (%d keys)\n",
				class, kind, len(freq),
				analysis.ReadOnceShare(freq)*100, maxF.Freq, maxF.Keys)
		}
		writeFreqLine("read", co.ReadFreq)
		writeFreqLine("write", co.WriteFreq)
		writeFreqLine("delete", co.DeleteFreq)
	}
}

// WriteCorrelationFigure renders Figure 4 or 6: top class-pair correlated
// counts across distances, split cross/intra.
func WriteCorrelationFigure(w io.Writer, name string, c *analysis.Correlator, topN int) {
	distances := analysis.Distances()
	for _, intra := range []bool{false, true} {
		kind := "cross-class"
		if intra {
			kind = "intra-class"
		}
		fmt.Fprintf(w, "%s — %s correlated counts (top %d pairs at d=0)\n", name, kind, topN)
		pairs := c.TopPairs(0, topN, intra)
		if len(pairs) == 0 {
			fmt.Fprintln(w, "  (none)")
			continue
		}
		fmt.Fprintf(w, "  %-42s", "pair \\ distance")
		for _, d := range distances {
			fmt.Fprintf(w, " %8d", d)
		}
		fmt.Fprintln(w)
		for _, series := range pairs {
			fmt.Fprintf(w, "  %-42s", series.Pair)
			for _, d := range distances {
				fmt.Fprintf(w, " %8d", series.Counts[d])
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteFrequencyFigure renders Figure 5 or 7: per-key-pair frequency
// distributions at analysis.NearDistance and analysis.FarDistance.
func WriteFrequencyFigure(w io.Writer, name string, c *analysis.Correlator, topN int) {
	for _, d := range []int{analysis.NearDistance, analysis.FarDistance} {
		for _, intra := range []bool{false, true} {
			kind := "cross"
			if intra {
				kind = "intra"
			}
			for _, series := range c.TopPairs(d, topN, intra) {
				points := c.FrequencyDistribution(d, series.Pair)
				if len(points) == 0 {
					continue
				}
				fmt.Fprintf(w, "%s d=%d %s %-42s: %d distinct freqs, max %d\n",
					name, d, kind, series.Pair, len(points),
					c.MaxPairFrequency(d, series.Pair))
				for _, p := range sample(points, 8) {
					fmt.Fprintf(w, "  freq %6d: %d pairs\n", p.Freq, p.Keys)
				}
			}
		}
	}
}

// WriteComparison renders the Findings 6-7 cache/snapshot deltas.
func WriteComparison(w io.Writer, cmp *analysis.TraceComparison) {
	fmt.Fprintf(w, "total reads:            %12d (bare) -> %12d (cached)  -%.1f%%\n",
		cmp.BareReads, cmp.CacheReads, cmp.ReadReduction()*100)
	fmt.Fprintf(w, "world-state reads:      %12d -> %12d  -%.1f%%  (paper: -79.7%%)\n",
		cmp.BareWorldReads, cmp.CacheWorldReads, cmp.WorldStateReadReduction()*100)
	fmt.Fprintf(w, "trie-node reads:        %12d -> %12d  -%.1f%%  (paper: -82.7/-87.5%%)\n",
		cmp.BareTrieReads, cmp.CacheTrieReads, cmp.TrieReadReduction()*100)
	fmt.Fprintf(w, "world-state writes:     %12d -> %12d  -%.1f%%  (paper: -64.2%%)\n",
		cmp.BareWorldWrites, cmp.CacheWorldWrites, cmp.WorldStateWriteReduction()*100)
	fmt.Fprintf(w, "stored pairs:           %12d -> %12d  +%.1f%%  (paper: +61.5%%)\n",
		cmp.BarePairs, cmp.CachePairs, cmp.StorageOverhead()*100)
}

// WriteFindings renders the findings checklist.
func WriteFindings(w io.Writer, findings []analysis.Finding) {
	pass := 0
	for _, f := range findings {
		mark := "FAIL"
		if f.Holds {
			mark = "OK  "
			pass++
		}
		fmt.Fprintf(w, "[%s] Finding %2d: %s\n        %s\n", mark, f.ID, f.Title, f.Evidence)
	}
	fmt.Fprintf(w, "%d/%d findings reproduce\n", pass, len(findings))
}

// sample thins a sorted slice to at most n representative elements.
func sample[T any](points []T, n int) []T {
	if len(points) <= n {
		return points
	}
	out := make([]T, 0, n)
	step := float64(len(points)-1) / float64(n-1)
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		idx := int(float64(i) * step)
		if !seen[idx] {
			out = append(out, points[idx])
			seen[idx] = true
		}
	}
	return out
}
