package lab

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ethkv/internal/analysis"
)

// WriteArtifacts renders the analysis outputs in the paper artifact's file
// layout (§A.5 of the artifact appendix):
//
//	dir/
//	  mergedKVOpDistribution/
//	    <class>_<op>_with_key_dis.txt     per-key frequency distributions
//	  readCorrelationOutput/
//	    freq-category-<distance>.log      class-pair counts at a distance
//	    Dist-<distance>-<A>-<B>-freq.log  per-pair frequency distribution
//	  updateCorrelationOutput/
//	    (same structure as read correlations)
//	  kvSizeDistribution/
//	    <class>.txt                       "size count" rows per class
//
// Each size/frequency file holds "value count" rows, matching the formats
// the artifact's analysis tools emit. The inputs are one trace's store
// census, op census, and read and update correlators, already collected.
func WriteArtifacts(dir string, store *analysis.SizeDist, ops *analysis.OpDist, readCorr, updCorr *analysis.Correlator) error {
	// KV size distribution: one file per class with "size count" rows.
	sizeDir := filepath.Join(dir, "kvSizeDistribution")
	if err := os.MkdirAll(sizeDir, 0o755); err != nil {
		return err
	}
	for class := range store.PerClass {
		var sb strings.Builder
		for _, p := range store.ValueSizeSeries(class) {
			fmt.Fprintf(&sb, "%d %d\n", p.Size, p.Count)
		}
		name := filepath.Join(sizeDir, sanitize(class.String())+".txt")
		if err := os.WriteFile(name, []byte(sb.String()), 0o644); err != nil {
			return err
		}
	}

	// Op distribution: per (class, op) frequency files.
	opDir := filepath.Join(dir, "mergedKVOpDistribution")
	if err := os.MkdirAll(opDir, 0o755); err != nil {
		return err
	}
	for class, co := range ops.PerClass {
		for kind, freq := range map[string]map[string]uint32{
			"read":   co.ReadFreq,
			"write":  co.WriteFreq,
			"delete": co.DeleteFreq,
		} {
			if len(freq) == 0 {
				continue
			}
			var sb strings.Builder
			for _, p := range analysis.FrequencyDistribution(freq) {
				fmt.Fprintf(&sb, "%d %d\n", p.Freq, p.Keys)
			}
			name := filepath.Join(opDir,
				fmt.Sprintf("%s_%s_with_key_dis.txt", sanitize(class.String()), kind))
			if err := os.WriteFile(name, []byte(sb.String()), 0o644); err != nil {
				return err
			}
		}
	}

	// Correlation outputs, read and update.
	for _, pass := range []struct {
		sub  string
		corr *analysis.Correlator
	}{
		{"readCorrelationOutput", readCorr},
		{"updateCorrelationOutput", updCorr},
	} {
		corr := pass.corr
		corrDir := filepath.Join(dir, pass.sub)
		if err := os.MkdirAll(corrDir, 0o755); err != nil {
			return err
		}
		for _, d := range analysis.Distances() {
			var sb strings.Builder
			for _, intra := range []bool{true, false} {
				for _, series := range corr.TopPairs(d, 10, intra) {
					fmt.Fprintf(&sb, "%s %d\n", series.Pair, series.Counts[d])
				}
			}
			name := filepath.Join(corrDir, fmt.Sprintf("freq-category-%d.log", d))
			if err := os.WriteFile(name, []byte(sb.String()), 0o644); err != nil {
				return err
			}
		}
		// Per-pair frequency distributions at the two distances Figures 5
		// and 7 plot.
		for _, d := range []int{analysis.NearDistance, analysis.FarDistance} {
			for _, intra := range []bool{true, false} {
				for _, series := range corr.TopPairs(d, 3, intra) {
					points := corr.FrequencyDistribution(d, series.Pair)
					if len(points) == 0 {
						continue
					}
					var sb strings.Builder
					for _, p := range points {
						fmt.Fprintf(&sb, "%d %d\n", p.Freq, p.Keys)
					}
					name := filepath.Join(corrDir, fmt.Sprintf("Dist-%d-%s-%s-freq.log",
						d, sanitize(series.Pair.A.String()), sanitize(series.Pair.B.String())))
					if err := os.WriteFile(name, []byte(sb.String()), 0o644); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// sanitize makes a class name filesystem-safe.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ' ':
			return '_'
		}
		return r
	}, name)
}
