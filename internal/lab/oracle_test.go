package lab

import (
	"reflect"
	"testing"

	"ethkv/internal/analysis"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// bruteCorrelation is the slow, obviously-correct form of the paper's
// correlation metric at one distance: every unordered key pair d tracked
// ops apart, keyed by the raw keys, with the min-2 rule applied per key
// pair. Keys are interned to dense ids by string equality, so no hash
// stands between two keys.
type bruteCorrelation struct {
	counts  map[analysis.ClassPair]uint64
	perPair map[analysis.ClassPair][]uint64 // occurrence counts of the key pairs seen >= 2 times
}

// bruteForceCorrelations computes bruteCorrelation at every distance of
// analysis.Distances() for the ops of one type (cache hits excluded).
func bruteForceCorrelations(t *testing.T, ops []trace.Op, typ trace.OpType) map[int]bruteCorrelation {
	t.Helper()
	ids := map[string]uint32{}
	var classOf []rawdb.Class
	var stream []uint32
	for _, op := range ops {
		if op.Hit || op.Type != typ {
			continue
		}
		id, ok := ids[string(op.Key)]
		if !ok {
			id = uint32(len(classOf))
			ids[string(op.Key)] = id
			classOf = append(classOf, op.Class)
		} else if classOf[id] != op.Class {
			t.Fatalf("key %x traced as %v and as %v", op.Key, classOf[id], op.Class)
		}
		stream = append(stream, id)
	}
	out := map[int]bruteCorrelation{}
	for _, d := range analysis.Distances() {
		occur := map[[2]uint32]uint64{}
		for i := d + 1; i < len(stream); i++ {
			a, b := stream[i-d-1], stream[i]
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			occur[[2]uint32{a, b}]++
		}
		bc := bruteCorrelation{
			counts:  map[analysis.ClassPair]uint64{},
			perPair: map[analysis.ClassPair][]uint64{},
		}
		for kp, n := range occur {
			if n < 2 {
				continue
			}
			cp := analysis.MakeClassPair(classOf[kp[0]], classOf[kp[1]])
			bc.counts[cp] += n
			bc.perPair[cp] = append(bc.perPair[cp], n)
		}
		out[d] = bc
	}
	return out
}

// TestCorrelatorMatchesBruteForce checks Figures 4-7's numbers on real
// bare and cached traces: at every distance, the correlator's per-class-pair
// counts, frequency histograms and maximum pair frequencies must equal the
// brute-force count over the raw keys.
func TestCorrelatorMatchesBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("100-block traces")
	}
	bare, cached, err := RunBoth(100, testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ops  []trace.Op
	}{{"bare", bare.Ops}, {"cached", cached.Ops}} {
		for _, typ := range []trace.OpType{trace.OpRead, trace.OpUpdate} {
			c := analysis.CollectCorrelationsSlice(tc.ops, typ)
			want := bruteForceCorrelations(t, tc.ops, typ)
			for _, d := range analysis.Distances() {
				bc := want[d]
				if len(bc.counts) == 0 {
					t.Fatalf("%s %v d=%d: no correlated pairs; the trace is too small to check", tc.name, typ, d)
				}
				// Every class pair either side reports.
				pairs := map[analysis.ClassPair]bool{}
				for cp := range bc.counts {
					pairs[cp] = true
				}
				for _, intra := range []bool{true, false} {
					for _, s := range c.TopPairs(d, rawdb.NumClasses*rawdb.NumClasses, intra) {
						pairs[s.Pair] = true
					}
				}
				for cp := range pairs {
					if got := c.Counts(d, cp); got != bc.counts[cp] {
						t.Errorf("%s %v d=%d %v: Counts = %d, brute force %d", tc.name, typ, d, cp, got, bc.counts[cp])
						continue
					}
					hist := map[uint32]uint64{}
					var maxFreq uint64
					for _, n := range bc.perPair[cp] {
						hist[uint32(n)]++
						maxFreq = max(maxFreq, n)
					}
					gotHist := map[uint32]uint64{}
					for _, p := range c.FrequencyDistribution(d, cp) {
						gotHist[p.Freq] = p.Keys
					}
					if !reflect.DeepEqual(gotHist, hist) {
						t.Errorf("%s %v d=%d %v: FrequencyDistribution = %v, brute force %v", tc.name, typ, d, cp, gotHist, hist)
					}
					if got := c.MaxPairFrequency(d, cp); got != maxFreq {
						t.Errorf("%s %v d=%d %v: MaxPairFrequency = %d, brute force %d", tc.name, typ, d, cp, got, maxFreq)
					}
				}
			}
		}
	}
}
