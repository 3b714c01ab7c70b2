package lab

import (
	"reflect"
	"testing"

	"ethkv/internal/analysis"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// seqAnalyze is the fully sequential reference: one Observe loop per
// collector, no engine.
func seqAnalyze(ops []trace.Op, cfg analysis.CorrConfig) (*analysis.OpDist, *analysis.Correlator) {
	d := analysis.NewOpDist(nil)
	c := analysis.NewCorrelator(cfg)
	for _, op := range ops {
		d.Observe(op)
		c.Observe(op)
	}
	return d, c
}

// requireSameAnalysis compares the report-facing surface of both
// collectors: the census maps and the correlator's counts, top pairs, and
// frequency distributions.
func requireSameAnalysis(t *testing.T, mode string, wantD, gotD *analysis.OpDist, wantC, gotC *analysis.Correlator, cfg analysis.CorrConfig) {
	t.Helper()
	if wantD.Total != gotD.Total || wantD.Truncated != gotD.Truncated ||
		!reflect.DeepEqual(wantD.PerClass, gotD.PerClass) {
		t.Fatalf("%s: census diverged", mode)
	}
	if wantC.TrackedOps() != gotC.TrackedOps() {
		t.Fatalf("%s: tracked ops = %d, want %d", mode, gotC.TrackedOps(), wantC.TrackedOps())
	}
	classes := rawdb.AllClasses()
	for _, d := range wantC.Distances() {
		for _, a := range classes {
			for _, b := range classes {
				cp := analysis.MakeClassPair(a, b)
				if wantC.Counts(d, cp) != gotC.Counts(d, cp) {
					t.Fatalf("%s: Counts(%d, %v) = %d, want %d",
						mode, d, cp, gotC.Counts(d, cp), wantC.Counts(d, cp))
				}
			}
		}
		if !reflect.DeepEqual(wantC.TopPairs(d, 10, true), gotC.TopPairs(d, 10, true)) {
			t.Fatalf("%s: TopPairs(%d) diverged", mode, d)
		}
	}
}

// TestLabEngineEquivalence runs both trace modes end to end and checks
// that the engine's single pass reproduces each collector's direct Observe
// loop on real bare and cached traces.
func TestLabEngineEquivalence(t *testing.T) {
	bare, cached, err := RunBoth(12, testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	cfg := analysis.CorrConfig{Op: trace.OpRead, Distances: []int{0, 7, 100}, TrackPairsAt: []int{7}}
	for _, tc := range []struct {
		mode string
		ops  []trace.Op
	}{
		{"bare", bare.Ops},
		{"cached", cached.Ops},
	} {
		if len(tc.ops) == 0 {
			t.Fatalf("%s: empty trace", tc.mode)
		}
		wantD, wantC := seqAnalyze(tc.ops, cfg)
		e := analysis.NewEngine()
		hd := e.AddOpDist(nil)
		hc := e.AddCorrelator(cfg)
		if err := e.RunSlice(tc.ops); err != nil {
			t.Fatal(err)
		}
		requireSameAnalysis(t, tc.mode, wantD, hd.Result(), wantC, hc.Result(), cfg)
	}
}

// TestLabEngineEquivalenceFile repeats the check against a file-backed
// trace: the engine's batched reader path must match a per-op ForEach
// scan of the same file.
func TestLabEngineEquivalenceFile(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(Config{Mode: Cached, Blocks: 10, Workload: testWorkload(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Path == "" {
		t.Fatal("no trace file produced")
	}
	cfg := analysis.CorrConfig{Op: trace.OpUpdate, IncludeWrites: true}

	// Sequential reference: per-op scan.
	r, err := trace.OpenFile(res.Path)
	if err != nil {
		t.Fatal(err)
	}
	wantD := analysis.NewOpDist(nil)
	wantC := analysis.NewCorrelator(cfg)
	if err := r.ForEach(func(op trace.Op) error {
		wantD.Observe(op)
		wantC.Observe(op)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r.Close()

	// Engine path: batched single-pass scan.
	r2, err := trace.OpenFile(res.Path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	e := analysis.NewEngine()
	hd := e.AddOpDist(nil)
	hc := e.AddCorrelator(cfg)
	if err := e.RunReader(r2); err != nil {
		t.Fatal(err)
	}
	requireSameAnalysis(t, "file", wantD, hd.Result(), wantC, hc.Result(), cfg)
}
