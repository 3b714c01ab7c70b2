package lab

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"ethkv/internal/analysis"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// seqAnalyze is the fully sequential reference: one Observe loop per
// collector, no engine.
func seqAnalyze(ops []trace.Op, op trace.OpType) (*analysis.OpDist, *analysis.Correlator) {
	d := analysis.NewOpDist(nil)
	c := analysis.NewCorrelator(op)
	for _, op := range ops {
		d.Observe(op)
		c.Observe(op)
	}
	return d, c
}

// requireSameAnalysis compares the report-facing surface of both
// collectors: the census maps and the correlator's counts, top pairs, and
// frequency distributions.
func requireSameAnalysis(t *testing.T, mode string, wantD, gotD *analysis.OpDist, wantC, gotC *analysis.Correlator) {
	t.Helper()
	if wantD.Total != gotD.Total || wantD.KeyBytes != gotD.KeyBytes ||
		wantD.ValueBytes != gotD.ValueBytes || !reflect.DeepEqual(wantD.PerClass, gotD.PerClass) {
		t.Fatalf("%s: census diverged", mode)
	}
	if wantC.TrackedOps() != gotC.TrackedOps() {
		t.Fatalf("%s: tracked ops = %d, want %d", mode, gotC.TrackedOps(), wantC.TrackedOps())
	}
	classes := rawdb.AllClasses()
	for _, d := range analysis.Distances() {
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
		wantD, wantC := seqAnalyze(tc.ops, trace.OpRead)
		e := analysis.NewEngine()
		hd := e.AddOpDist(nil)
		hc := e.AddCorrelator(trace.OpRead)
		if err := e.RunSlice(tc.ops); err != nil {
			t.Fatal(err)
		}
		requireSameAnalysis(t, tc.mode, wantD, hd, wantC, hc)
	}
}

// TestLabEngineEquivalenceFile repeats the check against a file-backed
// trace: the engine's batched reader path must match a per-op Next scan of
// the same file.
func TestLabEngineEquivalenceFile(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(Config{Mode: Cached, Blocks: 10, Workload: testWorkload(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Path == "" {
		t.Fatal("no trace file produced")
	}
	// Sequential reference: per-op scan.
	r, err := trace.OpenFile(res.Path)
	if err != nil {
		t.Fatal(err)
	}
	wantD := analysis.NewOpDist(nil)
	wantC := analysis.NewCorrelator(trace.OpUpdate)
	for {
		op, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		wantD.Observe(op)
		wantC.Observe(op)
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
	hc := e.AddCorrelator(trace.OpUpdate)
	if err := e.RunReader(r2); err != nil {
		t.Fatal(err)
	}
	requireSameAnalysis(t, "file", wantD, hd, wantC, hc)
}
