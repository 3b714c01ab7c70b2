package policy

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

func TestCollectCensusSkipsCacheHits(t *testing.T) {
	ops := []trace.Op{
		{Type: trace.OpWrite, Class: rawdb.ClassCode, ValueSize: 100},
		{Type: trace.OpRead, Class: rawdb.ClassCode, ValueSize: 100},
		{Type: trace.OpRead, Class: rawdb.ClassCode, ValueSize: 100, Hit: true}, // skipped
		{Type: trace.OpDelete, Class: rawdb.ClassTxLookup},
		{Type: trace.OpScan, Class: rawdb.ClassSnapshotAccount},
		{Type: trace.OpUpdate, Class: rawdb.ClassLastHeader, ValueSize: 40},
	}
	c := CollectCensus(ops)
	code := c[rawdb.ClassCode]
	if code.Reads != 1 || code.Writes != 1 || code.Total() != 2 {
		t.Fatalf("code census: %+v", code)
	}
	if code.AvgValue() != 100 {
		t.Fatalf("avg value = %d", code.AvgValue())
	}
	if c[rawdb.ClassTxLookup].Deletes != 1 || c[rawdb.ClassSnapshotAccount].Scans != 1 {
		t.Fatalf("census: %+v", c)
	}
	if c[rawdb.ClassLastHeader].Updates != 1 {
		t.Fatalf("census: %+v", c)
	}
}

// census builds a ClassCensus from op counts (r, w, u, d, s) and an
// average value size.
func census(r, w, u, d, s, avg uint64) *ClassCensus {
	return &ClassCensus{
		Reads: r, Writes: w, Updates: u, Deletes: d, Scans: s,
		ValueBytes: (r + w + u) * avg, ValueOps: r + w + u,
	}
}

func TestDeriveRules(t *testing.T) {
	c := Census{
		// Rule 1: scans pin the class to the ordered route even when the
		// delete ratio would otherwise move it.
		rawdb.ClassSnapshotAccount: census(50, 30, 0, 20, 5, 100),
		// Rule 2a: delete-heavy bulky values -> compaction-aggressive LSM.
		rawdb.ClassTxLookup: census(20, 40, 0, 40, 0, 4000),
		// Rule 2b: delete-heavy small values -> flat store.
		rawdb.ClassStateID: census(20, 40, 0, 40, 0, 8),
		// Rule 3a: read-hot stable small values -> block-cache LSM.
		rawdb.ClassTrieNodeAccount: census(60, 40, 0, 0, 0, 120),
		// Rule 3b: read-hot values with rewrite churn -> flat store.
		rawdb.ClassTrieNodeStorage: census(60, 5, 35, 0, 0, 120),
		// Rule 3c: read-hot large values -> flat store.
		rawdb.ClassBlockReceipts: census(60, 40, 0, 0, 0, 9000),
		// Rule 4: write-once -> flat store.
		rawdb.ClassBlockBody: census(2, 98, 0, 0, 0, 5000),
		// Rule 5: mixed -> default.
		rawdb.ClassCode: census(30, 60, 0, 5, 0, 500),
	}
	p := Derive(c)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"SnapshotAccount": "ordered",
		"TxLookup":        "lsm-compact",
		"StateID":         "flat",
		"TrieNodeAccount": "lsm-cache",
		"TrieNodeStorage": "flat",
		"BlockReceipts":   "flat",
		"BlockBody":       "flat",
		"Code":            "ordered",
	}
	for class, route := range want {
		if got := p.Classes[class]; got != route {
			t.Errorf("%s -> %q, want %q (%s)", class, got, route, p.Rationale[class])
		}
		if p.Rationale[class] == "" {
			t.Errorf("%s has no rationale", class)
		}
	}
	if p.Default != "ordered" {
		t.Fatalf("default = %q", p.Default)
	}
	// Every referenced route must be defined with a known kind.
	for _, route := range p.Classes {
		if _, ok := p.Routes[route]; !ok {
			t.Fatalf("route %q undefined", route)
		}
	}
	if p.Routes["lsm-compact"].Options["l0_compaction_trigger"] != 2 {
		t.Fatalf("lsm-compact spec: %+v", p.Routes["lsm-compact"])
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	c := Census{
		rawdb.ClassTxLookup:        census(20, 40, 0, 40, 0, 40),
		rawdb.ClassSnapshotStorage: census(10, 10, 0, 0, 3, 80),
		rawdb.ClassBlockBody:       census(1, 99, 0, 0, 0, 4000),
	}
	p := Derive(c)
	enc := p.Encode()
	if !bytes.Contains(enc, []byte("// TxLookup:")) {
		t.Fatalf("encoded policy lacks rationale comment:\n%s", enc)
	}
	got, err := Parse(enc)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, enc)
	}
	if got.Default != p.Default {
		t.Fatalf("default %q != %q", got.Default, p.Default)
	}
	if len(got.Classes) != len(p.Classes) {
		t.Fatalf("classes %v != %v", got.Classes, p.Classes)
	}
	for class, route := range p.Classes {
		if got.Classes[class] != route {
			t.Fatalf("class %s: %q != %q", class, got.Classes[class], route)
		}
	}
	for name, spec := range p.Routes {
		gs, ok := got.Routes[name]
		if !ok || gs.Kind != spec.Kind || len(gs.Options) != len(spec.Options) {
			t.Fatalf("route %s: %+v != %+v", name, gs, spec)
		}
		for k, v := range spec.Options {
			if gs.Options[k] != v {
				t.Fatalf("route %s option %s: %d != %d", name, k, gs.Options[k], v)
			}
		}
	}
}

func TestSaveLoad(t *testing.T) {
	p := Derive(Census{rawdb.ClassTxLookup: census(0, 50, 0, 50, 0, 4000)})
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Classes["TxLookup"] != "lsm-compact" {
		t.Fatalf("loaded classes: %v", got.Classes)
	}
}

func TestValidateErrors(t *testing.T) {
	base := func() *Policy {
		return &Policy{
			Default: "ordered",
			Routes:  map[string]Spec{"ordered": {Kind: "lsm"}},
			Classes: map[string]string{"TxLookup": "ordered"},
		}
	}
	cases := []struct {
		name   string
		break_ func(*Policy)
		wantIn string
	}{
		{"missing default", func(p *Policy) { p.Default = "nope" }, "default route"},
		{"unknown kind", func(p *Policy) { p.Routes["ordered"] = Spec{Kind: "btree"} }, "unknown kind"},
		{"the removed log kind", func(p *Policy) { p.Routes["ordered"] = Spec{Kind: "log"} }, "unknown kind"},
		{"the removed hash kind", func(p *Policy) { p.Routes["ordered"] = Spec{Kind: "hash"} }, "unknown kind"},
		{"bad route name", func(p *Policy) {
			p.Routes["a/b"] = Spec{Kind: "lsm"}
		}, "route name"},
		{"unknown class", func(p *Policy) { p.Classes["NotAClass"] = "ordered" }, "unknown class"},
		{"dangling class route", func(p *Policy) { p.Classes["TxLookup"] = "gone" }, "undefined route"},
	}
	for _, tc := range cases {
		p := base()
		tc.break_(p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantIn) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantIn)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base policy invalid: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"default":"o","routes":{"o":{"kind":"lsm"}},"classes":{},"typo":1}`))
	if err == nil {
		t.Fatal("unknown top-level field accepted")
	}
}
