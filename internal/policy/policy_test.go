package policy

import (
	"bytes"
	"maps"
	"path/filepath"
	"strings"
	"testing"

	"ethkv/internal/analysis"
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
	code := c.PerClass[rawdb.ClassCode]
	if code.Reads != 1 || code.Writes != 1 || code.Total() != 2 {
		t.Fatalf("code census: %+v", code)
	}
	if c.PerClass[rawdb.ClassTxLookup].Deletes != 1 || c.PerClass[rawdb.ClassSnapshotAccount].Scans != 1 {
		t.Fatalf("census: %+v", c.PerClass)
	}
	if c.PerClass[rawdb.ClassLastHeader].Updates != 1 || c.Total != 5 {
		t.Fatalf("census: %+v", c.PerClass)
	}
	// Derive's census is untracked: no per-key frequency maps.
	if code.ReadFreq != nil || code.WriteFreq != nil || code.DeleteFreq != nil {
		t.Fatalf("census tracks keys: %+v", code)
	}
}

// census builds one class's row from op counts (r, w, u, d, s).
func census(r, w, u, d, s uint64) *analysis.ClassOps {
	return &analysis.ClassOps{Reads: r, Writes: w, Updates: u, Deletes: d, Scans: s}
}

// rows is a census written out class by class.
type rows map[rawdb.Class]*analysis.ClassOps

// derive runs Derive over rows.
func derive(c rows) *Policy {
	return Derive(&analysis.OpDist{PerClass: c})
}

// TestDeriveRules: one row per rule and sub-condition, each a one-class
// census. The rationale must name the test that matched, and every route
// Derive emits is ordered (lsm) or flat (flat).
func TestDeriveRules(t *testing.T) {
	cases := []struct {
		name   string
		cc     *analysis.ClassOps
		route  string
		whyHas string
	}{
		// Rule 1: scans pin the class to the ordered route even when the
		// delete ratio would otherwise move it.
		{"scans", census(50, 30, 0, 20, 5), "ordered", "scans"},
		// Rule 2, one row per sub-condition, each at its threshold.
		{"delete-heavy", census(20, 40, 0, 40, 0), "flat", "delete ratio"},
		{"delete ratio at threshold", census(30, 60, 0, 10, 0), "flat", "delete ratio"},
		{"read-hot", census(60, 40, 0, 0, 0), "flat", "read ratio"},
		{"read-hot with rewrite churn", census(60, 5, 35, 0, 0), "flat", "read ratio"},
		{"read ratio at threshold", census(40, 55, 0, 5, 0), "flat", "read ratio"},
		{"write-once", census(2, 98, 0, 0, 0), "flat", "write share"},
		{"write share at threshold, updates count", census(5, 45, 50, 0, 0), "flat", "write share"},
		// Rule 3: just under every rule-2 threshold.
		{"mixed", census(39, 52, 0, 9, 0), "ordered", "mixed"},
	}
	all := rows{}
	for i, tc := range cases {
		class := rawdb.AllClasses()[i]
		all[class] = tc.cc
		t.Run(tc.name, func(t *testing.T) {
			p := derive(rows{class: tc.cc})
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			name := class.String()
			if got := p.Classes[name]; got != tc.route {
				t.Errorf("%s -> %q, want %q (%s)", name, got, tc.route, p.Rationale[name])
			}
			if why := p.Rationale[name]; !strings.Contains(why, tc.whyHas) {
				t.Errorf("rationale %q does not name %q", why, tc.whyHas)
			}
			if p.Default != "ordered" {
				t.Errorf("default = %q", p.Default)
			}
			assertDerivedRoutes(t, p)
		})
	}
	assertDerivedRoutes(t, derive(all))
}

// assertDerivedRoutes checks p's routes are the derived pair: ordered (lsm)
// always, flat (flat) when a class uses it.
func assertDerivedRoutes(t *testing.T, p *Policy) {
	t.Helper()
	want := map[string]Spec{"ordered": {Kind: "lsm"}}
	for _, route := range p.Classes {
		if route == "flat" {
			want["flat"] = Spec{Kind: "flat"}
		}
	}
	if !maps.Equal(p.Routes, want) {
		t.Fatalf("routes %v, want %v", p.Routes, want)
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	c := rows{
		rawdb.ClassTxLookup:        census(20, 40, 0, 40, 0),
		rawdb.ClassSnapshotStorage: census(10, 10, 0, 0, 3),
		rawdb.ClassBlockBody:       census(1, 99, 0, 0, 0),
	}
	p := derive(c)
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
	if !maps.Equal(got.Classes, p.Classes) {
		t.Fatalf("classes %v != %v", got.Classes, p.Classes)
	}
	if !maps.Equal(got.Routes, p.Routes) {
		t.Fatalf("routes %v != %v", got.Routes, p.Routes)
	}
}

func TestSaveLoad(t *testing.T) {
	p := derive(rows{rawdb.ClassTxLookup: census(0, 50, 0, 50, 0)})
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Classes["TxLookup"] != "flat" {
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
		// mem is a factory kind only: a route of it would drop its classes
		// when a directory-backed hybrid closes.
		{"mem kind", func(p *Policy) { p.Routes["ordered"] = Spec{Kind: "mem"} }, "unknown kind"},
		{"bad route name", func(p *Policy) {
			p.Routes["a/b"] = Spec{Kind: "lsm"}
		}, "route name"},
		// A route opens at dir/<name>: "." would be the store directory
		// itself, ".." its parent.
		{"route named .", func(p *Policy) { onlyRoute(p, ".") }, "route name"},
		{"route named ..", func(p *Policy) { onlyRoute(p, "..") }, "route name"},
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

// onlyRoute makes name p's one route, a flat one, serving everything.
func onlyRoute(p *Policy, name string) {
	p.Default = name
	p.Routes = map[string]Spec{name: {Kind: "flat"}}
	p.Classes = map[string]string{"TxLookup": name}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"default":"o","routes":{"o":{"kind":"lsm"}},"classes":{},"typo":1}`))
	if err == nil {
		t.Fatal("unknown top-level field accepted")
	}
}

// TestParseRejectsRouteOptions: routes carry no tuning knobs, so a policy
// file written when they did is refused — naming the field — rather than
// opened with its knobs silently dropped.
func TestParseRejectsRouteOptions(t *testing.T) {
	old := `// ethkv storage policy: class -> route -> backend kind + options.
{
  "default": "ordered",
  "routes": {
    "flat": {"kind":"flat"},
    "lsm-cache": {"kind":"lsm","options":{"block_cache_mb":64}},
    "ordered": {"kind":"lsm"}
  },
  "classes": {
    "HeaderNumber": "lsm-cache",
    "TxLookup": "flat"
  }
}
`
	_, err := Parse([]byte(old))
	if err == nil || !strings.Contains(err.Error(), "options") {
		t.Fatalf("Parse = %v, want an error naming options", err)
	}
}

// FuzzPolicyParse: whatever Parse accepts survives Encode -> Parse
// unchanged, and every route opens directly under the store directory.
func FuzzPolicyParse(f *testing.F) {
	f.Add(derive(rows{
		rawdb.ClassTxLookup:        census(20, 40, 0, 40, 0),
		rawdb.ClassSnapshotAccount: census(10, 10, 0, 0, 3),
		rawdb.ClassCode:            census(80, 20, 0, 0, 0),
		rawdb.ClassTrieNodeAccount: census(30, 70, 0, 0, 0),
	}).Encode())
	f.Add([]byte(`{"default": "ordered",
 "routes": {"ordered": {"kind": "lsm"}, "point.v2": {"kind": "flat"}},
 "classes": {"BlockHeader": "ordered", "Code": "point.v2", "TxLookup": "point.v2"}}`))
	// A route named ".." would open in the store directory's parent.
	f.Add([]byte(`{"default": "ordered",
 "routes": {"ordered": {"kind": "lsm"}, "..": {"kind": "flat"}},
 "classes": {"TxLookup": ".."}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		enc := p.Encode()
		got, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-parse of an accepted policy: %v\n%s", err, enc)
		}
		if got.Default != p.Default || !maps.Equal(got.Routes, p.Routes) || !maps.Equal(got.Classes, p.Classes) {
			t.Fatalf("round trip changed the policy: %+v -> %+v", p, got)
		}
		dir := filepath.Join("data", "store")
		for name := range p.Routes {
			if child := filepath.Join(dir, name); filepath.Dir(child) != dir || filepath.Base(child) != name {
				t.Fatalf("route %q opens at %s, not directly under %s", name, child, dir)
			}
		}
	})
}
