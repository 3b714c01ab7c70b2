package lab

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ethkv/internal/analysis"
)

// The golden-trace regression test pins the per-class operation counts of a
// fixed-seed lab run. The workload RNG, block import, and trace emission are
// all deterministic, so any drift in these counts means a behavioral
// change in the chain/trace stack — intended or not — and must be reviewed.
// Regenerate the fixture with:
//
//	ETHKV_UPDATE_GOLDEN=1 go test ./internal/lab/ -run TestGoldenOpDistribution

const goldenFixture = "testdata/golden_opdist.json"

type goldenClassOps struct {
	Reads   uint64 `json:"reads"`
	Writes  uint64 `json:"writes"`
	Updates uint64 `json:"updates"`
	Deletes uint64 `json:"deletes"`
	Scans   uint64 `json:"scans"`
}

type goldenOpDist struct {
	Blocks   int                       `json:"blocks"`
	Seed     int64                     `json:"seed"`
	Total    uint64                    `json:"total"`
	PerClass map[string]goldenClassOps `json:"per_class"`
}

func collectGolden(t *testing.T) goldenOpDist {
	t.Helper()
	cfg := Config{Mode: Bare, Blocks: 25, Workload: testWorkload()}
	cfg.Workload.Seed = 1337
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist := analysis.CollectOpDistSlice(res.Ops, nil)
	got := goldenOpDist{
		Blocks:   cfg.Blocks,
		Seed:     cfg.Workload.Seed,
		Total:    dist.Total,
		PerClass: make(map[string]goldenClassOps, len(dist.PerClass)),
	}
	for class, co := range dist.PerClass {
		got.PerClass[class.String()] = goldenClassOps{
			Reads:   co.Reads,
			Writes:  co.Writes,
			Updates: co.Updates,
			Deletes: co.Deletes,
			Scans:   co.Scans,
		}
	}
	return got
}

func TestGoldenOpDistribution(t *testing.T) {
	got := collectGolden(t)

	if os.Getenv("ETHKV_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenFixture), 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFixture, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden fixture rewritten: %s", goldenFixture)
		return
	}

	raw, err := os.ReadFile(goldenFixture)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with ETHKV_UPDATE_GOLDEN=1): %v", err)
	}
	var want goldenOpDist
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden fixture: %v", err)
	}
	if got.Blocks != want.Blocks || got.Seed != want.Seed {
		t.Fatalf("fixture was generated for blocks=%d seed=%d, test runs blocks=%d seed=%d",
			want.Blocks, want.Seed, got.Blocks, got.Seed)
	}
	if got.Total != want.Total {
		t.Errorf("total ops drifted: got %d, fixture %d", got.Total, want.Total)
	}
	names := make([]string, 0, len(want.PerClass)+len(got.PerClass))
	for name := range want.PerClass {
		names = append(names, name)
	}
	for name := range got.PerClass {
		if _, ok := want.PerClass[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		g, gok := got.PerClass[name]
		w, wok := want.PerClass[name]
		switch {
		case !gok:
			t.Errorf("class %s present in fixture but absent from run: %+v", name, w)
		case !wok:
			t.Errorf("class %s appeared in run but not in fixture: %+v", name, g)
		case g != w:
			t.Errorf("class %s drifted:\n  got     %+v\n  fixture %+v", name, g, w)
		}
	}
}

// TestGoldenRunDeterministic guards the premise of the golden fixture: two
// identically-seeded runs must produce identical censuses.
func TestGoldenRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("second full lab run")
	}
	a := collectGolden(t)
	b := collectGolden(t)
	ar, _ := json.Marshal(a)
	br, _ := json.Marshal(b)
	if string(ar) != string(br) {
		t.Errorf("identically-seeded runs diverged:\n  run1 %s\n  run2 %s", ar, br)
	}
}
