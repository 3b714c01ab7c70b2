package ethkv

import (
	"bytes"
	"strings"
	"testing"
)

// TestFacadeEndToEnd drives the entire public API surface once.
func TestFacadeEndToEnd(t *testing.T) {
	workload := DefaultWorkload()
	workload.Accounts = 1500
	workload.Contracts = 150
	workload.TxPerBlock = 40

	bare, cached, err := CollectTraces(20, workload)
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.Ops) == 0 || len(cached.Ops) == 0 {
		t.Fatal("empty traces")
	}
	findings := CheckFindings(bare, cached)
	if len(findings) != 11 {
		t.Fatalf("%d findings", len(findings))
	}

	var buf bytes.Buffer
	WriteReport(&buf, bare, cached)
	out := buf.String()
	for _, want := range []string{"== Table I", "== Figure 2", "== Figure 5", "== Figure 7",
		"TrieNodeStorage", "CacheTrace", "findings reproduce"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestFacadeSingleMode(t *testing.T) {
	workload := DefaultWorkload()
	workload.Accounts = 800
	workload.Contracts = 80
	workload.TxPerBlock = 20
	res, err := Collect(Cached, 5, workload)
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Total == 0 {
		t.Fatal("empty census")
	}
}
