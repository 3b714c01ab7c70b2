package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ethkv/internal/backends"
	"ethkv/internal/chain"
	"ethkv/internal/lab"
)

// testTrace writes a generated BareTrace file and returns its path. It is
// big enough (~3 MiB of writes) that the LSM flushes several tables during
// the replay, so reads reach the block cache.
func testTrace(t *testing.T) string {
	t.Helper()
	workload := chain.DefaultWorkload()
	workload.Accounts, workload.Contracts, workload.TxPerBlock = 3000, 300, 80
	res, err := lab.Run(lab.Config{Mode: lab.Bare, Blocks: 40, Workload: workload, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return res.Path
}

// replay runs replaybench to completion in a fresh -dir and returns its
// stdout.
func replay(t *testing.T, args ...string) string {
	t.Helper()
	return replayIn(t, t.TempDir(), args...)
}

// replayIn runs replaybench to completion in dir and returns its stdout.
func replayIn(t *testing.T, dir string, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), append(args, "-dir", dir), &out); err != nil {
		t.Fatalf("replaybench %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// scrape fetches path from the diagnostics server a run announced in out.
// The server outlives the run: it lives as long as the process.
func scrape(t *testing.T, out, path string) string {
	t.Helper()
	m := regexp.MustCompile(`metrics: http://(\S+)/metrics`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no metrics address in output:\n%s", out)
	}
	resp, err := http.Get("http://" + m[1] + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", path, resp.Status, err)
	}
	return string(body)
}

// sample returns the value of one series (name plus labels) on /metrics.
func sample(t *testing.T, metrics, series string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`).FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("no %s on /metrics", series)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestReplayServesMetrics: a replay with -metrics-addr exports the store's
// per-op latency histograms on /metrics, serves the pprof index, and
// prints the per-op percentile summary.
func TestReplayServesMetrics(t *testing.T) {
	out := replay(t, "-trace", testTrace(t), "-backend", "lsm", "-metrics-addr", "127.0.0.1:0")
	if sample(t, scrape(t, out, "/metrics"), `ethkv_op_latency_ns_count{op="get",store="lsm"}`) == 0 {
		t.Fatal("the get latency histogram recorded nothing")
	}
	scrape(t, out, "/debug/pprof/")
	if !strings.Contains(out, "op latency percentiles:") {
		t.Fatalf("no latency summary:\n%s", out)
	}
}

// TestReplayBlockCacheBudget: -block-cache-mb reaches the LSM. A 4 MiB
// cache serves hits, on /metrics and in the report; a negative budget
// disables the cache, so the report has no block cache line. The cached
// replay is the second into its -dir: the first settled every key into
// tables, so reads reach the cache however the flushes of the second fall.
func TestReplayBlockCacheBudget(t *testing.T) {
	path := testTrace(t)
	dir := t.TempDir()
	replayIn(t, dir, "-trace", path)
	on := replayIn(t, dir, "-trace", path, "-block-cache-mb", "4", "-metrics-addr", "127.0.0.1:0")
	if sample(t, scrape(t, on, "/metrics"), `ethkv_store_block_cache_hits{store="lsm"}`) == 0 {
		t.Fatalf("the 4 MiB block cache served no hits:\n%s", on)
	}
	if off := replay(t, "-trace", path, "-block-cache-mb", "-1"); strings.Contains(off, "block cache:") {
		t.Fatalf("a disabled block cache saw traffic:\n%s", off)
	}
}

// TestReplayRefusesOtherLayout: a reused -dir keeps the layout of its first
// run. A later run under another -backend or -policy is refused, rather than
// replaying into a store that hides the first run's keys.
func TestReplayRefusesOtherLayout(t *testing.T) {
	path := testTrace(t)
	txOrdered := backends.DefaultHybridPolicy()
	txOrdered.Classes["TxLookup"] = "ordered"
	policyPath := filepath.Join(t.TempDir(), "tx-ordered.json")
	if err := txOrdered.Save(policyPath); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		first, second []string
		field         string
	}{
		{[]string{"-backend", "lsm"}, []string{"-backend", "flat"}, "kind"},
		{[]string{"-backend", "hybrid"}, []string{"-policy", policyPath}, "classes"},
	} {
		args := []string{"-trace", path, "-dir", t.TempDir()}
		var out bytes.Buffer
		if err := run(context.Background(), append(args, tc.first...), &out); err != nil {
			t.Fatalf("%v: %v\n%s", tc.first, err, out.String())
		}
		err := run(context.Background(), append(args, tc.second...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("%v after %v on one -dir: %v, want a refusal naming %s", tc.second, tc.first, err, tc.field)
		}
	}
}

// TestReplaySpaceByKind: the space line sorts every byte of the store
// directory into a file kind — the kinds sum to the directory's size, and
// only the bookkeeping files fall under "other" — and states the ratio to
// the live key and value bytes of the census scan, for an LSM and for a
// sharded hybrid store.
func TestReplaySpaceByKind(t *testing.T) {
	path := testTrace(t)
	for _, tc := range []struct {
		args  []string
		kinds []string // kinds the store must hold bytes of
	}{
		{[]string{"-backend", "lsm"}, []string{"sst", "blob", "manifest", "other"}},
		{[]string{"-policy", "auto", "-policy-out", filepath.Join(t.TempDir(), "policy.json"), "-shards", "2"},
			[]string{"sst", "manifest", "flat", "other"}},
	} {
		dir := t.TempDir()
		var out bytes.Buffer
		args := append([]string{"-trace", path, "-dir", dir, "-census", filepath.Join(t.TempDir(), "census.txt")}, tc.args...)
		if err := run(context.Background(), args, &out); err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out.String())
		}
		use, err := measureSpace(dir)
		if err != nil {
			t.Fatal(err)
		}
		var size int64
		err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || !info.Mode().IsRegular() {
				return err
			}
			size += info.Size()
			if name := info.Name(); kindOf(name) == "other" && name != "LAYOUT.json" && name != "CURRENT" {
				t.Errorf("%v: %s counted as other", tc.args, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if use.total() != size {
			t.Fatalf("%v: kinds sum to %d bytes, the directory holds %d: %v", tc.args, use.total(), size, use)
		}
		for _, kind := range tc.kinds {
			if use[kind] == 0 {
				t.Errorf("%v: no %s bytes: %v", tc.args, kind, use)
			}
		}
		// The line describes the directory as the closed store left it.
		onDisk, _, _ := strings.Cut(use.report(0), " for ")
		m := regexp.MustCompile(`for (\S+) MiB of live keys and values: space amplification (\S+)`).FindStringSubmatch(out.String())
		if !strings.Contains(out.String(), onDisk) || m == nil {
			t.Fatalf("%v: no space line %q...:\n%s", tc.args, onDisk, out.String())
		}
		if live, _ := strconv.ParseFloat(m[1], 64); live <= 0 {
			t.Fatalf("%v: %s", tc.args, m[0])
		}
	}
}
