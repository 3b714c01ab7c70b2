package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// small is a workload that runs in well under a second per trace.
var small = []string{"-blocks", "4", "-accounts", "800", "-contracts", "80", "-tx", "20"}

// runOK runs ethkvlab with args and returns its stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("ethkvlab %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// field returns the first submatch of re in out.
func field(t *testing.T, out string, re string) string {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no %q in output:\n%s", re, out)
	}
	return m[1]
}

// TestSizedistMatchesGen: sizedist on the store a persistent gen leaves
// counts exactly the pairs gen reported, for every kind of store — the
// census opens the store gen wrote, not a fresh one beside it.
func TestSizedistMatchesGen(t *testing.T) {
	for _, kind := range []string{"lsm", "flat", "hybrid"} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			gen := runOK(t, append([]string{"gen", "-dir", dir, "-mode", "cached", "-backend", kind}, small...)...)
			pairs := field(t, gen, `store-pairs=(\d+)`)
			census := runOK(t, "sizedist", "-backend", kind, "-db", field(t, gen, `store: (\S+)`))
			if got := field(t, census, `total pairs: (\d+)`); got != pairs {
				t.Fatalf("sizedist counts %s pairs, gen reported %s:\n%s", got, pairs, census)
			}
			if !strings.Contains(census, "TrieNodeStorage: ") {
				t.Fatalf("no Figure 2 series:\n%s", census)
			}
		})
	}
}

// TestTraceSubcommands runs each single-trace analysis on a gen trace.
func TestTraceSubcommands(t *testing.T) {
	dir := t.TempDir()
	gen := runOK(t, append([]string{"gen", "-dir", dir, "-mode", "bare"}, small...)...)
	tr := field(t, gen, `trace: (\S+)`)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"opdist", "-trace", tr}, "BareTrace.bin — per-key operation frequency"},
		{[]string{"corr", "-trace", tr, "-op", "read"}, "BareTrace.bin (read) — intra-class correlated counts"},
		{[]string{"corr", "-trace", tr, "-op", "update"}, "BareTrace.bin (update) — cross-class correlated counts"},
		{[]string{"stat", "-trace", tr}, "total ops: "},
	} {
		if out := runOK(t, tc.args...); !strings.Contains(out, tc.want) {
			t.Errorf("ethkvlab %s: no %q in output:\n%s", strings.Join(tc.args, " "), tc.want, out)
		}
	}
	if err := run([]string{"corr", "-trace", tr, "-op", "write"}, new(bytes.Buffer)); err == nil {
		t.Error("corr -op write: no error")
	}
}

// TestReport runs the full reproduction and writes the artifact tree.
func TestReport(t *testing.T) {
	out := t.TempDir()
	report := runOK(t, append([]string{"-out", out}, small...)...)
	for _, want := range []string{"== Table I", "== Figure 7", "findings reproduce", "artifact output tree written"} {
		if !strings.Contains(report, want) {
			t.Errorf("report has no %q", want)
		}
	}
	for _, mode := range []string{"BareTrace", "CacheTrace"} {
		if _, err := os.Stat(filepath.Join(out, mode, "updateCorrelationOutput", "freq-category-0.log")); err != nil {
			t.Error(err)
		}
	}
}

// TestUsageErrors: bad invocations fail with an error instead of running.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"tracegen"},
		{"opdist"},
		{"sizedist"},
		{"sizedist", "-db", filepath.Join(t.TempDir(), "missing")},
		{"sizedist", "-backend", "flat", "-db", t.TempDir()},
		{"gen", "-mode", "neither"},
		{"stat", "extra"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("ethkvlab %s: no error", strings.Join(args, " "))
		}
	}
}
