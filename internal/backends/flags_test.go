package backends

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterFlags(fs, "lsm")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFlagsRoundTrip(t *testing.T) {
	kind, opts, err := parseFlags(t).Options()
	if err != nil || kind != "lsm" || !reflect.DeepEqual(opts, Options{Shards: 1}) {
		t.Fatalf("defaults = %q, %+v, %v", kind, opts, err)
	}

	kind, opts, err = parseFlags(t, "-backend", "flat", "-block-cache-mb", "4", "-shards", "8",
		"-compaction-workers", "3").Options()
	want := Options{BlockCacheBytes: 4 << 20, Shards: 8, CompactionWorkers: 3}
	if err != nil || kind != "flat" || !reflect.DeepEqual(opts, want) {
		t.Fatalf("got %q, %+v, %v; want flat, %+v", kind, opts, err, want)
	}

	// A negative cache budget means "disabled" and is not scaled.
	if _, opts, _ := parseFlags(t, "-block-cache-mb", "-1").Options(); opts.BlockCacheBytes != -1 {
		t.Fatalf("-block-cache-mb -1 became %d bytes", opts.BlockCacheBytes)
	}
}

// TestFlagsRejectNegativeCompactionWorkers: a negative budget is refused,
// naming the flag. Accepted, it gave a pool of the default 4 slots while
// every LSM on it ran in the serial mode.
func TestFlagsRejectNegativeCompactionWorkers(t *testing.T) {
	_, _, err := parseFlags(t, "-compaction-workers", "-1").Options()
	if err == nil || !strings.Contains(err.Error(), "-compaction-workers") {
		t.Fatalf("-compaction-workers -1: err=%v, want an error naming the flag", err)
	}
}

func TestFlagsPolicyImpliesHybrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	if err := DefaultHybridPolicy().Save(path); err != nil {
		t.Fatal(err)
	}
	kind, opts, err := parseFlags(t, "-backend", "lsm", "-policy", path).Options()
	if err != nil || kind != "hybrid" || opts.Policy == nil || len(opts.Policy.Routes) != 2 {
		t.Fatalf("-policy x.json gave %q, policy %+v, %v", kind, opts.Policy, err)
	}
	if _, _, err := parseFlags(t, "-policy", path+".missing").Options(); err == nil {
		t.Fatal("a missing policy file was accepted")
	}
}
