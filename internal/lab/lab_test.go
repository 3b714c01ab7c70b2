package lab

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ethkv/internal/analysis"
	"ethkv/internal/backends"
	"ethkv/internal/chain"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// testWorkload shrinks the default population so the end-to-end tests run
// in seconds while still exhibiting the findings' shapes.
func testWorkload() chain.WorkloadConfig {
	cfg := chain.DefaultWorkload()
	cfg.Accounts = 2000
	cfg.Contracts = 200
	cfg.SlotsPerContract = 20
	cfg.TxPerBlock = 60
	return cfg
}

func TestRunBareProducesTrace(t *testing.T) {
	res, err := Run(Config{Mode: Bare, Blocks: 15, Workload: testWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) == 0 {
		t.Fatal("no ops collected")
	}
	if res.Stats.Blocks != 15 {
		t.Fatalf("blocks = %d", res.Stats.Blocks)
	}
	if res.Store.Total == 0 {
		t.Fatal("empty store census")
	}
	// A bare run has no snapshot pairs beyond genesis seeding... genesis
	// seeds them but the bare processor never updates them. Verify trie
	// pairs dominate.
	trie := res.Store.PerClass[rawdb.ClassTrieNodeStorage]
	if trie == nil || trie.Pairs == 0 {
		t.Fatal("no storage trie nodes in store")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Mode: Bare, Blocks: 0}); err == nil {
		t.Fatal("zero blocks accepted")
	}
}

// TestRunLSMWithoutDir checks that an LSM run with no Dir keeps the trace in
// memory (Ops populated) while backing the store with a throwaway temp dir.
func TestRunLSMWithoutDir(t *testing.T) {
	res, err := Run(Config{Mode: Bare, Blocks: 3, Workload: testWorkload(), Backend: "lsm"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) == 0 {
		t.Fatal("no in-memory ops from dirless LSM run")
	}
	if res.KVStats.FlushCount == 0 {
		t.Fatal("LSM store never flushed; run was not LSM-backed")
	}
}

func TestRunToFile(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Mode: Cached, Blocks: 5, Workload: testWorkload(), Dir: dir}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path == "" {
		t.Fatal("no trace path")
	}
	r, err := trace.OpenFile(res.Path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := 0
	for ; ; n++ {
		_, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("op %d of the trace file: %v", n, err)
		}
	}
	if n == 0 {
		t.Fatal("trace file empty")
	}
}

func TestRunWithLSMBackend(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(Config{Mode: Bare, Blocks: 5, Workload: testWorkload(), Dir: dir, Backend: "lsm"})
	if err != nil {
		t.Fatal(err)
	}
	if res.KVStats.Puts == 0 {
		t.Fatal("LSM backend recorded no puts")
	}
	// Physical writes must be accounted. (Write amplification can dip
	// below 1 on short runs: the memtable coalesces overwrites before its
	// single flush.)
	if res.KVStats.PhysicalBytesWrite == 0 {
		t.Fatal("LSM backend recorded no physical writes")
	}
}

// TestEndToEndFindings is the repository's headline integration test: a
// full bare+cached run at reduced scale must reproduce the qualitative
// shape of all 11 findings.
func TestEndToEndFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	bare, cached, err := RunBoth(60, testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	findings := BuildFindings(bare, cached)
	if len(findings) != 11 {
		t.Fatalf("%d findings checked", len(findings))
	}
	failed := 0
	for _, f := range findings {
		if !f.Holds {
			failed++
			t.Errorf("Finding %d (%s) does not hold: %s", f.ID, f.Title, f.Evidence)
		} else {
			t.Logf("Finding %d holds: %s", f.ID, f.Evidence)
		}
	}
	if failed > 2 {
		t.Fatalf("%d findings failed; workload shape is off", failed)
	}
}

// TestDominantClassesEmerge asserts Table I's headline on the cached run.
func TestDominantClassesEmerge(t *testing.T) {
	res, err := Run(Config{Mode: Cached, Blocks: 20, Workload: testWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	share := res.Store.DominantShare()
	if share < 0.9 {
		t.Fatalf("dominant-5 share %.3f; want > 0.9 (paper: 0.992)", share)
	}
	if s := res.Store.SingletonClasses(); s < 8 {
		t.Errorf("only %d singleton classes (paper: 15)", s)
	}
	// All five dominant classes must actually exist.
	for _, class := range []rawdb.Class{
		rawdb.ClassTrieNodeStorage, rawdb.ClassSnapshotStorage,
		rawdb.ClassTxLookup, rawdb.ClassTrieNodeAccount, rawdb.ClassSnapshotAccount,
	} {
		if cs := res.Store.PerClass[class]; cs == nil || cs.Pairs == 0 {
			t.Errorf("dominant class %v missing from store", class)
		}
	}
}

// TestOpMixShapes asserts Table II's qualitative shapes on a cached run.
func TestOpMixShapes(t *testing.T) {
	res, err := Run(Config{Mode: Cached, Blocks: 40, Workload: testWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	dist := analysis.CollectOpDistSlice(res.Ops, nil)

	// TxLookup: writes and deletes, zero reads.
	tx := dist.PerClass[rawdb.ClassTxLookup]
	if tx == nil || tx.Reads != 0 {
		t.Fatalf("TxLookup reads = %v (paper: zero)", tx)
	}
	if tx.Deletes == 0 {
		t.Error("TxLookup has no deletes")
	}
	// Scans confined to the three classes.
	for _, class := range dist.ScanningClasses() {
		switch class {
		case rawdb.ClassSnapshotAccount, rawdb.ClassSnapshotStorage, rawdb.ClassBlockHeader:
		default:
			t.Errorf("unexpected scanning class %v", class)
		}
	}
	// Code: read-dominated.
	if code := dist.PerClass[rawdb.ClassCode]; code != nil {
		if code.Reads <= code.Writes {
			t.Errorf("Code reads (%d) not above writes (%d); paper: 87%% reads",
				code.Reads, code.Writes)
		}
	}
	// Head markers are pure updates.
	for _, class := range []rawdb.Class{rawdb.ClassLastHeader, rawdb.ClassLastFast} {
		co := dist.PerClass[class]
		if co == nil {
			t.Errorf("%v absent from trace", class)
			continue
		}
		if co.Updates == 0 || co.Writes > 0 {
			t.Errorf("%v: updates=%d writes=%d (paper: 100%% updates)",
				class, co.Updates, co.Writes)
		}
	}
}

// TestUpdateCorrelationMetaPairs asserts Finding 10's mechanism: the head
// markers update adjacently every block.
func TestUpdateCorrelationMetaPairs(t *testing.T) {
	res, err := Run(Config{Mode: Cached, Blocks: 30, Workload: testWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	corr := analysis.CollectCorrelationsSlice(res.Ops, trace.OpUpdate)
	pair := analysis.MakeClassPair(rawdb.ClassLastFast, rawdb.ClassLastHeader)
	at0 := corr.Counts(0, pair)
	if at0 == 0 {
		t.Fatal("no LastFast-LastHeader adjacency at d=0")
	}
	at16 := corr.Counts(16, pair)
	if at16 >= at0 {
		t.Fatalf("meta pair not clustered: d=0 %d vs d=16 %d", at0, at16)
	}
}

func TestModeString(t *testing.T) {
	if Bare.String() != "BareTrace" || Cached.String() != "CacheTrace" {
		t.Fatal("Mode.String")
	}
}

// TestPipelineDeterminism: identical configs must produce identical op
// streams — the reproducibility guarantee EXPERIMENTS.md promises.
func TestPipelineDeterminism(t *testing.T) {
	run := func() []trace.Op {
		res, err := Run(Config{Mode: Cached, Blocks: 10, Workload: testWorkload()})
		if err != nil {
			t.Fatal(err)
		}
		return res.Ops
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("op counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Type != b[i].Type || a[i].Class != b[i].Class ||
			string(a[i].Key) != string(b[i].Key) || a[i].ValueSize != b[i].ValueSize {
			t.Fatalf("op %d differs between identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestTraceBootstrap: snap-sync-style runs open the trace with the state
// download's write burst.
func TestTraceBootstrap(t *testing.T) {
	res, err := Run(Config{
		Mode: Bare, Blocks: 3, Workload: testWorkload(), TraceBootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The very first ops must be world-state writes (the bulk download),
	// not block processing.
	var bootstrapWrites int
	for _, op := range res.Ops[:1000] {
		if (op.Type == trace.OpWrite || op.Type == trace.OpUpdate) && op.Class.IsWorldState() {
			bootstrapWrites++
		}
	}
	if bootstrapWrites < 500 {
		t.Fatalf("bootstrap write burst missing: %d world-state writes in first 1000 ops", bootstrapWrites)
	}
	// Default runs must NOT trace the bootstrap.
	res2, err := Run(Config{Mode: Bare, Blocks: 3, Workload: testWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Ops) >= len(res.Ops) {
		t.Fatalf("untraced bootstrap should yield fewer ops: %d vs %d", len(res2.Ops), len(res.Ops))
	}
}

// TestWriteArtifacts: the artifact-layout export must produce the file
// tree the paper's analysis scripts emit.
func TestWriteArtifacts(t *testing.T) {
	res, err := Run(Config{Mode: Cached, Blocks: 10, Workload: testWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ops := analysis.CollectOpDistSlice(res.Ops, nil)
	read := analysis.CollectCorrelationsSlice(res.Ops, trace.OpRead)
	upd := analysis.CollectCorrelationsSlice(res.Ops, trace.OpUpdate)
	if err := WriteArtifacts(dir, res.Store, ops, read, upd); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{
		"kvSizeDistribution", "mergedKVOpDistribution",
		"readCorrelationOutput", "updateCorrelationOutput",
	} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatalf("%s: %v", sub, err)
		}
		if len(entries) == 0 {
			t.Fatalf("%s is empty", sub)
		}
	}
	// Size files hold "size count" rows.
	raw, err := os.ReadFile(filepath.Join(dir, "kvSizeDistribution", "TrieNodeStorage.txt"))
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	if len(fields) != 2 {
		t.Fatalf("size row format: %q", string(raw[:40]))
	}
	// Per-key frequency files exist for the world-state classes.
	if _, err := os.Stat(filepath.Join(dir, "mergedKVOpDistribution",
		"TrieNodeStorage_read_with_key_dis.txt")); err != nil {
		t.Fatal(err)
	}
	// Distance logs exist for d=0.
	if _, err := os.Stat(filepath.Join(dir, "readCorrelationOutput",
		"freq-category-0.log")); err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedConfigsRobust: the pipeline must survive arbitrary small
// workload shapes without error (robustness, not calibration).
func TestRandomizedConfigsRobust(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run robustness test")
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		cfg := chain.DefaultWorkload()
		cfg.Seed = rng.Int63()
		cfg.Accounts = 100 + rng.Intn(2000)
		cfg.Contracts = 10 + rng.Intn(200)
		cfg.SlotsPerContract = 1 + rng.Intn(30)
		cfg.TxPerBlock = 1 + rng.Intn(80)
		cfg.ZipfS = 1.01 + rng.Float64()*1.5
		cfg.DestructChance = rng.Float64() * 0.2
		mode := Bare
		if i%2 == 1 {
			mode = Cached
		}
		res, err := Run(Config{Mode: mode, Blocks: 5 + rng.Intn(15), Workload: cfg})
		if err != nil {
			t.Fatalf("config %d (%+v): %v", i, cfg, err)
		}
		if len(res.Ops) == 0 {
			t.Fatalf("config %d produced no ops", i)
		}
	}
}

// TestLSMCacheSizeInvariance runs the same deterministic workload over the
// LSM store at three block-cache budgets — smaller than one table, disabled,
// and everything-fits — and checks the emitted trace and store census are
// byte-identical. The cache may only change where block bytes are fetched
// from, never what any read returns.
func TestLSMCacheSizeInvariance(t *testing.T) {
	run := func(cacheBytes int64) *Result {
		t.Helper()
		res, err := Run(Config{
			Mode: Cached, Blocks: 5, Workload: testWorkload(),
			Backend: "lsm", Store: backends.Options{BlockCacheBytes: cacheBytes},
		})
		if err != nil {
			t.Fatalf("cache=%d: %v", cacheBytes, err)
		}
		return res
	}
	tiny := run(4 << 10)
	disabled := run(-1)
	huge := run(256 << 20)

	for _, other := range []*Result{disabled, huge} {
		if len(other.Ops) != len(tiny.Ops) {
			t.Fatalf("op count diverged: %d vs %d", len(other.Ops), len(tiny.Ops))
		}
		for i := range tiny.Ops {
			if !reflect.DeepEqual(tiny.Ops[i], other.Ops[i]) {
				t.Fatalf("op %d diverged: %+v vs %+v", i, tiny.Ops[i], other.Ops[i])
			}
		}
		if !reflect.DeepEqual(tiny.Store, other.Store) {
			t.Fatal("store census diverged across cache sizes")
		}
	}
	// The tiny-cache run must actually have churned the cache for the
	// comparison to mean anything.
	if tiny.KVStats.BlockCacheEvictions == 0 && tiny.KVStats.BlockCacheMisses == 0 {
		t.Fatal("tiny-cache run never touched the block cache")
	}
	if disabled.KVStats.BlockCacheHits != 0 || disabled.KVStats.BlockCacheMisses != 0 {
		t.Fatal("disabled cache recorded traffic")
	}
}

// TestRunWithFlatBackend runs the import pipeline over the single-seek
// flat store and checks the store actually carried the workload.
func TestRunWithFlatBackend(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(Config{Mode: Bare, Blocks: 5, Workload: testWorkload(), Dir: dir, Backend: "flat"})
	if err != nil {
		t.Fatal(err)
	}
	if res.KVStats.Puts == 0 {
		t.Fatal("flat backend recorded no puts")
	}
	if res.KVStats.PhysicalBytesWrite == 0 {
		t.Fatal("flat backend recorded no physical writes")
	}
	if res.KVStats.LiveDataBytes == 0 {
		t.Fatal("flat backend reports no live data after import")
	}
}

// TestBackendTraceAndCensusInvariance runs the same deterministic workload
// over the reference store, the LSM, and the flat store: the emitted op
// stream and the post-run store census must be identical. The backend may
// only change I/O cost, never what the chain reads or what state remains.
func TestBackendTraceAndCensusInvariance(t *testing.T) {
	run := func(backend string) *Result {
		t.Helper()
		res, err := Run(Config{Mode: Cached, Blocks: 5, Workload: testWorkload(), Backend: backend})
		if err != nil {
			t.Fatalf("backend=%s: %v", backend, err)
		}
		return res
	}
	ref := run("mem")
	for _, backend := range []string{"lsm", "flat"} {
		other := run(backend)
		if len(other.Ops) != len(ref.Ops) {
			t.Fatalf("%s: op count diverged: %d vs %d", backend, len(other.Ops), len(ref.Ops))
		}
		for i := range ref.Ops {
			if !reflect.DeepEqual(ref.Ops[i], other.Ops[i]) {
				t.Fatalf("%s: op %d diverged: %+v vs %+v", backend, i, ref.Ops[i], other.Ops[i])
			}
		}
		if !reflect.DeepEqual(ref.Store, other.Store) {
			t.Fatalf("%s: store census diverged from reference", backend)
		}
	}
}

// TestRunHybridTwiceIntoOneDir: a second run into the same Dir reopens the
// hybrid store the first left. The freezer and trace file sit beside the
// store, never among the hybrid's route directories, which it refuses.
func TestRunHybridTwiceIntoOneDir(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		res, err := Run(Config{Mode: Cached, Blocks: 3, Workload: testWorkload(), Dir: dir, Backend: "hybrid"})
		if err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		if res.Store.Total == 0 {
			t.Fatalf("run %d: empty store census", i+1)
		}
	}
}

// TestRunRejectsUnknownBackend: a typo must fail loudly, not silently fall
// back to the in-memory store.
func TestRunRejectsUnknownBackend(t *testing.T) {
	if _, err := Run(Config{Mode: Bare, Blocks: 1, Workload: testWorkload(), Backend: "rocks"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}
