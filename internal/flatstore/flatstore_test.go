package flatstore

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
	"ethkv/internal/obs"
)

func openMem(t *testing.T, fs faultfs.FS, opts Options) *Store {
	t.Helper()
	opts.FS = fs
	s, err := Open("db", opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestBasicRoundTrip(t *testing.T) {
	s := openMem(t, faultfs.NewMemFS(), Options{})
	defer s.Close()

	if _, err := s.Get([]byte("missing")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("Get missing: want ErrNotFound, got %v", err)
	}
	if err := s.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("a"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get([]byte("a"))
	if err != nil || string(v) != "2" {
		t.Fatalf("Get a = %q, %v; want 2", v, err)
	}
	// Empty value is present, not absent.
	if err := s.Put([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	v, err = s.Get([]byte("empty"))
	if err != nil || len(v) != 0 {
		t.Fatalf("Get empty = %q, %v; want empty value", v, err)
	}
	ok, err := s.Has([]byte("empty"))
	if err != nil || !ok {
		t.Fatalf("Has empty = %v, %v; want true", ok, err)
	}
	if err := s.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("a")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("Get deleted: want ErrNotFound, got %v", err)
	}
	// Deleting an absent key is not an error.
	if err := s.Delete([]byte("never")); err != nil {
		t.Fatal(err)
	}
}

func TestValueIsolation(t *testing.T) {
	s := openMem(t, faultfs.NewMemFS(), Options{})
	defer s.Close()
	val := []byte("original")
	if err := s.Put([]byte("k"), val); err != nil {
		t.Fatal(err)
	}
	val[0] = 'X' // caller scribbles on its buffer after Put
	got, err := s.Get([]byte("k"))
	if err != nil || string(got) != "original" {
		t.Fatalf("Get = %q, %v; want original", got, err)
	}
	got[0] = 'Y' // caller scribbles on the returned value
	again, err := s.Get([]byte("k"))
	if err != nil || string(again) != "original" {
		t.Fatalf("Get after scribble = %q, %v; want original", again, err)
	}
}

func TestOrderedIteration(t *testing.T) {
	s := openMem(t, faultfs.NewMemFS(), Options{})
	defer s.Close()
	keys := []string{"b/2", "a/1", "b/1", "c/9", "b/3"}
	for _, k := range keys {
		if err := s.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	it := s.NewIterator([]byte("b/"), nil)
	defer it.Release()
	var got []string
	for it.Next() {
		got = append(got, string(it.Key()))
		if want := "v-" + string(it.Key()); string(it.Value()) != want {
			t.Fatalf("value for %s = %q, want %q", it.Key(), it.Value(), want)
		}
	}
	if it.Error() != nil {
		t.Fatalf("iterator error: %v", it.Error())
	}
	want := []string{"b/1", "b/2", "b/3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan order = %v, want %v", got, want)
	}
	// start positions within the prefix.
	it2 := s.NewIterator([]byte("b/"), []byte("2"))
	defer it2.Release()
	got = nil
	for it2.Next() {
		got = append(got, string(it2.Key()))
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"b/2", "b/3"}) {
		t.Fatalf("scan from start = %v", got)
	}
}

func TestReopenRecovers(t *testing.T) {
	mem := faultfs.NewMemFS()
	s := openMem(t, mem, Options{})
	b := s.NewBatch()
	for i := 0; i < 50; i++ {
		b.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%03d", i)))
	}
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([]byte("key-010")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openMem(t, mem, Options{})
	defer s2.Close()
	if _, err := s2.Get([]byte("key-010")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("deleted key survived reopen: %v", err)
	}
	for i := 0; i < 50; i++ {
		if i == 10 {
			continue
		}
		k := fmt.Sprintf("key-%03d", i)
		v, err := s2.Get([]byte(k))
		if err != nil || string(v) != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("Get %s after reopen = %q, %v", k, v, err)
		}
	}
}

// TestSinglePhysicalReadPerGet pins the backend's core promise: after a
// cold reopen, each point read costs exactly one storage-layer read
// operation (the acceptance criterion "≤ 1 physical read per Get").
func TestSinglePhysicalReadPerGet(t *testing.T) {
	mem := faultfs.NewMemFS()
	s := openMem(t, mem, Options{})
	b := s.NewBatch()
	const n = 200
	for i := 0; i < n; i++ {
		b.Put([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte{byte(i)}, 64))
	}
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openMem(t, mem, Options{})
	defer s2.Close()
	base := s2.Stats().PhysicalReadOps
	for i := 0; i < n; i++ {
		if _, err := s2.Get([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ops := s2.Stats().PhysicalReadOps - base
	if ops != n {
		t.Fatalf("%d Gets cost %d physical read ops; want exactly %d (one per Get)", n, ops, n)
	}
	// A miss costs zero physical reads: the resident index answers it.
	preMiss := s2.Stats().PhysicalReadOps
	if _, err := s2.Get([]byte("absent")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatal(err)
	}
	if got := s2.Stats().PhysicalReadOps - preMiss; got != 0 {
		t.Fatalf("missing-key Get cost %d physical reads; want 0", got)
	}
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	mem := faultfs.NewMemFS()
	s := openMem(t, mem, Options{})
	b := s.NewBatch()
	b.Put([]byte("durable-1"), []byte("v1"))
	b.Put([]byte("durable-2"), []byte("v2"))
	if err := b.Write(); err != nil { // synced: acked
		t.Fatal(err)
	}
	// Un-synced singles: may be lost, wholly or partially, at crash.
	for i := 0; i < 20; i++ {
		if err := s.Put([]byte(fmt.Sprintf("volatile-%02d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Crash keeping a torn prefix of the volatile tail, with a flipped
	// byte modelling mid-write sector damage.
	mem.Crash(func(path string, volatile []byte) []byte {
		kept := append([]byte(nil), volatile[:len(volatile)/2]...)
		if len(kept) > 4 {
			kept[len(kept)-3] ^= 0x41
		}
		return kept
	})

	s2 := openMem(t, mem, Options{})
	defer s2.Close()
	for _, k := range []string{"durable-1", "durable-2"} {
		if _, err := s2.Get([]byte(k)); err != nil {
			t.Fatalf("acked key %s lost: %v", k, err)
		}
	}
	// Whatever volatile prefix survived must read back correctly; the
	// torn region must be gone, and new writes must land cleanly.
	it := s2.NewIterator(nil, nil)
	for it.Next() {
	}
	if it.Error() != nil {
		t.Fatalf("post-recovery scan error: %v", it.Error())
	}
	it.Release()
	if err := s2.Put([]byte("after-crash"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if v, err := s2.Get([]byte("after-crash")); err != nil || string(v) != "ok" {
		t.Fatalf("post-recovery write: %q, %v", v, err)
	}
}

func TestCompactionReclaimsAndPreservesData(t *testing.T) {
	mem := faultfs.NewMemFS()
	s := openMem(t, mem, Options{CompactAfterDeadBytes: -1})
	const n = 30
	for round := 0; round < 4; round++ {
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("key-%02d", i))
			if err := s.Put(k, []byte(fmt.Sprintf("round-%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		if err := s.Delete([]byte(fmt.Sprintf("key-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pre := s.Stats()
	if pre.DeadDataBytes == 0 {
		t.Fatal("overwrites produced no dead bytes")
	}

	// Pin an iterator across the compaction: its generation snapshot must
	// keep reading cleanly after the swap deletes the old file.
	it := s.NewIterator(nil, nil)

	s.mu.Lock()
	err := s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("compaction: %v", err)
	}
	post := s.Stats()
	if post.DeadDataBytes != 0 {
		t.Fatalf("DeadDataBytes after compaction = %d, want 0", post.DeadDataBytes)
	}
	if post.CompactionRewrites != n-5 {
		t.Fatalf("CompactionRewrites = %d, want %d", post.CompactionRewrites, n-5)
	}
	if s.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", s.Generation())
	}

	var iterated int
	for it.Next() {
		iterated++
	}
	if it.Error() != nil {
		t.Fatalf("iterator across compaction: %v", it.Error())
	}
	it.Release()
	if iterated != n-5 {
		t.Fatalf("iterator across compaction saw %d keys, want %d", iterated, n-5)
	}

	for i := 5; i < n; i++ {
		k := fmt.Sprintf("key-%02d", i)
		v, err := s.Get([]byte(k))
		if err != nil || string(v) != "round-3" {
			t.Fatalf("Get %s after compaction = %q, %v", k, v, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The swap is durable: reopen lands on generation 2 with the same data,
	// and the old generation file is gone.
	s2 := openMem(t, mem, Options{})
	defer s2.Close()
	if s2.Generation() != 2 {
		t.Fatalf("generation after reopen = %d, want 2", s2.Generation())
	}
	if got, err := s2.fs.Glob(filepath.Join("db", "flat-*.log")); err != nil || len(got) != 1 {
		t.Fatalf("generation files after compaction = %v, %v; want exactly one", got, err)
	}
	for i := 5; i < n; i++ {
		if _, err := s2.Get([]byte(fmt.Sprintf("key-%02d", i))); err != nil {
			t.Fatalf("key-%02d lost across compaction+reopen: %v", i, err)
		}
	}
}

func TestAutoCompactionTriggers(t *testing.T) {
	s := openMem(t, faultfs.NewMemFS(), Options{CompactAfterDeadBytes: 1 << 10})
	defer s.Close()
	v := bytes.Repeat([]byte{0xAB}, 128)
	for round := 0; round < 40; round++ {
		if err := s.Put([]byte("hot"), v); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().CompactionCount == 0 {
		t.Fatalf("40 overwrites of a 128B value never triggered compaction (dead=%d)",
			s.Stats().DeadDataBytes)
	}
	got, err := s.Get([]byte("hot"))
	if err != nil || !bytes.Equal(got, v) {
		t.Fatalf("hot key after auto-compaction: %v", err)
	}
}

func TestDegradedAfterPermanentFault(t *testing.T) {
	mem := faultfs.NewMemFS()
	plan := faultfs.NewPlan(1)
	s := openMem(t, faultfs.Inject(mem, plan), Options{})
	defer s.Close()
	if err := s.Put([]byte("before"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	plan.SetFailWritesAfter(plan.Writes() + 1)
	err := s.Put([]byte("doomed"), []byte("v"))
	if err == nil {
		t.Fatal("write after permanent fault succeeded")
	}
	if !errors.Is(s.Put([]byte("later"), []byte("v")), kv.ErrDegraded) {
		t.Fatal("store did not latch degraded mode")
	}
	if s.Stats().Degraded != 1 {
		t.Fatal("Stats.Degraded != 1")
	}
	// Reads keep working; the failed write is invisible.
	if v, gerr := s.Get([]byte("before")); gerr != nil || string(v) != "v" {
		t.Fatalf("read in degraded mode: %q, %v", v, gerr)
	}
	if _, gerr := s.Get([]byte("doomed")); !errors.Is(gerr, kv.ErrNotFound) {
		t.Fatalf("failed write visible: %v", gerr)
	}
}

func TestTransientFaultsRetried(t *testing.T) {
	mem := faultfs.NewMemFS()
	plan := faultfs.NewPlan(7)
	plan.TransientProb = 0.3
	s := openMem(t, faultfs.Inject(mem, plan), Options{})
	defer s.Close()
	for i := 0; i < 100; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatalf("Put under transient faults: %v", err)
		}
	}
	if s.Stats().IORetries == 0 {
		t.Fatal("30% transient fault rate produced zero retries")
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatalf("Get after retried writes: %v", err)
		}
	}
}

// TestGroupAtomicity exercises the all-or-nothing replay rule at the
// encoding level: a group record cut anywhere inside its extent must
// contribute none of its sub-records.
func TestGroupAtomicity(t *testing.T) {
	var payload []byte
	payload = appendRecord(payload, kindPut, []byte("aa"), []byte("11"))
	payload = appendRecord(payload, kindPut, []byte("bb"), []byte("22"))
	group := appendRecord(nil, kindGroup, payload, nil)

	full, valid := replayData(group, 0, true)
	if len(full) != 2 || valid != int64(len(group)) {
		t.Fatalf("intact group: %d ops, valid=%d", len(full), valid)
	}
	for cut := 1; cut < len(group); cut++ {
		ops, valid := replayData(group[:cut], 0, true)
		if len(ops) != 0 || valid != 0 {
			t.Fatalf("group cut at %d leaked %d ops (valid=%d); batches must be all-or-nothing",
				cut, len(ops), valid)
		}
	}
	// A single flipped bit anywhere must reject the group too.
	for i := 0; i < len(group); i++ {
		damaged := append([]byte(nil), group...)
		damaged[i] ^= 0x10
		ops, _ := replayData(damaged, 0, true)
		for _, op := range ops {
			if string(op.key) != "aa" && string(op.key) != "bb" {
				t.Fatalf("bit flip at %d produced fabricated key %q", i, op.key)
			}
			if string(op.value) != "11" && string(op.value) != "22" {
				t.Fatalf("bit flip at %d produced fabricated value %q", i, op.value)
			}
		}
	}
}

// TestScanLatchesCorruption damages a record in place and requires the
// iterator to surface the damage through Error() rather than silently
// skipping or truncating the scan.
func TestScanLatchesCorruption(t *testing.T) {
	mem := faultfs.NewMemFS()
	s := openMem(t, mem, Options{})
	defer s.Close()
	b := s.NewBatch()
	for i := 0; i < 20; i++ {
		b.Put([]byte(fmt.Sprintf("key-%02d", i)), bytes.Repeat([]byte{'v'}, 32))
	}
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	// Stomp bytes in the middle of the entry file, inside record extents.
	path := s.genPath(s.Generation())
	data, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mem.Create(path + ".tmp")
	if err != nil {
		t.Fatal(err)
	}
	mid := len(data) / 2
	for i := mid; i < mid+16 && i < len(data); i++ {
		data[i] = 0xFF
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	f.Close()
	if err := mem.Rename(path+".tmp", path); err != nil {
		t.Fatal(err)
	}
	// The resident index still points at the damaged extents; a fresh
	// iterator (its handle snapshots the damaged file) must latch.
	it := s.NewIterator(nil, nil)
	defer it.Release()
	n := 0
	for it.Next() {
		n++
	}
	if it.Error() == nil {
		t.Fatalf("scan over damaged file yielded %d entries with nil Error", n)
	}
	if n >= 20 {
		t.Fatalf("scan yielded all %d entries despite damage", n)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := openMem(t, faultfs.NewMemFS(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("k")); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("Get on closed store: %v", err)
	}
	if err := s.Put([]byte("k"), []byte("v")); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("Put on closed store: %v", err)
	}
	it := s.NewIterator(nil, nil)
	if it.Next() || !errors.Is(it.Error(), kv.ErrClosed) {
		t.Fatalf("iterator on closed store: %v", it.Error())
	}
}

func TestRegisterMetricsGauges(t *testing.T) {
	reg := obs.NewRegistry()
	s := openMem(t, faultfs.NewMemFS(), Options{})
	defer s.Close()
	s.RegisterMetrics(reg, "store", "flat")
	if err := s.Put([]byte("k"), bytes.Repeat([]byte{'v'}, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("short")); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	want := map[string]func(v float64) bool{
		`ethkv_flat_index_keys{store="flat"}`:           func(v float64) bool { return v == 1 },
		`ethkv_flat_generation{store="flat"}`:           func(v float64) bool { return v == 1 },
		`ethkv_flat_file_bytes{store="flat"}`:           func(v float64) bool { return v > 0 },
		`ethkv_flat_dead_fraction{store="flat"}`:        func(v float64) bool { return v > 0 && v < 1 },
		`ethkv_store_live_data_bytes{store="flat"}`:     func(v float64) bool { return v > 0 },
		`ethkv_store_dead_data_bytes{store="flat"}`:     func(v float64) bool { return v > 0 },
		`ethkv_store_physical_read_ops{store="flat"}`:   func(v float64) bool { return v >= 0 },
		`ethkv_store_compaction_rewrites{store="flat"}`: func(v float64) bool { return v == 0 },
	}
	for name, ok := range want {
		v, present := snap.Gauges[name]
		if !present {
			t.Errorf("gauge %s missing (have %d gauges)", name, len(snap.Gauges))
			continue
		}
		if !ok(v) {
			t.Errorf("gauge %s = %v fails its predicate", name, v)
		}
	}
}
