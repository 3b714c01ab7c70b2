// Package storetest is the repository's one store-verification harness: one
// seeded model workload, three ways to end it, and one table of the store
// compositions the repository builds (Rows). A new composition gets the whole
// treatment by adding a row.
//
// The workload: each writer owns a disjoint keyspace and runs seeded units —
// batches, acknowledged when Write returns, and single puts and deletes,
// acknowledged only by a later batch's barrier or a clean Close — with
// overwrites, empty values, deletes of absent keys, and interleaved Gets
// checked against the writer's model. The endings: live verifies in place
// and reopen after a clean Close and reopen, both with every unit present;
// crash rebuilds the composition over one fault-injected filesystem per
// leaf, trips a seeded crash point, tears each filesystem's unsynced tail and
// reopens on what survived.
//
// Verification is one function for all three. A full scan must be strictly
// ascending, each scanned pair must agree with Get, and no key may fall
// outside a writer's keyspace. Per (writer, leaf), the stored slice must
// equal the writer's model after some prefix of its leaf-local units no
// shorter than the acknowledged floor (the whole log, for live and reopen).
// A leaf is a child store of a shard or hybrid composition: a batch spanning
// leaves commits one sub-batch per leaf, atomic within the leaf only
// (DESIGN.md §21). With one leaf it is a per-writer check.
package storetest

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
	"ethkv/internal/kv/kvtest"
	"ethkv/internal/rawdb"
)

// Config parameterizes one run of the workload. Everything random derives
// from Seed, so a single-writer crash cycle replays bit-identically. The
// fault and tuning knobs apply to the crash ending's leaves.
type Config struct {
	Seed    int64
	Writers int // concurrent writers, each on a disjoint keyspace (0 = 1)
	Units   int // workload units per writer (0 = 40)
	// TransientProb and ReadTransientProb inject retryable write and read
	// faults; read faults draw from their own rng, so replay stays
	// deterministic.
	TransientProb, ReadTransientProb float64
	BlockCacheBytes                  int64 // LSM block cache: 0 = default, negative disables
	// CompactionWorkers sizes each LSM leaf's private compaction pool, the
	// leaf's background budget (0 = 1: flushes and compactions then share
	// one write schedule, so replays are identical).
	CompactionWorkers int
	// SyncLatency makes every durability barrier this slow, holding open the
	// windows where the LSM syncs with no lock held for a crash to land in.
	SyncLatency time.Duration
	// LargeValues makes a quarter of the put values 1–8 KiB, the sizes the
	// LSM separates into blob files.
	LargeValues bool
}

// Result is what a crash cycle observed.
type Result struct {
	Crashed   bool // the seeded crash point tripped mid-workload
	Units     int  // units attempted across writers
	Recovered int  // pairs the reopened store holds
	IORetries uint64
}

// Run runs the named row's test: kvtest's contract checks, then each ending
// the row supports under the name of the kvtest check it replaced — live as
// RandomizedModel (one writer) and ScanAfterMixedOps (four), reopen as
// ReopenPersistence — and crash, over three seeds, as Crash. LargeValues
// runs the reopen ending (live where the row does not reopen) with values
// of 1–8 KiB.
func Run(t *testing.T, name string) {
	row := Find(t, name)
	var dir string
	open := func(t *testing.T) kv.Store {
		dir = t.TempDir()
		return row.open(t, dir)
	}
	var opts kvtest.Options
	if row.Corrupt != nil {
		opts.CorruptScan = func(t *testing.T, s kv.Store) kv.Store {
			if row.Corrupt(t, s, dir) {
				return row.open(t, dir)
			}
			return s
		}
	}
	kvtest.Run(t, open, opts)

	same := func(s kv.Store) kv.Store { return s }
	t.Run("RandomizedModel", func(t *testing.T) { exact(t, open(t), Config{Seed: 1, Units: 400}, same) })
	t.Run("ScanAfterMixedOps", func(t *testing.T) { exact(t, open(t), Config{Seed: 2, Writers: 4, Units: 100}, same) })
	if row.Reopens {
		t.Run("ReopenPersistence", func(t *testing.T) {
			exact(t, open(t), Config{Seed: 3, Writers: 2, Units: 100}, func(s kv.Store) kv.Store {
				if err := s.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				return row.open(t, dir)
			})
		})
	}
	t.Run("LargeValues", func(t *testing.T) {
		exact(t, open(t), Config{Seed: 4, Writers: 2, Units: 60, LargeValues: true}, func(s kv.Store) kv.Store {
			if !row.Reopens {
				return s
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			return row.open(t, dir)
		})
	})
	if row.Crash != nil {
		t.Run("Crash", func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				Crash(row, Config{Seed: seed, Writers: 2}, t.Errorf)
			}
		})
	}
}

// open opens row in dir for the test's lifetime.
func (row Row) open(t *testing.T, dir string) kv.Store {
	t.Helper()
	s, err := row.Open(t, dir)
	if err != nil {
		t.Fatalf("open %s: %v", row.Name, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// exact runs cfg's workload on s and verifies the store end(s) returns with
// every unit present.
func exact(t *testing.T, s kv.Store, cfg Config, end func(kv.Store) kv.Store) {
	cfg = cfg.withDefaults()
	logs, err := workload(s, cfg, t.Errorf)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	verify(end(s), cfg.Seed, logs, true, t.Errorf)
}

func (c Config) withDefaults() Config {
	c.Writers = max(c.Writers, 1)
	if c.Units <= 0 {
		c.Units = 40
	}
	return c
}

// Crash runs one seeded crash cycle on row's composition and verifies the
// recovered state. Each leaf's filesystem has its own plan seeded from
// (Seed, leaf); a seeded victim leaf carries the mid-workload crash point,
// and the end-of-run power loss tears every leaf's unsynced tail.
func Crash(row Row, cfg Config, fail func(format string, args ...any)) Result {
	shape := row.Crash
	if shape.Tune != nil {
		shape.Tune(&cfg)
	}
	cfg = cfg.withDefaults()
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	victim, crashAt := seedRng.Intn(shape.leaves()), 1+seedRng.Int63n(300)
	var mems []*faultfs.MemFS
	var plans []*faultfs.Plan
	db, err := shape.open(cfg, func() faultfs.FS {
		plan := faultfs.NewPlan(cfg.Seed*7919 + int64(len(plans)))
		plan.TransientProb = cfg.TransientProb
		plan.SetReadTransientProb(cfg.ReadTransientProb)
		if len(plans) == victim {
			plan.CrashAfterWrites = crashAt
		}
		mems, plans = append(mems, faultfs.NewMemFS()), append(plans, plan)
		return faultfs.Inject(faultfs.WithSyncLatency(mems[len(mems)-1], cfg.SyncLatency), plan)
	})

	var res Result
	logs := make([]*writerLog, cfg.Writers)
	for w := range logs {
		logs[w] = &writerLog{}
	}
	switch n := len(plans); {
	case err == nil:
		logs, _ = workload(db, cfg, fail) // a crash or degrade stops a writer
		res.Crashed = plans[victim].Crashed()
		for _, p := range plans {
			p.TripCrash() // the end-of-run power loss hits every leaf at once
		}
		db.Close() // the dead process's closes all fail
		if sp, ok := db.(kv.StatsProvider); ok {
			res.IORetries = sp.Stats().IORetries
		}
	case n == 0 || !plans[n-1].Crashed() && !faultfs.IsTransient(err):
		// Only the crash point (or a transient fault outlasting its retries)
		// may fail an Open, and then nothing was acknowledged.
		fail("seed %d: open failed without a crash: %v", cfg.Seed, err)
		return res
	}
	for i, mem := range mems {
		mem.Crash(plans[i].TornTail())
	}

	// Reboot on the surviving bytes; a leaf the doomed open never reached
	// starts empty.
	next := 0
	re, err := shape.open(cfg, func() faultfs.FS {
		if next++; next <= len(mems) {
			return mems[next-1]
		}
		return faultfs.NewMemFS()
	})
	if err != nil {
		fail("seed %d: reopen after crash failed: %v", cfg.Seed, err)
		return res
	}
	defer re.Close()
	for _, l := range logs {
		res.Units += len(l.units)
	}
	res.Recovered = verify(re, cfg.Seed, logs, false, fail)
	return res
}

// op is one modelled mutation; a unit is one workload step, a batch or a
// single op. An acknowledged unit — a batch whose Write returned — makes it
// and every unit before it durable.
type op struct {
	del        bool
	key, value string
}

type unit struct {
	ops   []op
	acked bool
}

// writerLog is one writer's attempted units, in order, and the index just
// past its last acknowledged one: the recovery floor.
type writerLog struct {
	units []unit
	floor int
}

func (o op) apply(w kv.Writer) error {
	if o.del {
		return w.Delete([]byte(o.key))
	}
	return w.Put([]byte(o.key), []byte(o.value))
}

func applyUnit(model map[string]string, u unit) {
	for _, o := range u.ops {
		if o.del {
			delete(model, o.key)
		} else {
			model[o.key] = o.value
		}
	}
}

// workload runs cfg.Writers concurrent writers on s and returns their logs
// and every error that stopped one.
func workload(s kv.Store, cfg Config, fail func(string, ...any)) ([]*writerLog, error) {
	logs := make([]*writerLog, cfg.Writers)
	errs := make([]error, cfg.Writers)
	var wg sync.WaitGroup
	for w := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[w], errs[w] = runWriter(s, cfg, w, fail)
		}()
	}
	wg.Wait()
	return logs, errors.Join(errs...)
}

// runWriter drives writer w until its unit budget is spent or the store
// fails (a crash point, degraded mode), returning that failure. After a
// quarter of the units it reads a key back against its model.
func runWriter(s kv.Store, cfg Config, w int, fail func(string, ...any)) (*writerLog, error) {
	l := &writerLog{}
	model := make(map[string]string)
	rng := rand.New(rand.NewSource(cfg.Seed*1009 + int64(w)))
	for i := 0; i < cfg.Units; i++ {
		var u unit
		var err error
		if rng.Intn(10) < 6 {
			b := s.NewBatch()
			for j, n := 0, 1+rng.Intn(6); j < n; j++ {
				u.ops = append(u.ops, genOp(rng, w, i*10+j, cfg.LargeValues))
				u.ops[j].apply(b)
			}
			err = b.Write()
			u.acked = err == nil
		} else {
			u.ops = []op{genOp(rng, w, i*10, cfg.LargeValues)}
			err = u.ops[0].apply(s)
		}
		l.units = append(l.units, u)
		if err != nil {
			return l, err
		}
		if u.acked {
			l.floor = len(l.units)
		}
		applyUnit(model, u)
		if rng.Intn(4) != 0 {
			continue
		}
		key := keyOf(w, rng.Intn(keysPerWriter))
		v, err := s.Get([]byte(key))
		want, ok := model[key]
		switch {
		case err == nil && ok && string(v) == want, errors.Is(err, kv.ErrNotFound) && !ok:
		case err != nil && !errors.Is(err, kv.ErrNotFound):
			return l, err
		default:
			fail("seed %d writer %d unit %d: Get(%q) = %q, %v; the model holds %q (present %v)",
				cfg.Seed, w, i, key, v, err, want, ok)
			return l, nil
		}
	}
	return l, nil
}

// genOp draws one op on writer w's keyspace: a quarter deletes (of present
// and absent keys alike), an eighth empty values, the rest values naming
// (writer, step), so every overwrite changes the state. With large, a
// quarter of those values are padded to 1–8 KiB.
func genOp(rng *rand.Rand, w, step int, large bool) op {
	key := keyOf(w, rng.Intn(keysPerWriter))
	switch rng.Intn(8) {
	case 0, 1:
		return op{del: true, key: key}
	case 2:
		return op{key: key}
	}
	pad := rng.Intn(48)
	if large && rng.Intn(4) == 0 {
		pad = 1<<10 + rng.Intn(7<<10)
	}
	return op{key: key, value: fmt.Sprintf("v-%d-%d-%s", w, step, strings.Repeat("x", pad))}
}

// keysPerWriter keeps keyspaces small, so units overwrite and delete what
// earlier units wrote.
const keysPerWriter = 40

// keyClasses are the classes a writer's keys rotate through: one the default
// hybrid policy keeps on its ordered route and two it sends to the flat
// route, so routed compositions' batches span routes.
var keyClasses = []func(rawdb.Hash) []byte{rawdb.SnapshotAccountKey, rawdb.TxLookupKey, rawdb.CodeKey}

// keyOf is writer w's k-th key: a class prefix and a 32-byte body naming the
// writer.
func keyOf(w, k int) string {
	var h rawdb.Hash
	copy(h[:], fmt.Sprintf("w%02d-k%03d", w, k))
	return string(keyClasses[k%len(keyClasses)](h))
}

// writerOf parses the owning writer from a key, or -1.
func writerOf(key string) int {
	if len(key) != 33 || key[1] != 'w' || key[4] != '-' {
		return -1
	}
	if w, err := strconv.Atoi(key[2:4]); err == nil {
		return w
	}
	return -1
}

// fanOut is a composition over child stores: shard.Router and hybrid.Store,
// through fanout.Core.
type fanOut interface {
	Len() int
	Child(i int) kv.Store
	ChildOf(key []byte) int
}

// leafOf numbers the leaf holding key: the child indexes it takes down nested
// fan-outs, read as one mixed-radix number (0 for a store that does not fan
// out).
func leafOf(s kv.Store, key []byte) int {
	leaf := 0
	for f, ok := s.(fanOut); ok; f, ok = s.(fanOut) {
		i := f.ChildOf(key)
		leaf, s = leaf*f.Len()+i, f.Child(i)
	}
	return leaf
}

// verify checks s against the writers' logs (see the package comment) and
// returns how many pairs it holds. exact requires every unit present.
func verify(s kv.Store, seed int64, logs []*writerLog, exact bool, fail func(string, ...any)) int {
	type slot struct{ writer, leaf int }
	got := make(map[slot]map[string]string)
	pairs, prev := 0, ""
	it := s.NewIterator(nil, nil)
	for it.Next() {
		k, v := string(it.Key()), string(it.Value())
		if pairs > 0 && k <= prev {
			fail("seed %d: scan out of order: %q after %q", seed, k, prev)
		}
		prev, pairs = k, pairs+1
		if gv, err := s.Get([]byte(k)); err != nil || string(gv) != v {
			fail("seed %d: Get(%q) = %q, %v disagrees with the scan's %q", seed, k, gv, err, v)
		}
		w := writerOf(k)
		if w < 0 || w >= len(logs) {
			fail("seed %d: alien key %q", seed, k)
			continue
		}
		at := slot{w, leafOf(s, []byte(k))}
		if got[at] == nil {
			got[at] = make(map[string]string)
		}
		got[at][k] = v
	}
	if err := it.Error(); err != nil {
		fail("seed %d: scan error: %v", seed, err)
	}
	it.Release()

	for w, l := range logs {
		// The writer's units as each leaf saw them: an acknowledged unit
		// raises the floor only on the leaves it wrote.
		units := make(map[int][]unit)
		floor := make(map[int]int)
		for at := range got {
			if at.writer == w {
				units[at.leaf] = nil
			}
		}
		for _, u := range l.units {
			perLeaf := make(map[int][]op)
			for _, o := range u.ops {
				leaf := leafOf(s, []byte(o.key))
				perLeaf[leaf] = append(perLeaf[leaf], o)
			}
			for leaf, ops := range perLeaf {
				units[leaf] = append(units[leaf], unit{ops: ops, acked: u.acked})
				if u.acked || exact {
					floor[leaf] = len(units[leaf])
				}
			}
		}
		for leaf, us := range units {
			if model, ok := matchPrefix(us, floor[leaf], got[slot{w, leaf}]); !ok {
				fail("seed %d writer %d leaf %d: state matches no prefix in [%d, %d]\nmodel %q\nstore %q",
					seed, w, leaf, floor[leaf], len(us), model, got[slot{w, leaf}])
			}
		}
	}
	return pairs
}

// matchPrefix searches for a prefix P in [floor, len(units)] whose model
// equals got; on failure it returns the full model, the most useful diff
// anchor.
func matchPrefix(units []unit, floor int, got map[string]string) (map[string]string, bool) {
	model := make(map[string]string)
	for _, u := range units[:floor] {
		applyUnit(model, u)
	}
	for p := floor; ; p++ {
		if maps.Equal(model, got) {
			return model, true
		}
		if p == len(units) {
			return model, false
		}
		applyUnit(model, units[p])
	}
}
