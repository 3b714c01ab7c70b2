// Package crashtest is a deterministic crash-recovery test driver for the
// repository's durable backends (the LSM store and the flat single-seek
// store). Each run executes a seeded random workload against a store
// whose filesystem is a fault-injecting in-memory VFS, crashes it at a
// seeded point (hard-failing all subsequent I/O and discarding or tearing
// every un-synced byte), reopens the store from the surviving bytes, and
// checks the recovered state against an in-memory model.
//
// The correctness condition is prefix consistency per writer: the recovered
// state must equal the model after some prefix P of that writer's op
// sequence, where P is at least the last synced-acknowledged unit (so no
// acknowledged write is ever lost and no acknowledged delete ever
// resurrects) and units — single ops or whole batches — apply
// all-or-nothing (so a torn group never leaks a partial batch).
//
// With Config.Shards > 1 the same cycle runs against a shard.Router over N
// children, each on its own fault-injected filesystem with its own seeded
// plan: one seeded victim shard crashes mid-workload, power loss tears
// every shard independently, and — because cross-shard batches commit
// per-shard groups — the verifier checks prefix consistency per
// (writer, shard) across the reopened router.
package crashtest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ethkv/internal/faultfs"
	"ethkv/internal/flatstore"
	"ethkv/internal/kv"
	"ethkv/internal/lsm"
	"ethkv/internal/shard"
)

// Config parameterizes one crash-recovery run. Everything random derives
// from Seed, so a single-writer run replays bit-identically.
type Config struct {
	Seed    int64
	Workers int // concurrent writers, each on a disjoint keyspace
	Units   int // workload units (single ops or batches) per worker
	// Backend selects the store under test: "lsm" (default) or "flat".
	// Both share the ack discipline the verifier assumes: batches
	// group-commit synced, single ops are buffered un-acked.
	Backend string
	// TransientProb injects retryable write faults at this rate, proving
	// recovery holds while the retry path is being exercised.
	TransientProb float64
	// ReadTransientProb injects retryable read faults at this rate into
	// the demand-paged block read path (drawn from an rng separate from
	// the write schedule, so crash-point replay stays deterministic).
	ReadTransientProb float64
	// BlockCacheBytes sets both stores' block-cache budget: 0 keeps the
	// store default, negative disables. Recovery must verify identically
	// at any cache size.
	BlockCacheBytes int64
	// Shards > 1 runs the workload against a shard.Router over that many
	// children of the Backend kind, each on its own fault-injected
	// filesystem with its own seeded plan. One seeded victim shard carries
	// the mid-workload crash point; power loss then tears every shard's
	// un-synced tail independently. Cross-shard batches commit per-shard
	// groups, so the verifier checks prefix consistency per (writer, shard)
	// rather than per writer.
	Shards int
	// CompactionWorkers sets the LSM's background compaction width (0 = 1,
	// the serial scheduler). At 1 the flush/compaction write schedule is
	// deterministic, so single-writer replays stay bit-identical; at 2+
	// the crash point lands while flushes and multiple range-disjoint
	// compactions race on the injected filesystem, which is exactly the
	// window where concurrent-compaction durability bugs would live.
	// Ignored by the flat backend.
	CompactionWorkers int
	// SyncLatency makes every durability barrier of the doomed run cost
	// this long (faultfs.WithSyncLatency beneath the fault plan). The LSM
	// syncs its WAL and writes its manifest with the version lock released;
	// with free syncs those windows are a few instructions wide and a crash
	// point almost never lands while another writer, a flush install or a
	// compaction install is inside one. Stretching the barrier holds the
	// windows open.
	SyncLatency time.Duration
}

// op is one modelled mutation.
type op struct {
	del        bool
	key, value string
}

// unit is one atomic workload step: a single op or a whole batch. Batches
// group-commit (synced), so a successful batch is acknowledged-durable;
// single ops are buffered and may be lost by a crash without violating
// consistency.
type unit struct {
	ops   []op
	acked bool // synced and acknowledged: must survive any crash
}

// workerLog is the per-writer model: the attempted units in order, and the
// index just past the last acknowledged-durable one (the recovery floor).
type workerLog struct {
	worker int
	units  []unit
	floor  int
}

// Result carries what a run observed, for reporting.
type Result struct {
	Crashed   bool // the seeded crash point tripped mid-workload
	UnitsRun  int  // total units attempted across workers
	IORetries uint64
}

// Run executes one seeded crash-recovery cycle and verifies the recovered
// state. The failure callback receives a formatted violation; tests pass
// t.Fatalf.
func Run(cfg Config, fail func(format string, args ...any)) Result {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Units <= 0 {
		cfg.Units = 40
	}
	if cfg.Shards > 1 {
		return runSharded(cfg, fail)
	}
	mem := faultfs.NewMemFS()
	plan := faultfs.NewPlan(cfg.Seed)
	plan.TransientProb = cfg.TransientProb
	plan.SetReadTransientProb(cfg.ReadTransientProb)
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	// Some seeds crash mid-workload, some run to completion and crash at
	// the end; both phases of the space matter.
	plan.CrashAfterWrites = 1 + seedRng.Int63n(300)

	db, err := openBackend(cfg, faultfs.Inject(faultfs.WithSyncLatency(mem, cfg.SyncLatency), plan))
	if err != nil {
		// The crash point can land inside Open itself; with nothing
		// acknowledged, any recoverable state is consistent.
		if !plan.Crashed() && !faultfs.IsTransient(err) {
			fail("seed %d: open failed without a crash: %v", cfg.Seed, err)
			return Result{}
		}
		db = nil
	}

	logs := make([]*workerLog, cfg.Workers)
	if db != nil {
		done := make(chan *workerLog, cfg.Workers)
		for w := 0; w < cfg.Workers; w++ {
			go func(w int) {
				done <- runWorker(db, cfg, w)
			}(w)
		}
		for range logs {
			l := <-done
			logs[l.worker] = l
		}
		plan.TripCrash() // end-of-run crash if the scheduled one never hit
		db.Close()       // the "dead" process's close attempts all fail
	} else {
		for w := range logs {
			logs[w] = &workerLog{worker: w}
		}
	}

	// Power loss: un-synced bytes tear away per the seeded schedule.
	mem.Crash(plan.TornTail())

	// Reboot on the surviving bytes — no fault injection this time.
	re, err := openBackend(cfg, mem)
	if err != nil {
		fail("seed %d: reopen after crash failed: %v", cfg.Seed, err)
		return Result{}
	}
	defer re.Close()

	recovered := dumpStore(re, cfg.Seed, fail)
	var total int
	for w, l := range logs {
		verifyWorker(cfg.Seed, w, l, recovered, fail)
		total += len(l.units)
	}
	// Every recovered key must belong to some worker's keyspace: recovery
	// must not invent data.
	for key := range recovered {
		if workerOf(key) < 0 || workerOf(key) >= cfg.Workers {
			fail("seed %d: recovered alien key %q", cfg.Seed, key)
		}
	}

	res := Result{Crashed: plan.Crashed(), UnitsRun: total}
	if sp, ok := db.(kv.StatsProvider); ok && db != nil {
		res.IORetries = sp.Stats().IORetries
	}
	return res
}

// runSharded executes one seeded crash-recovery cycle against a
// shard.Router. Each shard's filesystem carries its own seeded fault plan;
// a seeded victim shard trips the mid-workload crash, and power loss tears
// every shard's un-synced tail independently. Because a cross-shard batch
// commits per-shard groups (atomic within a shard, not across shards),
// recovery is verified per (writer, shard): each shard's slice of a
// writer's keyspace must match a prefix of that writer's shard-local unit
// sequence.
func runSharded(cfg Config, fail func(format string, args ...any)) Result {
	n := cfg.Shards
	mems := make([]*faultfs.MemFS, n)
	plans := make([]*faultfs.Plan, n)
	for i := range mems {
		mems[i] = faultfs.NewMemFS()
		plans[i] = faultfs.NewPlan(cfg.Seed*7919 + int64(i))
		plans[i].TransientProb = cfg.TransientProb
		plans[i].SetReadTransientProb(cfg.ReadTransientProb)
	}
	tripAll := func() {
		for _, p := range plans {
			p.TripCrash()
		}
	}
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	victim := seedRng.Intn(n)
	plans[victim].CrashAfterWrites = 1 + seedRng.Int63n(300)

	var db *shard.Router
	children := make([]kv.Store, n)
	for i := range children {
		child, err := openBackend(cfg, faultfs.Inject(faultfs.WithSyncLatency(mems[i], cfg.SyncLatency), plans[i]))
		if err != nil {
			// The victim's crash point can land inside its Open; with
			// nothing acknowledged anywhere, any recoverable state is
			// consistent. Kill the run before closing the shards that did
			// open, so their closes cannot sync state the dead process
			// never acknowledged.
			if !plans[i].Crashed() && !faultfs.IsTransient(err) {
				fail("seed %d: shard %d open failed without a crash: %v", cfg.Seed, i, err)
				return Result{}
			}
			tripAll()
			for _, c := range children[:i] {
				c.Close()
			}
			children = nil
			break
		}
		children[i] = child
	}
	if children != nil {
		r, err := shard.New(children, shard.Options{})
		if err != nil {
			fail("seed %d: shard router: %v", cfg.Seed, err)
			return Result{}
		}
		db = r
	}

	logs := make([]*workerLog, cfg.Workers)
	if db != nil {
		done := make(chan *workerLog, cfg.Workers)
		for w := 0; w < cfg.Workers; w++ {
			go func(w int) {
				done <- runWorker(db, cfg, w)
			}(w)
		}
		for range logs {
			l := <-done
			logs[l.worker] = l
		}
		tripAll() // end-of-run power loss hits every shard at once
		db.Close()
	} else {
		for w := range logs {
			logs[w] = &workerLog{worker: w}
		}
	}

	// Power loss: every shard's un-synced bytes tear away independently,
	// per its own seeded schedule.
	for i := range mems {
		mems[i].Crash(plans[i].TornTail())
	}

	// Reboot every shard on its surviving bytes — no fault injection.
	reChildren := make([]kv.Store, n)
	for i := range reChildren {
		c, err := openBackend(cfg, mems[i])
		if err != nil {
			fail("seed %d: shard %d reopen after crash failed: %v", cfg.Seed, i, err)
			for _, rc := range reChildren[:i] {
				rc.Close()
			}
			return Result{}
		}
		reChildren[i] = c
	}
	re, err := shard.New(reChildren, shard.Options{})
	if err != nil {
		fail("seed %d: shard router reopen: %v", cfg.Seed, err)
		return Result{}
	}
	defer re.Close()

	recovered := dumpStore(re, cfg.Seed, fail)
	var total int
	for w, l := range logs {
		for s := 0; s < n; s++ {
			verifyWorkerShard(cfg.Seed, w, s, l, re, recovered, fail)
		}
		total += len(l.units)
	}
	for key := range recovered {
		if workerOf(key) < 0 || workerOf(key) >= cfg.Workers {
			fail("seed %d: recovered alien key %q", cfg.Seed, key)
		}
	}

	res := Result{Crashed: plans[victim].Crashed(), UnitsRun: total}
	if db != nil {
		res.IORetries = db.Stats().IORetries
	}
	return res
}

// openBackend opens cfg.Backend over fsys with thresholds tiny enough
// that a small workload exercises the structural paths where durability
// bugs live: rotation, flush, and compaction for the LSM; generation
// compaction and the CURRENT swap for the flat store.
func openBackend(cfg Config, fsys faultfs.FS) (kv.Store, error) {
	switch cfg.Backend {
	case "", "lsm":
		// Default to the serial scheduler: crash-point replay is only
		// bit-identical when flushes and compactions share one write
		// schedule. Concurrent widths opt in per seed.
		cw := cfg.CompactionWorkers
		if cw == 0 {
			cw = 1
		}
		return lsm.Open("crashdb", lsm.Options{
			MemtableBytes:         2 << 10,
			MaxImmutableMemtables: 2,
			L0CompactionTrigger:   2,
			LevelBaseBytes:        8 << 10,
			LevelMultiplier:       4,
			MaxLevels:             4,
			Seed:                  cfg.Seed,
			FS:                    fsys,
			RetryAttempts:         10,
			RetryBackoff:          time.Microsecond,
			BlockCacheBytes:       cfg.BlockCacheBytes,
			CompactionWorkers:     cw,
			// Tiny split threshold so even this workload's compactions
			// fan into range sub-compactions under the fault plan.
			SubCompactionBytes: 4 << 10,
		})
	case "flat":
		return flatstore.Open("crashdb", flatstore.Options{
			FS:                    fsys,
			RetryAttempts:         10,
			RetryBackoff:          time.Microsecond,
			CompactAfterDeadBytes: 2 << 10,
		})
	default:
		return nil, fmt.Errorf("crashtest: unknown backend %q", cfg.Backend)
	}
}

// runWorker drives one writer over its disjoint keyspace until its unit
// budget is spent or the store fails (crash point, degraded mode).
func runWorker(db kv.Store, cfg Config, w int) *workerLog {
	l := &workerLog{worker: w}
	rng := rand.New(rand.NewSource(cfg.Seed*1009 + int64(w)))
	for i := 0; i < cfg.Units; i++ {
		if rng.Intn(10) < 6 {
			// Batch: group commit, synced, acknowledged-durable on success.
			n := 1 + rng.Intn(6)
			u := unit{}
			b := db.NewBatch()
			for j := 0; j < n; j++ {
				o := genOp(rng, w, i*10+j)
				u.ops = append(u.ops, o)
				if o.del {
					b.Delete([]byte(o.key))
				} else {
					b.Put([]byte(o.key), []byte(o.value))
				}
			}
			err := b.Write()
			l.units = append(l.units, u)
			if err != nil {
				return l // crash or degrade: the tail unit stays un-acked
			}
			l.units[len(l.units)-1].acked = true
			l.floor = len(l.units)
		} else {
			// Single op: accepted into WAL buffer + memtable, not synced.
			o := genOp(rng, w, i*10)
			var err error
			if o.del {
				err = db.Delete([]byte(o.key))
			} else {
				err = db.Put([]byte(o.key), []byte(o.value))
			}
			l.units = append(l.units, unit{ops: []op{o}})
			if err != nil {
				return l
			}
		}
	}
	return l
}

// genOp draws one op in worker w's keyspace. Values encode (worker, step)
// so every overwrite changes the state and misordered recovery is visible.
func genOp(rng *rand.Rand, w, step int) op {
	key := fmt.Sprintf("w%02d-k%03d", w, rng.Intn(40))
	if rng.Intn(4) == 0 {
		return op{del: true, key: key}
	}
	pad := strings.Repeat("x", rng.Intn(48))
	return op{key: key, value: fmt.Sprintf("v-%d-%d-%s", w, step, pad)}
}

// workerOf parses the owning worker from a key, or -1.
func workerOf(key string) int {
	var w int
	if _, err := fmt.Sscanf(key, "w%02d-", &w); err != nil {
		return -1
	}
	return w
}

// dumpStore materializes the recovered store through a full scan, checking
// the iterator is strictly ascending and agrees with point reads.
func dumpStore(db kv.Store, seed int64, fail func(string, ...any)) map[string]string {
	out := make(map[string]string)
	it := db.NewIterator(nil, nil)
	defer it.Release()
	prev := ""
	for it.Next() {
		k, v := string(it.Key()), string(it.Value())
		if prev != "" && k <= prev {
			fail("seed %d: iterator out of order: %q after %q", seed, k, prev)
		}
		prev = k
		out[k] = v
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			fail("seed %d: Get(%q) = %q, %v disagrees with scan %q",
				seed, k, got, err, v)
		}
	}
	if err := it.Error(); err != nil {
		fail("seed %d: recovered iterator error: %v", seed, err)
	}
	return out
}

// verifyWorker checks prefix consistency for one writer: the recovered
// slice of its keyspace must equal the model after P whole units, for some
// P between the acknowledged floor and the end of its attempt log.
func verifyWorker(seed int64, w int, l *workerLog, recovered map[string]string, fail func(string, ...any)) {
	prefix := fmt.Sprintf("w%02d-", w)
	got := make(map[string]string)
	for k, v := range recovered {
		if strings.HasPrefix(k, prefix) {
			got[k] = v
		}
	}
	if model, ok := checkPrefix(l.units, l.floor, got); !ok {
		fail("seed %d worker %d: recovered state matches no prefix in [%d, %d]\n%s",
			seed, w, l.floor, len(l.units), diffState(model, got))
	}
}

// verifyWorkerShard checks prefix consistency for one (writer, shard)
// pair. A cross-shard batch commits per-shard groups, so atomicity — and
// with it prefix consistency — holds per shard: the recovered slice of
// worker w's keyspace living on shard s must equal the model after some
// prefix of the writer's shard-s sub-units. An acked batch syncs only the
// shards it actually wrote, so the durability floor on shard s advances
// only past acked units that touched s.
func verifyWorkerShard(seed int64, w, s int, l *workerLog, r *shard.Router, recovered map[string]string, fail func(string, ...any)) {
	prefix := fmt.Sprintf("w%02d-", w)
	got := make(map[string]string)
	for k, v := range recovered {
		if strings.HasPrefix(k, prefix) && r.ShardOf([]byte(k)) == s {
			got[k] = v
		}
	}
	var units []unit
	floor := 0
	for _, u := range l.units {
		var ops []op
		for _, o := range u.ops {
			if r.ShardOf([]byte(o.key)) == s {
				ops = append(ops, o)
			}
		}
		if len(ops) == 0 {
			continue
		}
		units = append(units, unit{ops: ops, acked: u.acked})
		if u.acked {
			floor = len(units)
		}
	}
	if model, ok := checkPrefix(units, floor, got); !ok {
		fail("seed %d worker %d shard %d: recovered state matches no shard-local prefix in [%d, %d]\n%s",
			seed, w, s, floor, len(units), diffState(model, got))
	}
}

// checkPrefix searches for a prefix P in [floor, len(units)] whose model
// equals got. On failure it returns the full model (every unit applied),
// the most useful diff anchor.
func checkPrefix(units []unit, floor int, got map[string]string) (map[string]string, bool) {
	model := make(map[string]string)
	apply := func(u unit) {
		for _, o := range u.ops {
			if o.del {
				delete(model, o.key)
			} else {
				model[o.key] = o.value
			}
		}
	}
	for i := 0; i < floor; i++ {
		apply(units[i])
	}
	for p := floor; ; p++ {
		if mapsEqual(model, got) {
			return model, true
		}
		if p >= len(units) {
			return model, false
		}
		apply(units[p])
	}
}

// mapsEqual reports deep equality of two string maps.
func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// diffState renders a compact model-vs-recovered diff (against the full
// model, the most useful anchor) for failure messages.
func diffState(model, got map[string]string) string {
	var keys []string
	seen := map[string]bool{}
	for k := range model {
		keys, seen[k] = append(keys, k), true
	}
	for k := range got {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		mv, mok := model[k]
		gv, gok := got[k]
		if mok && gok && mv == gv {
			continue
		}
		fmt.Fprintf(&sb, "  %q: model=%q(%v) recovered=%q(%v)\n", k, mv, mok, gv, gok)
	}
	return sb.String()
}
