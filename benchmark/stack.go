package main

// stack.go is the only file of the benchmark that calls into the repo's
// packages (lab, policy, backends, shard, hybrid, kvnet, lsm, faultfs). A
// signature change in any of them is a one-file change here. Layer metrics
// are read through checked type assertions: when a composition stops
// returning the type the benchmark expects, opening the stack fails instead
// of the metric silently reading zero.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"ethkv/internal/backends"
	"ethkv/internal/chain"
	"ethkv/internal/faultfs"
	"ethkv/internal/hybrid"
	"ethkv/internal/kv"
	"ethkv/internal/kvnet"
	"ethkv/internal/lab"
	"ethkv/internal/lsm"
	"ethkv/internal/obs"
	"ethkv/internal/policy"
	"ethkv/internal/shard"
	"ethkv/internal/trace"
)

const (
	// stackShards is the shard count of the policy-routed compositions.
	stackShards = 2
	// smallCacheBytes is mixed_lsm_local's block cache: far below the
	// ~22 MiB of live data, so block reads reach the filesystem.
	smallCacheBytes = 4 << 20
	// syncLatency is the modeled device cost of one durability barrier in
	// blockbatch_wal_lsm (experiment E17's model).
	syncLatency = 2 * time.Millisecond
)

// scale sizes the generated trace. The benchmark always runs benchScale;
// the tests run a toy scale.
type scale struct {
	blocks    int
	accounts  int // 0 keeps chain.DefaultWorkload's population
	contracts int
}

var benchScale = scale{blocks: 100}

// generateTrace runs the lab pipeline on the in-memory store and returns the
// KV operations Geth's storage interface saw, genesis bootstrap included
// (without it a fifth of the replayed reads would miss).
func generateTrace(seed int64, sc scale) ([]trace.Op, error) {
	wl := chain.DefaultWorkload()
	wl.Seed = seed
	if sc.accounts > 0 {
		wl.Accounts = sc.accounts
	}
	if sc.contracts > 0 {
		wl.Contracts = sc.contracts
	}
	res, err := lab.Run(lab.Config{Mode: lab.Bare, Blocks: sc.blocks, Workload: wl, TraceBootstrap: true})
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	return res.Ops, nil
}

// routePolicy is the storage policy the sharded compositions are opened with.
type routePolicy = policy.Policy

// derivePolicy turns the trace's class census into a storage policy.
func derivePolicy(ops []trace.Op) *routePolicy {
	return policy.Derive(policy.CollectCensus(ops))
}

// stack is one composition of the repo's layers, opened and ready.
type stack struct {
	front kv.Store // what the clients call: a kvnet client or the local store
	local kv.Store // the store in this process that front reaches

	// kindOf maps a policy route to its backend kind (nil for a plain LSM,
	// whose counters are all "lsm").
	kindOf   map[string]string
	children []*hybrid.Store // the shard router's children, unwrapped
	router   *shard.Router

	client    *kvnet.Client
	server    *kvnet.Server
	serverReg *obs.Registry

	dir   string         // on-disk root ("" on MemFS)
	mem   *faultfs.MemFS // blockbatch_wal_lsm only
	crash *faultfs.Plan  // trips the power cut
	fsCnt *countingFS
}

// flush settles buffered writes and background work on the local store.
func (s *stack) flush() error {
	f, ok := s.local.(interface{ Flush() error })
	if !ok {
		return fmt.Errorf("stack: %T has no Flush", s.local)
	}
	return f.Flush()
}

func (s *stack) stats() kv.Stats {
	return s.local.(kv.StatsProvider).Stats()
}

// statsByKind splits the store's counters by backend kind, so lsm.*,
// flatstore.* and hashstore.* metrics each read their own layer.
func (s *stack) statsByKind() map[string]kv.Stats {
	if s.children == nil {
		return map[string]kv.Stats{"lsm": s.stats()}
	}
	out := make(map[string]kv.Stats)
	for _, c := range s.children {
		for route, st := range c.BackendStats() {
			kind := s.kindOf[route]
			merged := out[kind]
			merged.Merge(st)
			out[kind] = merged
		}
	}
	return out
}

// shardStats returns each shard's counters (nil without a router).
func (s *stack) shardStats() []kv.Stats {
	if s.router == nil {
		return nil
	}
	return s.router.ShardStats()
}

// diskBytes is the space the store occupies after settling.
func (s *stack) diskBytes() (int64, error) {
	var total int64
	if s.mem != nil {
		for _, p := range s.mem.Paths() {
			f, err := s.mem.Open(p)
			if err != nil {
				return 0, err
			}
			n, err := f.Size()
			f.Close()
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	}
	err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil // a compacted-away table, deleted under the walk
		}
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// close shuts the composition down front to back.
func (s *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.client != nil {
		keep(s.client.Close())
	}
	if s.server != nil {
		keep(s.server.Close())
	}
	keep(s.local.Close())
	return first
}

// openLSMLocal is mixed_lsm_local's composition: the factory's LSM with a
// block cache far smaller than the data.
func openLSMLocal(dir string) (*stack, error) {
	st, err := backends.Open("lsm", dir, backends.Options{BlockCacheBytes: smallCacheBytes})
	if err != nil {
		return nil, err
	}
	if _, ok := st.(*lsm.DB); !ok {
		st.Close()
		return nil, fmt.Errorf("stack: backends.Open(lsm) returned %T, want *lsm.DB", st)
	}
	return &stack{front: st, local: st, dir: dir}, nil
}

// openPolicyStack opens the sharded, policy-routed store. wrapChild, when
// set, is placed around every shard child (the traced run's shard_child
// seam); the router is then composed by hand from one backends.Open per
// child, which gives each child its own compaction pool.
func openPolicyStack(dir string, pol *routePolicy, wrapChild func(i int, child kv.Store) kv.Store) (*stack, error) {
	s := &stack{dir: dir, kindOf: make(map[string]string)}
	for name, spec := range pol.Routes {
		s.kindOf[name] = spec.Kind
	}
	var children []kv.Store
	if wrapChild == nil {
		st, err := backends.Open("hybrid", dir, backends.Options{Shards: stackShards, Policy: pol})
		if err != nil {
			return nil, err
		}
		router, ok := st.(*shard.Router)
		if !ok {
			st.Close()
			return nil, fmt.Errorf("stack: backends.Open(hybrid, shards) returned %T, want *shard.Router", st)
		}
		s.router = router
		for i := 0; i < router.Shards(); i++ {
			children = append(children, router.Child(i))
		}
	} else {
		wrapped := make([]kv.Store, stackShards)
		for i := range wrapped {
			child, err := backends.Open("hybrid", filepath.Join(dir, fmt.Sprintf("shard-%02d", i)), backends.Options{Policy: pol})
			if err != nil {
				for _, c := range children {
					c.Close()
				}
				return nil, err
			}
			children = append(children, child)
			wrapped[i] = wrapChild(i, child)
		}
		router, err := shard.New(wrapped, shard.Options{})
		if err != nil {
			return nil, err
		}
		s.router = router
	}
	for _, c := range children {
		h, ok := c.(*hybrid.Store)
		if !ok {
			s.router.Close()
			return nil, fmt.Errorf("stack: shard child is %T, want *hybrid.Store", c)
		}
		s.children = append(s.children, h)
	}
	s.front, s.local = s.router, s.router
	return s, nil
}

// serve puts the stack's local store behind a kvnet server on loopback and
// makes a two-connection client its front. wrapServed, when set, is placed
// around the store handed to the server (the server_store seam).
func (s *stack) serve(wrapServed func(kv.Store) kv.Store) error {
	served := s.local
	if wrapServed != nil {
		served = wrapServed(served)
	}
	s.serverReg = obs.NewRegistry()
	s.server = kvnet.NewServer(served, kvnet.ServerOptions{
		Registry: s.serverReg,
		Logf:     func(format string, args ...any) { fmt.Fprintf(os.Stderr, "kvnet: "+format+"\n", args...) },
	})
	addr, err := s.server.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.client, err = kvnet.Dial(addr, kvnet.ClientOptions{Conns: 2})
	if err != nil {
		s.server.Close()
		s.server = nil
		return err
	}
	s.front = s.client
	return nil
}

// netCounts are the kvnet client's transport counters.
type netCounts struct {
	frames, opFrames, pointOps, bytes int64
}

func (a netCounts) sub(b netCounts) netCounts {
	return netCounts{a.frames - b.frames, a.opFrames - b.opFrames, a.pointOps - b.pointOps, a.bytes - b.bytes}
}

// netStats returns the client's transport counters (zero when not served).
func (s *stack) netStats() netCounts {
	if s.client == nil {
		return netCounts{}
	}
	n := s.client.NetStats()
	return netCounts{
		frames: int64(n.FramesSent), opFrames: int64(n.OpFrames), pointOps: int64(n.OpsSent),
		bytes: int64(n.BytesSent + n.BytesRecv),
	}
}

// serverGetP99us reads the server's own per-op latency histogram.
func (s *stack) serverGetP99us() float64 {
	if s.serverReg == nil {
		return 0
	}
	h, ok := s.serverReg.Snapshot().Histograms[obs.Name("ethkv_server_op_latency_ns", "op", "get")]
	if !ok || h.Count == 0 {
		return 0
	}
	return h.Quantile(0.99) / 1e3
}

// walLSMOptions are the factory's LSM sizes with the WAL left on: the only
// durable configuration (backends.Open hard-codes DisableWAL).
func walLSMOptions(fsys faultfs.FS) lsm.Options {
	return lsm.Options{
		MemtableBytes:       256 << 10,
		L0CompactionTrigger: 4,
		LevelBaseBytes:      1 << 20,
		FS:                  fsys,
	}
}

const walLSMDir = "wal-lsm"

// openWALLSM is blockbatch_wal_lsm's composition: an LSM with its WAL on,
// over an in-memory filesystem whose every Sync costs syncLatency, behind
// the benchmark's counting wrapper.
func openWALLSM(rec *recorder) (*stack, error) {
	mem := faultfs.NewMemFS()
	plan := faultfs.NewPlan(1) // injects nothing until the crash is tripped
	cnt := &countingFS{inner: faultfs.WithSyncLatency(faultfs.Inject(mem, plan), syncLatency), rec: rec}
	db, err := lsm.Open(walLSMDir, walLSMOptions(cnt))
	if err != nil {
		return nil, err
	}
	return &stack{front: db, local: db, mem: mem, crash: plan, fsCnt: cnt}, nil
}

// crashAndReopen cuts the power under the open store: every later write of
// the dead handle fails, un-synced bytes are torn away, and the store is
// reopened on what survived as the stack's new front. The caller checks the
// recovered contents.
func (s *stack) crashAndReopen() error {
	s.crash.TripCrash()
	s.local.Close() // the dead process's close; its writes all fail
	s.mem.Crash(s.crash.TornTail())
	db, err := lsm.Open(walLSMDir, walLSMOptions(s.mem))
	if err != nil {
		return err
	}
	s.front, s.local = db, db
	return nil
}

// countingFS counts what the LSM asks of its filesystem: the device-level
// view of blockbatch_wal_lsm. It is part of that workload in both the
// untraced and the traced run, so the two stay comparable.
type countingFS struct {
	inner faultfs.FS
	rec   *recorder // the traced run's fs seam; nil otherwise

	walSyncs, otherSyncs atomic.Int64
	syncWaitNs           atomic.Int64
	walBytes, sstBytes   atomic.Int64
	otherBytes           atomic.Int64
	writeCalls           atomic.Int64
}

type fileClass uint8

const (
	fileOther fileClass = iota
	fileWAL
	fileSST
)

func classifyFile(path string) fileClass {
	switch {
	case strings.HasSuffix(path, ".log"):
		return fileWAL
	case strings.HasSuffix(path, ".sst"):
		return fileSST
	}
	return fileOther
}

func (c *countingFS) wrap(path string, f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, class: classifyFile(path)}, nil
}

func (c *countingFS) MkdirAll(dir string) error { return c.inner.MkdirAll(dir) }
func (c *countingFS) Create(path string) (faultfs.File, error) {
	f, err := c.inner.Create(path)
	return c.wrap(path, f, err)
}
func (c *countingFS) OpenAppend(path string) (faultfs.File, error) {
	f, err := c.inner.OpenAppend(path)
	return c.wrap(path, f, err)
}
func (c *countingFS) Open(path string) (faultfs.File, error) { return c.inner.Open(path) }
func (c *countingFS) ReadFile(path string) ([]byte, error)   { return c.inner.ReadFile(path) }
func (c *countingFS) Rename(oldpath, newpath string) error   { return c.inner.Rename(oldpath, newpath) }
func (c *countingFS) Remove(path string) error               { return c.inner.Remove(path) }
func (c *countingFS) Glob(pattern string) ([]string, error)  { return c.inner.Glob(pattern) }

type countingFile struct {
	faultfs.File
	fs    *countingFS
	class fileClass
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	if rec := f.fs.rec; rec != nil {
		end := time.Now()
		rec.record(seamFS, opWrite, int(f.class), start, end, end.Sub(start), n)
	}
	f.fs.writeCalls.Add(1)
	switch f.class {
	case fileWAL:
		f.fs.walBytes.Add(int64(n))
	case fileSST:
		f.fs.sstBytes.Add(int64(n))
	default:
		f.fs.otherBytes.Add(int64(n))
	}
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	end := time.Now()
	f.fs.syncWaitNs.Add(int64(end.Sub(start)))
	if rec := f.fs.rec; rec != nil {
		rec.record(seamFS, opSync, int(f.class), start, end, end.Sub(start), 0)
	}
	if f.class == fileWAL {
		f.fs.walSyncs.Add(1)
	} else {
		f.fs.otherSyncs.Add(1)
	}
	return err
}

// fsCounts is a snapshot of a countingFS.
type fsCounts struct {
	walSyncs, otherSyncs int64
	syncWaitNs           int64
	walBytes, sstBytes   int64
	otherBytes           int64
	writeCalls           int64
}

func (c *countingFS) snapshot() fsCounts {
	if c == nil {
		return fsCounts{}
	}
	return fsCounts{
		walSyncs: c.walSyncs.Load(), otherSyncs: c.otherSyncs.Load(),
		syncWaitNs: c.syncWaitNs.Load(),
		walBytes:   c.walBytes.Load(), sstBytes: c.sstBytes.Load(),
		otherBytes: c.otherBytes.Load(), writeCalls: c.writeCalls.Load(),
	}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		walSyncs: a.walSyncs - b.walSyncs, otherSyncs: a.otherSyncs - b.otherSyncs,
		syncWaitNs: a.syncWaitNs - b.syncWaitNs,
		walBytes:   a.walBytes - b.walBytes, sstBytes: a.sstBytes - b.sstBytes,
		otherBytes: a.otherBytes - b.otherBytes, writeCalls: a.writeCalls - b.writeCalls,
	}
}
