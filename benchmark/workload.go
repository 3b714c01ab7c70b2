package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ethkv/internal/kv"
)

// workload is one composition of the stack plus the load put on it. The
// reason each exists is recorded in BENCHMARK.json and the README.
type workload struct {
	name    string
	clients int
	mode    planMode
	sweep   bool // every pass of a client ends with one full ordered scan
	served  bool // clients reach the store through kvnet
	sharded bool // the store is the shard router over policy-routed children
	durable bool // WAL on; the run ends with a crash and a reopen
	open    func(dir string, in *input, rec *recorder) (*stack, error)
}

func openPolicy(dir string, in *input, rec *recorder) (*stack, error) {
	var wrapChild func(int, kv.Store) kv.Store
	if rec != nil {
		wrapChild = func(i int, child kv.Store) kv.Store { return rec.wrap(seamShardChild, i, child) }
	}
	return openPolicyStack(dir, in.policy(), wrapChild)
}

var workloads = []workload{
	{
		name: "mixed_lsm_local", clients: 1,
		mode: planMode{reads: true, scans: true, writes: true},
		open: func(dir string, _ *input, _ *recorder) (*stack, error) { return openLSMLocal(dir) },
	},
	{
		name: "mixed_stack_served", clients: 2, served: true, sharded: true,
		mode: planMode{reads: true, scans: true, writes: true, batched: true},
		open: func(dir string, in *input, rec *recorder) (*stack, error) {
			s, err := openPolicy(dir, in, rec)
			if err != nil {
				return nil, err
			}
			var wrapServed func(kv.Store) kv.Store
			if rec != nil {
				wrapServed = func(st kv.Store) kv.Store { return rec.wrap(seamServerStore, 0, st) }
			}
			if err := s.serve(wrapServed); err != nil {
				s.close()
				return nil, err
			}
			return s, nil
		},
	},
	{
		name: "readscan_stack_local", clients: 2, sharded: true, sweep: true,
		mode: planMode{reads: true},
		open: openPolicy,
	},
	{
		name: "blockbatch_wal_lsm", clients: 2, durable: true,
		mode: planMode{writes: true, batched: true},
		open: func(_ string, _ *input, rec *recorder) (*stack, error) { return openWALLSM(rec) },
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// latency sample classes.
const (
	latRead = iota
	latWrite
	latScan
	numLat
)

// latCap is the per-client sample capacity of a latency class the workload
// uses, allocated before the timed phase: room for 400k calls/s per client
// over a ten-second run. A client that outruns it keeps counting ops and
// counts the calls it could not sample; the run's summary line prints them.
const latCap = 4 << 20

// client is one closed-loop caller: it issues its next call when the
// previous one has returned.
type client struct {
	id     int
	in     *input
	store  kv.Store
	plan   plan
	expect []int32 // per op: the write a read must observe
	sweep  bool
	buf    []byte

	lat [numLat][]uint32

	ops       int64 // trace ops completed, batched ops counted one by one
	unsampled int64 // calls made after a sample array filled up
	failed    int64
	passes    int
	stopUnit  int // units completed in the unfinished pass
	firstErr  error

	sweepPairs int64
	sweepNs    int64
}

func newClient(id int, in *input, store kv.Store, p plan, wl *workload) *client {
	c := &client{id: id, in: in, store: store, plan: p, sweep: wl.sweep, buf: make([]byte, 1<<16)}
	c.expect = in.expect
	if !wl.mode.writes {
		c.expect = in.expectStatic
	}
	if wl.mode.reads {
		c.lat[latRead] = make([]uint32, 0, latCap)
	}
	if wl.mode.writes {
		c.lat[latWrite] = make([]uint32, 0, latCap)
	}
	if wl.mode.scans {
		c.lat[latScan] = make([]uint32, 0, latCap>>6)
	}
	return c
}

func (c *client) fail(n int, err error) {
	c.failed += int64(n)
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// run replays the client's plan pass after pass until the deadline. One
// clock reading per call: the end of call i is the start of call i+1.
func (c *client) run(deadline time.Time) {
	if len(c.plan.units) == 0 && !c.sweep {
		return
	}
	t := time.Now()
	for {
		for u, un := range c.plan.units {
			if !t.Before(deadline) {
				c.stopUnit = u
				return
			}
			class := c.do(un)
			now := time.Now()
			if s := c.lat[class]; len(s) < cap(s) {
				c.lat[class] = append(s, clampNs(int64(now.Sub(t))))
			} else {
				c.unsampled++
			}
			t = now
		}
		c.passes++
		if c.sweep {
			if !t.Before(deadline) {
				return
			}
			c.doSweep()
			now := time.Now()
			c.sweepNs += int64(now.Sub(t))
			t = now
		}
	}
}

// do issues one unit and returns its latency class.
func (c *client) do(un unit) int {
	in := c.in
	i := int(c.plan.ops[un.lo])
	op := in.ops[i]
	n := int(un.hi - un.lo)
	switch un.kind {
	case unitGet:
		v, err := c.store.Get(op.Key)
		switch {
		case err != nil && !errors.Is(err, kv.ErrNotFound):
			c.fail(1, fmt.Errorf("get: %w", err))
		case !in.checkRead(c.expect[i], v, err == nil):
			c.fail(1, fmt.Errorf("get of op %d: found=%v len=%d, want the value of write %d", i, err == nil, len(v), c.expect[i]-1))
		}
		c.ops++
		return latRead
	case unitPut:
		c.buf = in.value(i, c.buf[:cap(c.buf)])
		if err := c.store.Put(op.Key, c.buf); err != nil {
			c.fail(1, fmt.Errorf("put: %w", err))
		}
		c.ops++
		return latWrite
	case unitDelete:
		if err := c.store.Delete(op.Key); err != nil {
			c.fail(1, fmt.Errorf("delete: %w", err))
		}
		c.ops++
		return latWrite
	case unitScan:
		// Scans in the workload touch a bounded neighbourhood.
		it := c.store.NewIterator(op.Key, nil)
		for k := 0; k < 32 && it.Next(); k++ {
		}
		err := it.Error()
		it.Release()
		if err != nil {
			c.fail(1, fmt.Errorf("scan: %w", err))
		}
		c.ops++
		return latScan
	default: // unitBatch
		b := c.store.NewBatch()
		err := in.applyWrites(b, c.plan.ops[un.lo:un.hi])
		if err == nil {
			err = b.Write()
		}
		if err != nil {
			c.fail(n, fmt.Errorf("batch: %w", err))
		}
		c.ops += int64(n)
		return latWrite
	}
}

// doSweep walks every pair through the merged iterators and checks the
// count: the store is static in the workload that sweeps. (Order is not
// checked: the hash-indexed route does not promise it on a full scan.)
func (c *client) doSweep() {
	it := c.store.NewIterator(nil, nil)
	pairs := 0
	for it.Next() {
		pairs++
	}
	err := it.Error()
	it.Release()
	switch {
	case err != nil:
		c.fail(1, fmt.Errorf("sweep: %w", err))
	case pairs != c.in.livePairs:
		c.fail(1, fmt.Errorf("sweep returned %d pairs, want %d", pairs, c.in.livePairs))
	}
	c.sweepPairs += int64(pairs)
	c.ops++
}

// cappedBatch is a kv.Writer that commits its batch whenever it reaches the
// block-commit size.
type cappedBatch struct{ b kv.Batch }

func (c cappedBatch) flushIfFull() error {
	if c.b.ValueSize() < batchCapBytes {
		return nil
	}
	if err := c.b.Write(); err != nil {
		return err
	}
	c.b.Reset()
	return nil
}

func (c cappedBatch) Put(key, value []byte) error {
	if err := c.b.Put(key, value); err != nil {
		return err
	}
	return c.flushIfFull()
}

func (c cappedBatch) Delete(key []byte) error {
	if err := c.b.Delete(key); err != nil {
		return err
	}
	return c.flushIfFull()
}

// preload replays every write of the trace into s as block-sized batches and
// settles the store, so the timed phase starts from the state a full pass
// leaves behind, with caches and levels in the shape the workload gives them.
func (in *input) preload(s *stack) error {
	w := cappedBatch{b: s.local.NewBatch()}
	if err := in.applyWrites(w, in.every()); err != nil {
		return err
	}
	if err := w.b.Write(); err != nil {
		return err
	}
	return s.flush()
}

// stateDigest is the order-independent content digest replaybench -census
// uses: the XOR of SHA-256 over every pair.
func stateDigest(s kv.Iterable) (digest [sha256.Size]byte, pairs int, err error) {
	it := s.NewIterator(nil, nil)
	defer it.Release()
	var lenBuf [8]byte
	h := sha256.New()
	var sum []byte
	for it.Next() {
		h.Reset()
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(it.Key())))
		h.Write(lenBuf[:])
		h.Write(it.Key())
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(it.Value())))
		h.Write(lenBuf[:])
		h.Write(it.Value())
		sum = h.Sum(sum[:0])
		for i, b := range sum {
			digest[i] ^= b
		}
		pairs++
	}
	return digest, pairs, it.Error()
}

// prepared is a workload set up and ready for its timed phase.
type prepared struct {
	wl      *workload
	in      *input
	rec     *recorder
	stack   *stack
	clients []*client
	dir     string
}

// prepare opens the workload's stack under dir, preloads it and builds the
// clients. Everything here is set-up time.
func prepare(wl *workload, in *input, dir string, traced bool) (*prepared, error) {
	p := &prepared{wl: wl, in: in, dir: dir}
	if traced {
		p.rec = newRecorder()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	plans := in.plans(wl.clients, wl.mode)
	s, err := wl.open(dir, in, p.rec)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", wl.name, err)
	}
	p.stack = s
	if err := in.preload(s); err != nil {
		p.discard()
		return nil, fmt.Errorf("%s: preload: %w", wl.name, err)
	}
	for id := range plans {
		front := s.front
		if p.rec != nil {
			front = p.rec.wrap(seamClient, id, front)
		}
		p.clients = append(p.clients, newClient(id, in, front, plans[id], wl))
	}
	if p.rec != nil {
		p.rec.reset()
	}
	return p, nil
}

// discard closes the stack and removes what it wrote.
func (p *prepared) discard() error {
	err := p.stack.close()
	if rmErr := os.RemoveAll(p.dir); err == nil {
		err = rmErr
	}
	return err
}

// snapshot is every counter the benchmark reads, at one instant.
type snapshot struct {
	at     time.Time
	cpuS   float64
	stats  kv.Stats
	kinds  map[string]kv.Stats
	shards []kv.Stats
	net    netCounts
	fs     fsCounts
	mem    runtime.MemStats
}

func takeSnapshot(s *stack) snapshot {
	sn := snapshot{
		stats: s.stats(), kinds: s.statsByKind(), shards: s.shardStats(),
		net: s.netStats(), fs: s.fsCnt.snapshot(),
	}
	runtime.ReadMemStats(&sn.mem)
	sn.cpuS = cpuSeconds()
	sn.at = time.Now()
	return sn
}

// phaseResult is one timed phase, measured and verified.
type phaseResult struct {
	wl            *workload
	in            *input
	rec           *recorder
	clients       []*client
	before, after snapshot
	settleS       float64
	diskBytes     int64
	serverGetP99  float64
	rssResettable bool
	peakRSSMiB    float64

	attempted, failed int64
	problems          []string
}

func (r *phaseResult) wallS() float64 { return r.after.at.Sub(r.before.at).Seconds() }

func (r *phaseResult) unsampled() int64 {
	var n int64
	for _, c := range r.clients {
		n += c.unsampled
	}
	return n
}

func (r *phaseResult) ops() int64 {
	var n int64
	for _, c := range r.clients {
		n += c.ops
	}
	return n
}

// runTimed runs the timed phase of a prepared workload for the given
// duration, verifies the outcome and tears the stack down. corrupt, used by
// the tests, damages the final state before it is checked.
func (p *prepared) runTimed(seconds float64, corrupt bool) (*phaseResult, error) {
	s := p.stack
	r := &phaseResult{wl: p.wl, in: p.in, rec: p.rec, clients: p.clients}
	// Hand set-up's garbage back to the kernel, so the peak that is reported
	// belongs to the timed phase.
	debug.FreeOSMemory()
	r.rssResettable = resetPeakRSS()
	r.before = takeSnapshot(s)

	deadline := r.before.at.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(deadline)
		}(c)
	}
	wg.Wait()
	if p.rec != nil {
		p.rec.stop() // verification traffic is not part of the trace
	}
	// The timed phase ends when background work has settled, so that a
	// store cannot look fast by leaving its compaction debt unpaid.
	settleStart := time.Now()
	flushErr := s.flush()
	r.settleS = time.Since(settleStart).Seconds()
	r.after = takeSnapshot(s)
	r.peakRSSMiB = peakRSSMiB()
	r.serverGetP99 = s.serverGetP99us()

	for _, c := range p.clients {
		r.attempted += c.ops
		r.failed += c.failed
		if c.firstErr != nil {
			r.problems = append(r.problems, fmt.Sprintf("client %d: %v", c.id, c.firstErr))
		}
	}
	if flushErr != nil {
		r.problems = append(r.problems, fmt.Sprintf("final flush: %v", flushErr))
	}
	if corrupt {
		if err := s.local.Put([]byte("benchmark-stray-key"), []byte("stray")); err != nil {
			return nil, err
		}
	}
	stateOK := flushErr == nil && p.verifyAgainst(r, s.front, "final state", 0)
	// Measured after the state scan: the LSM deletes compacted-away tables
	// a moment after Flush returns.
	var err error
	if r.diskBytes, err = s.diskBytes(); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("disk usage: %v", err))
	}
	if stateOK && p.wl.durable {
		stateOK = p.verifyDurability(r)
	}
	if !stateOK {
		// A wrong final state voids every op that led to it.
		r.failed = r.attempted
	}
	if err := p.discard(); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("close: %v", err))
	}
	return r, nil
}

// oracle builds the expected state on the in-memory reference store: a full
// pass, then the part of the unfinished pass each client completed.
func (p *prepared) oracle(extraUnits int) (*kv.MemStore, error) {
	want := kv.NewMemStore()
	if err := p.in.applyWrites(want, p.in.every()); err != nil {
		return nil, err
	}
	for _, c := range p.clients {
		done := c.stopUnit + extraUnits
		if done > len(c.plan.units) {
			done = len(c.plan.units)
		}
		if done == 0 {
			continue
		}
		if err := p.in.applyWrites(want, c.plan.ops[:c.plan.units[done-1].hi]); err != nil {
			return nil, err
		}
	}
	return want, nil
}

// verifyAgainst compares got's content with the oracle's, the oracle having
// applied extraUnits more units per client than the timed phase completed.
func (p *prepared) verifyAgainst(r *phaseResult, got kv.Iterable, what string, extraUnits int) bool {
	want, err := p.oracle(extraUnits)
	if err != nil {
		r.problems = append(r.problems, fmt.Sprintf("%s: oracle: %v", what, err))
		return false
	}
	wantDigest, wantPairs, _ := stateDigest(want)
	gotDigest, gotPairs, err := stateDigest(got)
	if err != nil {
		r.problems = append(r.problems, fmt.Sprintf("%s: scan: %v", what, err))
		return false
	}
	if gotDigest != wantDigest || gotPairs != wantPairs {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d pairs digest %x, oracle has %d pairs digest %x",
			what, gotPairs, gotDigest[:8], wantPairs, wantDigest[:8]))
		return false
	}
	return true
}

// durabilityTailUnits is how many more batches each writer commits, after
// the timed phase, before the power is cut: they sit in the WAL only.
const durabilityTailUnits = 8

// verifyDurability commits a few more acknowledged batches, crashes the
// filesystem with a torn tail under the open store, reopens it and checks
// that every acknowledged batch is readable.
func (p *prepared) verifyDurability(r *phaseResult) bool {
	for _, c := range p.clients {
		for k := 0; k < durabilityTailUnits && c.stopUnit+k < len(c.plan.units); k++ {
			c.do(c.plan.units[c.stopUnit+k])
		}
		if c.firstErr != nil {
			r.problems = append(r.problems, fmt.Sprintf("durability tail: client %d: %v", c.id, c.firstErr))
			return false
		}
	}
	if err := p.stack.crashAndReopen(); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("reopen after crash: %v", err))
		return false
	}
	return p.verifyAgainst(r, p.stack.front, "state after crash", durabilityTailUnits)
}

// workDir names a fresh directory for one set-up under root.
func workDir(root string, n int) string {
	return filepath.Join(root, fmt.Sprintf("run-%d-%d", os.Getpid(), n))
}
