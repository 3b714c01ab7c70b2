// The concurrent single-pass analysis engine: one trace scan fans batched
// op slices out to every registered collector, each running on its own
// goroutine. Collectors that keep hot per-key maps (Correlator, OpDist)
// shard those maps across a worker pool and merge deterministically, so
// results are identical to the sequential collectors at any worker count.
//
// Determinism notes:
//
//   - Correlator: the ring scan stays sequential (correlation distances
//     depend on stream order); only the counter updates are sharded. Exact
//     per-key-pair counters shard by key-pair hash, so each pair lives in
//     exactly one shard. Sketch counters shard by sketch index, so every
//     colliding (pair, distance) tuple lands in the same shard in stream
//     order — the saturating-counter sequence, and therefore the min-2
//     accounting, replays exactly.
//   - OpDist: ops shard by storage class, so each class's per-key frequency
//     map (and its tracked-key cap) sees its ops in stream order.
//   - Merges iterate shards in index order and only sum or union disjoint
//     state.
package analysis

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// EngineConfig tunes a single-pass run.
type EngineConfig struct {
	// Workers is the shard/hash worker count per parallel collector.
	// 0 = GOMAXPROCS.
	Workers int
	// BatchSize is the fan-out granularity in ops. 0 = DefaultBatchSize.
	BatchSize int
}

// DefaultBatchSize amortizes channel traffic without hurting locality.
const DefaultBatchSize = 4096

// tupleBatchSize is the correlator's shard-routing granularity.
const tupleBatchSize = 512

// parallelHashMin is the tracked-op count below which a batch is hashed
// inline rather than striped across goroutines.
const parallelHashMin = 256

// engineCollector is one fan-out target. process is called with batches in
// stream order from a single goroutine; ops (and their keys) are only valid
// until process returns. finish is called after the last batch, once, from
// the engine's goroutine.
type engineCollector interface {
	process(ops []trace.Op)
	finish()
}

// Engine runs one pass over a trace, feeding every collector.
type Engine struct {
	cfg        EngineConfig
	collectors []engineCollector
	started    bool
}

// NewEngine builds an empty engine.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	return &Engine{cfg: cfg}
}

// AddOpDist registers an operation census (nil = DefaultTrackedClasses).
// The handle's Result is valid after Run returns.
func (e *Engine) AddOpDist(trackClasses []rawdb.Class) *OpDistHandle {
	return e.AddOpDistLimited(trackClasses, 0)
}

// AddOpDistLimited is AddOpDist with a per-class tracked-key cap.
func (e *Engine) AddOpDistLimited(trackClasses []rawdb.Class, maxTrackedKeys int) *OpDistHandle {
	c := newParOpDist(trackClasses, maxTrackedKeys, e.cfg.Workers)
	e.collectors = append(e.collectors, c)
	return &OpDistHandle{c: c}
}

// AddCorrelator registers a correlation pass. The handle's Result is valid
// after Run returns.
func (e *Engine) AddCorrelator(cfg CorrConfig) *CorrelatorHandle {
	c := newParCorr(cfg, e.cfg.Workers)
	e.collectors = append(e.collectors, c)
	return &CorrelatorHandle{c: c}
}

// OpDistHandle is the deferred result of an engine census.
type OpDistHandle struct{ c *parOpDist }

// Result returns the census; call only after the engine run completes.
func (h *OpDistHandle) Result() *OpDist { return h.c.result }

// CorrelatorHandle is the deferred result of an engine correlation pass.
type CorrelatorHandle struct{ c *parCorr }

// Result returns the correlator; call only after the engine run completes.
func (h *CorrelatorHandle) Result() *Correlator { return h.c.result }

// batchMsg is one fan-out unit. release (when set) recycles the batch once
// the receiving collector is done with it.
type batchMsg struct {
	ops     []trace.Op
	release func()
}

// RunSlice feeds in-memory ops through every collector in one pass.
func (e *Engine) RunSlice(ops []trace.Op) error {
	chans, wg := e.start()
	bs := e.cfg.BatchSize
	for off := 0; off < len(ops); off += bs {
		end := off + bs
		if end > len(ops) {
			end = len(ops)
		}
		m := batchMsg{ops: ops[off:end]}
		for _, ch := range chans {
			ch <- m
		}
	}
	e.stop(chans, wg)
	return nil
}

// RunReader streams a trace file through every collector in one pass,
// recycling batch buffers once every collector has consumed them.
func (e *Engine) RunReader(r *trace.Reader) error {
	chans, wg := e.start()
	pool := sync.Pool{New: func() any {
		buf := make([]trace.Op, e.cfg.BatchSize)
		return &buf
	}}
	for {
		bufp := pool.Get().(*[]trace.Op)
		n, err := r.NextBatch((*bufp)[:e.cfg.BatchSize])
		if n > 0 {
			refs := atomic.Int32{}
			refs.Store(int32(len(chans)))
			m := batchMsg{ops: (*bufp)[:n], release: func() {
				if refs.Add(-1) == 0 {
					pool.Put(bufp)
				}
			}}
			for _, ch := range chans {
				ch <- m
			}
		} else {
			pool.Put(bufp)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			e.stop(chans, wg)
			return err
		}
	}
	e.stop(chans, wg)
	return nil
}

// start spawns one goroutine per collector.
func (e *Engine) start() ([]chan batchMsg, *sync.WaitGroup) {
	if e.started {
		panic("analysis: engine reused; build a new Engine per run")
	}
	e.started = true
	chans := make([]chan batchMsg, len(e.collectors))
	wg := &sync.WaitGroup{}
	for i, c := range e.collectors {
		ch := make(chan batchMsg, 4)
		chans[i] = ch
		wg.Add(1)
		go func(c engineCollector, ch chan batchMsg) {
			defer wg.Done()
			for m := range ch {
				c.process(m.ops)
				if m.release != nil {
					m.release()
				}
			}
		}(c, ch)
	}
	return chans, wg
}

// stop closes the fan-out, waits for drain, and merges shard state.
func (e *Engine) stop(chans []chan batchMsg, wg *sync.WaitGroup) {
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	for _, c := range e.collectors {
		c.finish()
	}
}

// ---------------------------------------------------------------------------
// Sharded correlator

// corrTuple is one routed pair observation: distance index + key pair +
// class pair. The owning shard re-derives the sketch index when needed.
type corrTuple struct {
	pk pairKey
	cp ClassPair
	di uint16
}

// corrShard owns a disjoint slice of the correlation counters.
type corrShard struct {
	st corrState
	ch chan []corrTuple
}

// parCorr is the engine-side parallel correlator. The ring scan runs on the
// collector goroutine; counter updates are sharded by pair / sketch index.
// With workers <= 1 it degenerates to the sequential Observe loop.
type parCorr struct {
	result  *Correlator
	workers int

	shards []*corrShard
	wg     sync.WaitGroup
	// bufs accumulate tuples per shard between flushes.
	bufs [][]corrTuple
	pool sync.Pool // *[]corrTuple
	// route is the prebuilt fold callback (avoids a closure alloc per op).
	route func(i, d int, pk pairKey, cp ClassPair)
	// scratch for per-batch hashing.
	trackedIdx []int
	hashes     []uint64
}

func newParCorr(cfg CorrConfig, workers int) *parCorr {
	pc := &parCorr{result: NewCorrelator(cfg), workers: workers}
	if workers <= 1 {
		return pc
	}
	pc.route = pc.routeTuple
	pc.pool.New = func() any {
		buf := make([]corrTuple, 0, tupleBatchSize)
		return &buf
	}
	trackExact := pc.result.trackExactByIndex()
	pc.shards = make([]*corrShard, workers)
	pc.bufs = make([][]corrTuple, workers)
	for s := 0; s < workers; s++ {
		lo, hi := sketchShardBounds(s, workers)
		shard := &corrShard{
			st: newCorrState(pc.result.distances, trackExact, lo, hi),
			ch: make(chan []corrTuple, 8),
		}
		pc.shards[s] = shard
		pc.bufs[s] = (*pc.pool.Get().(*[]corrTuple))[:0]
		pc.wg.Add(1)
		go func(sh *corrShard) {
			defer pc.wg.Done()
			for buf := range sh.ch {
				for _, t := range buf {
					sh.st.apply(int(t.di), pc.result.distances[t.di], t.pk, t.cp)
				}
				buf = buf[:0]
				pc.pool.Put(&buf)
			}
		}(shard)
	}
	return pc
}

// sketchShardBounds partitions the sketch index space [0, 2^sketchBits)
// into w contiguous ranges consistent with sketchShard.
func sketchShardBounds(s, w int) (lo, hi uint64) {
	const n = uint64(1) << sketchBits
	lo = (uint64(s)*n + uint64(w) - 1) / uint64(w)
	hi = (uint64(s+1)*n + uint64(w) - 1) / uint64(w)
	return lo, hi
}

// sketchShard maps a sketch index to its owning shard: floor(idx*w / 2^24).
func sketchShard(idx uint64, w int) int {
	return int(idx * uint64(w) >> sketchBits)
}

// pairShard maps a key pair to its owning shard for exact counting.
func pairShard(pk pairKey, w int) int {
	h := pk.lo*0x9e3779b97f4a7c15 ^ pk.hi*0xc2b2ae3d27d4eb4f
	return int((h >> 32) * uint64(w) >> 32)
}

// routeTuple sends one pair observation to its shard, preserving per-shard
// stream order.
func (pc *parCorr) routeTuple(i, d int, pk pairKey, cp ClassPair) {
	var s int
	if pc.result.pairCounts[i] != nil {
		s = pairShard(pk, pc.workers)
	} else {
		s = sketchShard(sketchIndex(pk, d), pc.workers)
	}
	pc.bufs[s] = append(pc.bufs[s], corrTuple{pk: pk, cp: cp, di: uint16(i)})
	if len(pc.bufs[s]) == tupleBatchSize {
		pc.flushShard(s)
	}
}

func (pc *parCorr) flushShard(s int) {
	pc.shards[s].ch <- pc.bufs[s]
	pc.bufs[s] = (*pc.pool.Get().(*[]corrTuple))[:0]
}

// process consumes one batch: pick tracked ops, hash their keys (striped
// across goroutines when the batch is big enough), then walk the ring in
// stream order routing pair observations to shards.
func (pc *parCorr) process(ops []trace.Op) {
	c := pc.result
	if pc.workers <= 1 {
		for i := range ops {
			c.Observe(ops[i])
		}
		return
	}
	idxs := pc.trackedIdx[:0]
	for i := range ops {
		if c.tracks(ops[i]) {
			idxs = append(idxs, i)
		}
	}
	pc.trackedIdx = idxs
	if len(idxs) == 0 {
		return
	}
	if cap(pc.hashes) < len(idxs) {
		pc.hashes = make([]uint64, len(idxs))
	}
	hashes := pc.hashes[:len(idxs)]
	if len(idxs) >= parallelHashMin {
		var wg sync.WaitGroup
		chunk := (len(idxs) + pc.workers - 1) / pc.workers
		for lo := 0; lo < len(idxs); lo += chunk {
			hi := lo + chunk
			if hi > len(idxs) {
				hi = len(idxs)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for j := lo; j < hi; j++ {
					hashes[j] = hashKey(ops[idxs[j]].Key)
				}
			}(lo, hi)
		}
		wg.Wait()
	} else {
		for j, oi := range idxs {
			hashes[j] = c.hashKeyCached(ops[oi].Key)
		}
	}
	for j, oi := range idxs {
		c.observeHash(hashes[j], ops[oi].Class, pc.route)
	}
}

// finish flushes pending tuples, drains the shards, and merges their
// counters into the result correlator.
func (pc *parCorr) finish() {
	if pc.workers <= 1 {
		return
	}
	for s := range pc.shards {
		if len(pc.bufs[s]) > 0 {
			pc.shards[s].ch <- pc.bufs[s]
		}
		close(pc.shards[s].ch)
	}
	pc.wg.Wait()
	c := pc.result
	for _, sh := range pc.shards {
		for i := range c.counts {
			for cp, n := range sh.st.counts[i] {
				c.counts[i][cp] += n
			}
		}
		for i := range c.pairCounts {
			if c.pairCounts[i] == nil {
				continue
			}
			for pk, st := range sh.st.pairCounts[i] {
				c.pairCounts[i][pk] = st
			}
		}
		copy(c.sketch[sh.st.sketchOff:], sh.st.sketch)
	}
	pc.shards = nil
}

// ---------------------------------------------------------------------------
// Sharded operation census

// opDistBatch is one broadcast batch plus the barrier the collector waits
// on: batches reference engine-owned key memory, so the collector cannot
// release them until every shard has consumed the batch.
type opDistBatch struct {
	ops []trace.Op
	wg  *sync.WaitGroup
}

// parOpDist shards the census by storage class: shard s owns every class
// with int(class) % workers == s, so per-class counters and frequency maps
// (including the tracked-key cap) see their ops in stream order.
type parOpDist struct {
	result  *OpDist
	workers int

	shards []chan opDistBatch
	dists  []*OpDist
	wg     sync.WaitGroup
}

func newParOpDist(trackClasses []rawdb.Class, maxTrackedKeys int, workers int) *parOpDist {
	pd := &parOpDist{
		result:  NewOpDistLimited(trackClasses, maxTrackedKeys),
		workers: workers,
	}
	if workers <= 1 {
		return pd
	}
	pd.shards = make([]chan opDistBatch, workers)
	pd.dists = make([]*OpDist, workers)
	for s := 0; s < workers; s++ {
		pd.dists[s] = NewOpDistLimited(trackClasses, maxTrackedKeys)
		pd.shards[s] = make(chan opDistBatch, 4)
		pd.wg.Add(1)
		go func(me int, ch chan opDistBatch, dist *OpDist) {
			defer pd.wg.Done()
			for b := range ch {
				for i := range b.ops {
					if int(b.ops[i].Class)%pd.workers == me {
						dist.Observe(b.ops[i])
					}
				}
				b.wg.Done()
			}
		}(s, pd.shards[s], pd.dists[s])
	}
	return pd
}

func (pd *parOpDist) process(ops []trace.Op) {
	if pd.workers <= 1 {
		for i := range ops {
			pd.result.Observe(ops[i])
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(pd.workers)
	b := opDistBatch{ops: ops, wg: &wg}
	for _, ch := range pd.shards {
		ch <- b
	}
	wg.Wait()
}

func (pd *parOpDist) finish() {
	if pd.workers <= 1 {
		return
	}
	for _, ch := range pd.shards {
		close(ch)
	}
	pd.wg.Wait()
	for _, d := range pd.dists {
		for class, co := range d.PerClass {
			pd.result.PerClass[class] = co
		}
		pd.result.Total += d.Total
		if d.Truncated {
			pd.result.Truncated = true
		}
	}
	pd.shards = nil
	pd.dists = nil
}
