// The single-pass analysis engine: one trace scan fans batched op slices
// out to every registered collector, each running on its own goroutine.
// A collector sees every batch in stream order on that one goroutine, so
// its result is exactly the sequential Observe loop's.
package analysis

import (
	"io"
	"sync"
	"sync/atomic"

	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// defaultBatchSize is the fan-out granularity in ops: it amortizes channel
// traffic without hurting locality.
const defaultBatchSize = 4096

// batchObserver is one fan-out target. observeBatch is called with batches
// in stream order from a single goroutine; ops (and their keys) are only
// valid until it returns.
type batchObserver interface {
	observeBatch(ops []trace.Op)
}

// Engine runs one pass over a trace, feeding every collector.
type Engine struct {
	// batchSize is the fan-out granularity; tests shrink it to cut odd
	// batch boundaries.
	batchSize  int
	collectors []batchObserver
	started    bool
}

// NewEngine builds an empty engine.
func NewEngine() *Engine {
	return &Engine{batchSize: defaultBatchSize}
}

// AddOpDist registers an operation census (nil = DefaultTrackedClasses)
// and returns it. Its collector goroutine owns it until Run returns; read
// it only after that.
func (e *Engine) AddOpDist(trackClasses []rawdb.Class) *OpDist {
	d := NewOpDist(trackClasses)
	e.collectors = append(e.collectors, d)
	return d
}

// AddCorrelator registers a correlation pass over the ops of one type and
// returns it, readable once Run returns.
func (e *Engine) AddCorrelator(op trace.OpType) *Correlator {
	c := NewCorrelator(op)
	e.collectors = append(e.collectors, c)
	return c
}

// batchMsg is one fan-out unit. release (when set) recycles the batch once
// the receiving collector is done with it.
type batchMsg struct {
	ops     []trace.Op
	release func()
}

// RunSlice feeds in-memory ops through every collector in one pass.
func (e *Engine) RunSlice(ops []trace.Op) error {
	chans, wg := e.start()
	bs := e.batchSize
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
		buf := make([]trace.Op, e.batchSize)
		return &buf
	}}
	for {
		bufp := pool.Get().(*[]trace.Op)
		n, err := r.NextBatch((*bufp)[:e.batchSize])
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
		go func(c batchObserver, ch chan batchMsg) {
			defer wg.Done()
			for m := range ch {
				c.observeBatch(m.ops)
				if m.release != nil {
					m.release()
				}
			}
		}(c, ch)
	}
	return chans, wg
}

// stop closes the fan-out and waits for every collector to drain.
func (e *Engine) stop(chans []chan batchMsg, wg *sync.WaitGroup) {
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
}
