// Package fanout is the one machine behind every store that spreads a
// keyspace over child stores: a Core sends each key to the child a partition
// function picks, and still answers a prefix scan completely. shard.Router
// (pick = key hash or class) and hybrid.Store (pick = the class's policy
// route) are each a Core plus their partition function. DESIGN.md §21.
//
// What the Core is owed:
//
//   - pick is total and pure: every key maps to exactly one child, and two
//     Cores over the same configuration agree — which is what makes reopening
//     a partitioned database from its children's directories sound.
//   - plan(prefix), if given, returns in ascending order every child that can
//     hold a key starting with prefix: a superset is fine, a miss silently
//     truncates scans. A nil plan means every child.
//
// What it gives, relative to a single store: point ops reach exactly one
// child. A batch commits as one sub-batch per touched child, in ascending
// child index; each is atomic within its child, the group is NOT atomic
// across children — an error or crash between commits leaves the children
// below it committed and the rest untouched, never an arbitrary subset. A
// scan merges the planned children, and a child that stops with an error
// fails the whole scan: the survivors' keys alone would be a silently
// incomplete view. Flush, Drain and Close attempt every child; Stats goes
// through kv.Stats.Merge, so no counter can be dropped on the way.
package fanout

import (
	"bytes"
	"fmt"

	"ethkv/internal/kv"
	"ethkv/internal/obs"
)

// Core implements kv.Store over child stores partitioned by pick. It is safe
// for concurrent use if the children are.
type Core struct {
	kind     string   // what a child is: "shard", "route" — the metrics label key
	names    []string // names[i] identifies child i — the metrics label value
	children []kv.Store
	pick     func(key []byte) int
	plan     func(prefix []byte) []int
}

// New assembles a Core over children (used as given, not copied). kind and
// names label them in errors ("shard 03: …") and metrics (shard="03").
func New(kind string, names []string, children []kv.Store, pick func(key []byte) int, plan func(prefix []byte) []int) *Core {
	if plan == nil {
		all := make([]int, len(children))
		for i := range all {
			all[i] = i
		}
		plan = func([]byte) []int { return all }
	}
	return &Core{kind: kind, names: names, children: children, pick: pick, plan: plan}
}

// Len returns the number of children, Child the i-th.
func (c *Core) Len() int             { return len(c.children) }
func (c *Core) Child(i int) kv.Store { return c.children[i] }

// fail names child i as the origin of err.
func (c *Core) fail(i int, err error) error {
	return fmt.Errorf("%s %s: %w", c.kind, c.names[i], err)
}

// Get, Has, Put and Delete implement kv.Reader and kv.Writer on the one child
// that owns the key.
func (c *Core) Get(key []byte) ([]byte, error) { return c.children[c.pick(key)].Get(key) }
func (c *Core) Has(key []byte) (bool, error)   { return c.children[c.pick(key)].Has(key) }
func (c *Core) Put(key, value []byte) error    { return c.children[c.pick(key)].Put(key, value) }
func (c *Core) Delete(key []byte) error        { return c.children[c.pick(key)].Delete(key) }

// NewBatch implements kv.Batcher with the split batch.
func (c *Core) NewBatch() kv.Batch { return &batch{core: c} }

// batch buffers ops centrally, in insertion order for Replay; Write routes
// them into per-child sub-batches, so each child gets its share as one
// Batch.Write — one WAL group record on an LSM child — not a stream of ops.
type batch struct {
	kv.OpBatch
	core *Core
}

func (b *batch) Write() error {
	c := b.core
	subs := make([]kv.Batch, len(c.children))
	for i := range b.Ops {
		op := &b.Ops[i]
		at := c.pick(op.Key)
		if subs[at] == nil {
			subs[at] = c.children[at].NewBatch()
		}
		if err := op.Apply(subs[at]); err != nil {
			return c.fail(at, err)
		}
	}
	for i, sub := range subs {
		if sub == nil {
			continue
		}
		if err := sub.Write(); err != nil {
			return c.fail(i, err)
		}
	}
	return nil
}

// NewIterator implements kv.Iterable. A scan that plan confines to one child
// gets that child's iterator as is; anything wider is merged: globally ordered
// if every merged child is, every pair exactly once either way.
func (c *Core) NewIterator(prefix, start []byte) kv.Iterator {
	idxs := c.plan(prefix)
	if len(idxs) == 1 {
		return c.children[idxs[0]].NewIterator(prefix, start)
	}
	m := &mergeIterator{
		core:    c,
		child:   idxs,
		iters:   make([]kv.Iterator, len(idxs)),
		keys:    make([][]byte, len(idxs)),
		heap:    make([]int, 0, len(idxs)),
		pending: make([]int, len(idxs)),
		cur:     -1,
	}
	for i, at := range idxs {
		m.iters[i] = c.children[at].NewIterator(prefix, start)
		m.pending[i] = i // nothing is positioned yet: the first Next advances all
	}
	return m
}

// mergeIterator k-way-merges child iterators without copying a pair: a binary
// min-heap of iterator indexes on (current key, index), where keys[i] is
// iterator i's own Key() slice. kv.Iterator keeps Key and Value intact until
// that iterator's next Next, so what one merged Next consumes is only advanced
// at the start of the following one — exactly when the merged Key/Value may go
// stale. Partitions are disjoint, but equal keys are still consumed together
// (lowest index surfaces), so no child can make the merge yield a key twice.
type mergeIterator struct {
	core    *Core
	iters   []kv.Iterator
	child   []int    // child[i] is the Core child behind iters[i], to name it in errors
	keys    [][]byte // keys[i] aliases iters[i].Key() while i is positioned
	heap    []int    // positioned, unconsumed iterators; least (key, index) at heap[0]
	pending []int    // iterators the last Next consumed, to advance at the next one
	cur     int      // iterator whose pair is current, -1 for none
	failed  error
}

func (m *mergeIterator) less(a, b int) bool {
	if c := bytes.Compare(m.keys[a], m.keys[b]); c != 0 {
		return c < 0
	}
	return a < b
}

func (m *mergeIterator) push(i int) {
	m.heap = append(m.heap, i)
	for at := len(m.heap) - 1; at > 0; {
		parent := (at - 1) / 2
		if !m.less(m.heap[at], m.heap[parent]) {
			return
		}
		m.heap[at], m.heap[parent] = m.heap[parent], m.heap[at]
		at = parent
	}
}

func (m *mergeIterator) pop() int {
	top, last := m.heap[0], len(m.heap)-1
	m.heap[0] = m.heap[last]
	m.heap = m.heap[:last]
	for at := 0; ; {
		least := at
		if l := 2*at + 1; l < last && m.less(m.heap[l], m.heap[least]) {
			least = l
		}
		if r := 2*at + 2; r < last && m.less(m.heap[r], m.heap[least]) {
			least = r
		}
		if least == at {
			return top
		}
		m.heap[at], m.heap[least] = m.heap[least], m.heap[at]
		at = least
	}
}

func (m *mergeIterator) Next() bool {
	m.cur = -1
	if m.failed != nil {
		return false
	}
	for _, i := range m.pending {
		if it := m.iters[i]; it.Next() {
			m.keys[i] = it.Key()
			m.push(i)
		} else if err := it.Error(); err != nil {
			// Its remaining keys are unknowable: nothing more can be yielded.
			m.failed = m.core.fail(m.child[i], err)
			return false
		}
	}
	m.pending = m.pending[:0]
	if len(m.heap) == 0 {
		return false
	}
	m.cur = m.pop()
	m.pending = append(m.pending, m.cur)
	for len(m.heap) > 0 && bytes.Equal(m.keys[m.heap[0]], m.keys[m.cur]) {
		m.pending = append(m.pending, m.pop())
	}
	return true
}

func (m *mergeIterator) Key() []byte {
	if m.cur < 0 {
		return nil
	}
	return m.keys[m.cur]
}

func (m *mergeIterator) Value() []byte {
	if m.cur < 0 {
		return nil
	}
	return m.iters[m.cur].Value()
}

// Error reports the latched failure, or one that only surfaced at Release.
func (m *mergeIterator) Error() error { return m.failed }

func (m *mergeIterator) Release() {
	for i, it := range m.iters {
		it.Release()
		if err := it.Error(); err != nil && m.failed == nil {
			m.failed = m.core.fail(m.child[i], err)
		}
	}
	m.iters, m.heap, m.pending, m.cur = nil, nil, nil, -1
}

// each runs op on every child and only then returns the first error, naming
// the child: one failure must not leave the others unflushed or open.
func (c *Core) each(what string, op func(kv.Store) error) error {
	var first error
	for i, child := range c.children {
		if err := op(child); err != nil && first == nil {
			first = c.fail(i, fmt.Errorf("%s: %w", what, err))
		}
	}
	return first
}

// Flush pushes buffered state down on every child that buffers any.
func (c *Core) Flush() error { return c.each("flush", kv.Flush) }

// Drain implements kv.Drainer.
func (c *Core) Drain() error { return c.each("drain", kv.Drain) }

// Close implements kv.Store.
func (c *Core) Close() error { return c.each("close", kv.Store.Close) }

// ChildStats returns each child's own counters (zero if it keeps none).
func (c *Core) ChildStats() []kv.Stats {
	out := make([]kv.Stats, len(c.children))
	for i, child := range c.children {
		if sp, ok := child.(kv.StatsProvider); ok {
			out[i] = sp.Stats()
		}
	}
	return out
}

// Stats implements kv.StatsProvider by merging every child's counters.
func (c *Core) Stats() kv.Stats {
	var total kv.Stats
	for _, st := range c.ChildStats() {
		total.Merge(st)
	}
	return total
}

// RegisterMetrics implements kv.MetricsRegistrar: every child exports what it
// can under kind="name" (shard="03", route="flat") plus the caller's labels.
func (c *Core) RegisterMetrics(r *obs.Registry, labels ...string) {
	if r == nil {
		return
	}
	for i, child := range c.children {
		l := append([]string{c.kind, c.names[i]}, labels...)
		if reg, ok := child.(kv.MetricsRegistrar); ok {
			reg.RegisterMetrics(r, l...)
		} else if sp, ok := child.(kv.StatsProvider); ok {
			kv.RegisterStatsMetrics(r, sp, l...)
		}
	}
}
