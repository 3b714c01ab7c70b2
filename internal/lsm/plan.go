package lsm

import (
	"bytes"
	"sort"
)

// compactionPlan is one merge of (part of) level into dst, fixed when it is
// planned so the merge can run with db.mu released. A store runs one plan at
// a time (db.compacting), from start until the manifest recording its install
// is durable.
type compactionPlan struct {
	level, dst     int
	srcMetas       []tableMeta // source-level tables joining the merge
	dstIn          []tableMeta // destination tables joining the merge
	dropTombstones bool
	// move relinks srcMetas to dst as they are: a version edit, no I/O.
	move bool
}

// inputs lists the tables the plan reads: its sources, then dstIn.
func (p compactionPlan) inputs() []tableMeta {
	return append(append([]tableMeta(nil), p.srcMetas...), p.dstIn...)
}

// edit is the version edit that installs the plan's outputs: its inputs
// leave, newMetas enter. A move's outputs are its sources, relabelled.
func (p compactionPlan) edit(newMetas []tableMeta) versionEdit {
	return versionEdit{removed: p.inputs(), added: newMetas}
}

// maxCompactionSrcTables bounds one merge's Ln source run, as a multiple of
// CompactionTableBytes, so an overflowing level drains in several bounded
// merges rather than one monolithic one.
const maxCompactionSrcTables = 8

// levelTarget is the byte size level (1 or deeper) may hold before it is
// due: LevelBaseBytes for L1, levelMultiplier times more per level below.
func levelTarget(opts Options, level int) int64 {
	target := opts.LevelBaseBytes
	for l := 1; l < level; l++ {
		target *= levelMultiplier
	}
	return target
}

// compactionDebt estimates the bytes the background work still owes: L0
// bytes once its table count reaches the compaction trigger, plus each
// deeper level's overshoot past its target. The running merge's inputs
// count — they are owed until it installs. Zero means the tree is in shape.
func compactionDebt(v version, opts Options) int64 {
	var debt int64
	if len(v[0]) >= opts.L0CompactionTrigger {
		debt += levelBytes(v[0])
	}
	for level := 1; level < numLevels-1; level++ {
		if over := levelBytes(v[level]) - levelTarget(opts, level); over > 0 {
			debt += over
		}
	}
	return debt
}

// needsCompaction reports whether level is over its invariant; force makes
// any level with a table due.
func needsCompaction(v version, level int, force bool, opts Options) bool {
	switch {
	case force:
		return len(v[level]) > 0
	case level == 0:
		return len(v[0]) >= opts.L0CompactionTrigger
	default:
		return levelBytes(v[level]) > levelTarget(opts, level)
	}
}

// pickCompaction is the compaction planner: it plans the first due level,
// scanning most-urgent-first (L0, then shallow to deep); force (CompactAll)
// makes every level with a table due. It reads no DB field, so a rule runs
// on a hand-built version without a store, goroutines or a pool
// (TestPickCompaction).
func pickCompaction(v version, force bool, opts Options) (compactionPlan, bool) {
	for level := 0; level < numLevels-1; level++ {
		if needsCompaction(v, level, force, opts) {
			return planLevel(v, level, opts), true
		}
	}
	return compactionPlan{}, false
}

// planLevel prepares a merge of (part of) level, above the bottom and
// holding at least one table, into level+1. An L0 merge takes every L0
// table (keeping recency order); an Ln merge takes the level's first run of
// tables, capped at maxCompactionSrcTables times the output table size.
// Every destination table overlapping the sources' key span joins the merge
// (dstIn).
//
// A plan with no dstIn becomes a trivial move unless it may drop tombstones
// (a bottom-most merge must still rewrite to purge them) or its L0 sources
// overlap each other (only a merge can order their versions of a key).
func planLevel(v version, level int, opts Options) compactionPlan {
	dst := level + 1
	src := v[level]
	if level > 0 {
		maxBytes := int64(opts.CompactionTableBytes) * maxCompactionSrcTables
		var runBytes int64
		for i, m := range src {
			if runBytes += m.size; runBytes >= maxBytes {
				src = src[:i+1]
				break
			}
		}
	}
	// Key span of the sources, widened by each destination table joining.
	lo, hi := src[0].smallest, src[0].largest
	widen := func(m tableMeta) {
		if bytes.Compare(m.smallest, lo) < 0 {
			lo = m.smallest
		}
		if bytes.Compare(m.largest, hi) > 0 {
			hi = m.largest
		}
	}
	for _, m := range src[1:] {
		widen(m)
	}
	var dstIn []tableMeta
	for _, m := range v[dst] {
		if bytes.Compare(m.largest, lo) >= 0 && bytes.Compare(m.smallest, hi) <= 0 {
			dstIn = append(dstIn, m)
			widen(m)
		}
	}
	drop := bottomMost(v, dst, lo, hi)
	return compactionPlan{
		level:          level,
		dst:            dst,
		srcMetas:       src,
		dstIn:          dstIn,
		dropTombstones: drop,
		move:           len(dstIn) == 0 && !drop && (level > 0 || keyDisjoint(src)),
	}
}

// bottomMost reports whether no level below dst holds keys in [lo, hi]; if
// so, tombstones can be dropped during compaction into dst.
func bottomMost(v version, dst int, lo, hi []byte) bool {
	for level := dst + 1; level < numLevels; level++ {
		for _, m := range v[level] {
			if bytes.Compare(m.largest, lo) >= 0 && bytes.Compare(m.smallest, hi) <= 0 {
				return false
			}
		}
	}
	return true
}

// keyDisjoint reports whether no two of metas share a key.
func keyDisjoint(metas []tableMeta) bool {
	sorted := append([]tableMeta(nil), metas...)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].smallest, sorted[j].smallest) < 0 })
	for i := 1; i < len(sorted); i++ {
		if bytes.Compare(sorted[i-1].largest, sorted[i].smallest) >= 0 {
			return false
		}
	}
	return true
}
