package lsm

import (
	"bytes"
	"sort"
)

// compactionPlan is one merge of (part of) level into dst, fixed when it is
// planned so the merge can run with db.mu released. While its job is in
// flight — from start until the manifest recording its install is durable —
// the plan is in db.jobs, and the tables it lists are claimed: no other plan
// reads or rewrites them.
type compactionPlan struct {
	level, dst     int
	srcMetas       []tableMeta // source-level tables joining the merge
	dstIn          []tableMeta // destination tables joining the merge
	lo, hi         []byte      // key span of srcMetas + dstIn (admission range)
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

// maxCompactionSrcTables bounds one Ln job's source run, as a multiple of
// CompactionTableBytes, so an overflowing level drains in several
// range-disjoint jobs that can proceed in parallel rather than one
// monolithic merge.
const maxCompactionSrcTables = 8

// claimsOf is the set of tables the in-flight plans read, by file number.
func claimsOf(inflight map[int]compactionPlan) map[uint64]bool {
	claimed := make(map[uint64]bool)
	for _, p := range inflight {
		for _, m := range p.inputs() {
			claimed[m.num] = true
		}
	}
	return claimed
}

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
// deeper level's overshoot past its target. Claimed tables count — they are
// owed until their job installs. Zero means the tree is in shape.
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

// needsCompaction reports whether level's unclaimed tables put it over its
// invariant. Claimed tables are excluded on both sides: they are already
// being compacted away, so counting them would schedule jobs that cannot
// pick any input.
func needsCompaction(v version, level int, claimed map[uint64]bool, force bool, opts Options) bool {
	unclaimed := 0
	var size int64
	for _, m := range v[level] {
		if !claimed[m.num] {
			unclaimed++
			size += m.size
		}
	}
	switch {
	case force:
		return unclaimed > 0
	case level == 0:
		return unclaimed >= opts.L0CompactionTrigger
	default:
		return size > levelTarget(opts, level)
	}
}

// pickCompaction is the compaction planner: it finds the next admissible
// compaction, scanning levels most-urgent-first (L0, then shallow to deep);
// force (CompactAll) makes every level with an unclaimed table due. With
// nothing in flight, nothing is claimed and no span conflicts, so a due level
// always yields a plan. It reads no DB field, so a rule runs on a hand-built
// version without a store, goroutines or a pool (TestPickCompaction).
func pickCompaction(v version, inflight map[int]compactionPlan, force bool, opts Options) (compactionPlan, bool) {
	claimed := claimsOf(inflight)
	for level := 0; level < numLevels-1; level++ {
		if !needsCompaction(v, level, claimed, force, opts) {
			continue
		}
		if plan, ok := planLevel(v, level, inflight, claimed, opts); ok {
			return plan, true
		}
	}
	return compactionPlan{}, false
}

// planLevel prepares a merge of (part of) level, above the bottom, into
// level+1, subject to the concurrency admission rules:
//
//   - Source tables must be unclaimed. L0 jobs take every unclaimed L0
//     table (keeping recency order); Ln jobs take the first contiguous run
//     of unclaimed tables, capped at maxCompactionSrcTables times the
//     output table size.
//   - Every destination table overlapping the source span must be
//     unclaimed; they join the merge (dstIn).
//   - Disjointness rule: the job's key span (sources + dstIn) must not
//     overlap the span of any in-flight job that shares a level with it.
//     Jobs on disjoint level pairs may overlap in keyspace; jobs touching a
//     common level must be range-disjoint, which keeps installs commutative
//     and prevents a deeper merge from re-exposing keys whose tombstones a
//     shallower merge is concurrently dropping.
//
// A plan with no dstIn becomes a trivial move unless it may drop tombstones
// (a bottom-most merge must still rewrite to purge them) or its L0 sources
// overlap each other (only a merge can order their versions of a key).
func planLevel(v version, level int, inflight map[int]compactionPlan, claimed map[uint64]bool, opts Options) (compactionPlan, bool) {
	dst := level + 1
	var src []tableMeta
	if level == 0 {
		for _, m := range v[0] {
			if !claimed[m.num] {
				src = append(src, m)
			}
		}
	} else {
		maxBytes := int64(opts.CompactionTableBytes) * maxCompactionSrcTables
		var runBytes int64
		for _, m := range v[level] {
			if claimed[m.num] {
				if len(src) > 0 {
					break
				}
				continue
			}
			src = append(src, m)
			runBytes += m.size
			if runBytes >= maxBytes {
				break
			}
		}
	}
	if len(src) == 0 {
		return compactionPlan{}, false
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
	// Destination tables overlapping the source span join the merge; a
	// claimed one means another job owns part of our key range on dst.
	var dstIn []tableMeta
	for _, m := range v[dst] {
		if bytes.Compare(m.largest, lo) < 0 || bytes.Compare(m.smallest, hi) > 0 {
			continue
		}
		if claimed[m.num] {
			return compactionPlan{}, false
		}
		dstIn = append(dstIn, m)
		widen(m)
	}
	// Disjointness against every in-flight job sharing a level.
	for _, j := range inflight {
		sharesLevel := j.level == level || j.level == dst || j.dst == level || j.dst == dst
		if sharesLevel && bytes.Compare(j.lo, hi) <= 0 && bytes.Compare(lo, j.hi) <= 0 {
			return compactionPlan{}, false
		}
	}
	drop := bottomMost(v, dst, lo, hi)
	return compactionPlan{
		level:          level,
		dst:            dst,
		srcMetas:       src,
		dstIn:          dstIn,
		lo:             append([]byte(nil), lo...),
		hi:             append([]byte(nil), hi...),
		dropTombstones: drop,
		move:           len(dstIn) == 0 && !drop && (level > 0 || keyDisjoint(src)),
	}, true
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
