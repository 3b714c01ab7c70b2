package lsm

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// Compaction planning and execution: what to merge (under db.mu), the merge
// itself (lock released), and the version edit that installs its result. The
// scheduler that decides when a plan runs, and on which goroutine, is in
// db.go (maybeScheduleLocked, runCompactionJob).

// compactionPlan captures, under db.mu, everything a merge needs so the
// merge itself can run with the lock released. The planned tables are
// claimed until the job finishes, so no other job mutates or re-reads them
// underneath the merge.
type compactionPlan struct {
	level, dst     int
	srcMetas       []tableMeta // source-level tables joining the merge
	dstIn          []tableMeta // destination tables joining the merge
	lo, hi         []byte      // key span of srcMetas + dstIn (admission range)
	dropTombstones bool
	// move relinks srcMetas to dst as they are: a version edit, no I/O.
	move bool
}

// maxCompactionSrcTables bounds one Ln job's source run, as a multiple of
// CompactionTableBytes, so an overflowing level drains in several
// range-disjoint jobs that can proceed in parallel rather than one
// monolithic merge.
const maxCompactionSrcTables = 8

// planNextCompactionLocked finds the next admissible compaction, scanning
// levels most-urgent-first (L0, then shallow to deep).
func (db *DB) planNextCompactionLocked() (compactionPlan, bool) {
	for level := 0; level < len(db.levels)-1; level++ {
		if !db.levelNeedsCompactionLocked(level) {
			continue
		}
		if plan, ok := db.tryPlanLevelLocked(level); ok {
			return plan, true
		}
	}
	return compactionPlan{}, false
}

// tryPlanLevelLocked prepares a merge of (part of) level into level+1,
// subject to the concurrency admission rules:
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
func (db *DB) tryPlanLevelLocked(level int) (compactionPlan, bool) {
	dst := level + 1
	if dst >= len(db.levels) {
		return compactionPlan{}, false
	}
	var src []tableMeta
	if level == 0 {
		for _, m := range db.levels[0] {
			if db.unclaimedLocked(m) {
				src = append(src, m)
			}
		}
	} else {
		maxBytes := int64(db.opts.CompactionTableBytes) * maxCompactionSrcTables
		var run []tableMeta
		var runBytes int64
		for _, m := range db.levels[level] {
			if !db.unclaimedLocked(m) {
				if len(run) > 0 {
					break
				}
				continue
			}
			run = append(run, m)
			runBytes += m.size
			if runBytes >= maxBytes {
				break
			}
		}
		src = run
	}
	if len(src) == 0 {
		return compactionPlan{}, false
	}
	// Key span of the sources.
	lo := src[0].smallest
	hi := src[0].largest
	for _, m := range src[1:] {
		if bytes.Compare(m.smallest, lo) < 0 {
			lo = m.smallest
		}
		if bytes.Compare(m.largest, hi) > 0 {
			hi = m.largest
		}
	}
	// Destination tables overlapping the source span join the merge; a
	// claimed one means another job owns part of our key range on dst.
	var dstIn []tableMeta
	for _, m := range db.levels[dst] {
		if bytes.Compare(m.largest, lo) < 0 || bytes.Compare(m.smallest, hi) > 0 {
			continue
		}
		if !db.unclaimedLocked(m) {
			return compactionPlan{}, false
		}
		dstIn = append(dstIn, m)
		if bytes.Compare(m.smallest, lo) < 0 {
			lo = m.smallest
		}
		if bytes.Compare(m.largest, hi) > 0 {
			hi = m.largest
		}
	}
	// Disjointness against every in-flight job sharing a level.
	for _, j := range db.jobs {
		sharesLevel := j.level == level || j.level == dst || j.dst == level || j.dst == dst
		if sharesLevel && bytes.Compare(j.lo, hi) <= 0 && bytes.Compare(lo, j.hi) <= 0 {
			return compactionPlan{}, false
		}
	}
	drop := db.bottomMostLocked(dst, lo, hi)
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

// runCompaction merges the planned tables into new non-overlapping tables
// on the destination level. Runs WITHOUT db.mu: reads and writes proceed
// concurrently with the merge I/O. Compacting into the bottom level drops
// tombstones.
//
// Large inputs split into key-range sub-compactions. The split boundaries
// are a pure function of the plan (subCompactionBounds), and every range
// merge is independent and deterministic, so the concatenated outputs are
// byte-for-byte identical whether the ranges run on one goroutine or many —
// only the file numbers (assigned at write time) differ. The ranges fan out
// across at most db.workers (the pool's size) goroutines.
//
// A move returns the source metas relabelled to dst and touches no file.
func (db *DB) runCompaction(plan compactionPlan, hook func()) (newMetas []tableMeta, readBytes int64, err error) {
	if hook != nil {
		hook()
	}
	if plan.move {
		for _, m := range plan.srcMetas {
			m.level = plan.dst
			newMetas = append(newMetas, m)
		}
		return newMetas, 0, nil
	}
	bounds := db.subCompactionBounds(plan)
	if len(bounds) == 0 {
		return db.compactRange(plan, nil, nil)
	}
	ranges := len(bounds) + 1
	db.stats.subCompactions.Add(uint64(ranges))
	type rangeResult struct {
		metas []tableMeta
		read  int64
		err   error
	}
	results := make([]rangeResult, ranges)
	workers := db.workers
	if workers > ranges {
		workers = ranges
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < ranges; i++ {
		var lo, hi []byte
		if i > 0 {
			lo = bounds[i-1]
		}
		if i < len(bounds) {
			hi = bounds[i]
		}
		wg.Add(1)
		go func(i int, lo, hi []byte) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r := &results[i]
			r.metas, r.read, r.err = db.compactRange(plan, lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
	for _, r := range results {
		if r.err != nil {
			return nil, 0, r.err
		}
		newMetas = append(newMetas, r.metas...)
		readBytes += r.read
	}
	return newMetas, readBytes, nil
}

// subCompactionBounds returns the interior key boundaries splitting plan
// into sub-compaction ranges: range i covers [bounds[i-1], bounds[i])
// (unbounded at the ends). Empty means run unsplit. Boundaries are drawn
// from the input tables' smallest keys — deterministic plan metadata —
// never from worker count or timing.
func (db *DB) subCompactionBounds(plan compactionPlan) [][]byte {
	const maxSubCompactions = 16
	span := db.opts.SubCompactionBytes
	if span <= 0 {
		return nil
	}
	inputs := make([]tableMeta, 0, len(plan.srcMetas)+len(plan.dstIn))
	inputs = append(inputs, plan.srcMetas...)
	inputs = append(inputs, plan.dstIn...)
	var total int64
	for _, m := range inputs {
		total += m.size
	}
	want := int(total / span)
	if want <= 1 {
		return nil
	}
	if want > maxSubCompactions {
		want = maxSubCompactions
	}
	// Candidate boundaries: distinct table start keys past the global
	// minimum (a boundary at the minimum would make the first range empty).
	starts := make([][]byte, 0, len(inputs))
	for _, m := range inputs {
		starts = append(starts, m.smallest)
	}
	sort.Slice(starts, func(i, j int) bool { return bytes.Compare(starts[i], starts[j]) < 0 })
	var cands [][]byte
	for i := 1; i < len(starts); i++ {
		if !bytes.Equal(starts[i], starts[i-1]) {
			cands = append(cands, starts[i])
		}
	}
	if len(cands) == 0 {
		return nil
	}
	if want > len(cands)+1 {
		want = len(cands) + 1
	}
	// want ranges need want-1 boundaries, spaced evenly over the candidates.
	var bounds [][]byte
	for i := 1; i < want; i++ {
		b := cands[i*len(cands)/want]
		if len(bounds) > 0 && bytes.Equal(bounds[len(bounds)-1], b) {
			continue
		}
		bounds = append(bounds, append([]byte(nil), b...))
	}
	return bounds
}

// compactRange merges the plan's inputs restricted to keys in [lo, hi) —
// nil bounds are unbounded. Output tables cut at CompactionTableBytes and,
// by construction, at the range boundary.
func (db *DB) compactRange(plan compactionPlan, lo, hi []byte) (newMetas []tableMeta, readBytes int64, err error) {
	// Build merge sources newest-first: L0 files are newest-last on disk and
	// may overlap, so each is a source of its own, in reverse; a deeper
	// level's run is key-disjoint and makes one runSource; destination
	// tables are oldest. Sources bypass the block cache
	// (newTableSourceBypass): a merge streams every block of its inputs
	// exactly once, and letting that walk touch the cache would wipe out the
	// hot point-read set. References are held until the merge finishes so a
	// concurrent retireTables cannot close files mid-read.
	var (
		sources []source
		runs    []*runSource
		readers []*tableReader
	)
	defer func() {
		for _, s := range runs {
			s.close()
		}
		for _, t := range readers {
			t.unref()
		}
	}()
	addRun := func(metas []tableMeta) error {
		var run []*tableReader
		for _, m := range metas {
			// Skip tables entirely outside the range: every key of a skipped
			// table belongs to (and is read by) some other range's merge.
			if (hi != nil && bytes.Compare(m.smallest, hi) >= 0) || (lo != nil && bytes.Compare(m.largest, lo) < 0) {
				continue
			}
			t, err := db.acquire(&m)
			if err != nil {
				return err
			}
			readers = append(readers, t)
			run = append(run, t)
		}
		if len(run) > 0 {
			s := &runSource{tables: run, start: lo}
			s.fill()
			runs, sources = append(runs, s), append(sources, s)
		}
		return nil
	}
	inputs := [][]tableMeta{plan.srcMetas}
	if plan.level == 0 {
		inputs = inputs[:0]
		for i := len(plan.srcMetas) - 1; i >= 0; i-- {
			inputs = append(inputs, plan.srcMetas[i:i+1])
		}
	}
	for _, run := range append(inputs, plan.dstIn) {
		if err := addRun(run); err != nil {
			return nil, 0, err
		}
	}

	// Merged entries go straight into the table writer, which copies each
	// into its image at once — they are views of the sources' readahead
	// buffers, gone after the next step of the merge.
	merged := newMergeIterator(sources)
	maxOut := db.opts.CompactionTableBytes
	w := db.newTableWriter(plan.dst, maxOut)
	defer w.release()
	outBytes := 0
	flushOut := func() error {
		if w.entries() == 0 {
			return nil
		}
		meta, err := w.finish(db.next.Add(1) - 1)
		if err != nil {
			return err
		}
		db.stats.physicalBytesWrite.Add(uint64(meta.size))
		newMetas = append(newMetas, meta)
		outBytes = 0
		return nil
	}
	for merged.next() {
		e := merged.entry()
		if hi != nil && bytes.Compare(e.key, hi) >= 0 {
			break
		}
		if e.tombstone && plan.dropTombstones {
			// Saturating decrement: compaction may drop tombstones
			// recovered from disk that this process never counted.
			for {
				cur := db.stats.tombstonesLive.Load()
				if cur == 0 || db.stats.tombstonesLive.CompareAndSwap(cur, cur-1) {
					break
				}
			}
			continue
		}
		w.add(e.key, e.value, e.tombstone)
		outBytes += len(e.key) + len(e.value)
		if outBytes >= maxOut {
			if err := flushOut(); err != nil {
				return nil, 0, err
			}
		}
	}
	// A corrupt input table must abort the compaction: writing out the
	// partial merge would silently drop every entry past the bad block.
	if err := merged.err(); err != nil {
		return nil, 0, fmt.Errorf("compaction aborted: %w", err)
	}
	if err := flushOut(); err != nil {
		return nil, 0, err
	}
	for _, s := range runs {
		s.close()
		readBytes += int64(s.read)
	}
	return newMetas, readBytes, nil
}

// runSource walks a key-ordered run of disjoint tables as one merge source.
// It starts each table's walk only when the previous one is exhausted and
// closes that one an advance later (the source lifetime rule), so a merge
// holds one table's readahead per run however many tables the run has.
type runSource struct {
	tables []*tableReader // tables still to walk
	start  []byte
	cur    *tableSource
	done   []*tableSource // exhausted, closed on the next advance
	read   int            // bytes consumed by closed walks
}

// fill starts walks until the current one has an entry or has failed, or
// the run ends.
func (s *runSource) fill() {
	for len(s.tables) > 0 && (s.cur == nil || !s.cur.ok && s.cur.err() == nil) {
		if s.cur != nil {
			s.done = append(s.done, s.cur)
		}
		s.cur, s.tables = newTableSourceBypass(s.tables[0], s.start), s.tables[1:]
	}
}

func (s *runSource) peek() (entry, bool) { return s.cur.peek() }

func (s *runSource) err() error { return s.cur.err() }

func (s *runSource) advance() {
	s.retire()
	s.cur.advance()
	s.fill()
}

// retire closes the exhausted walks.
func (s *runSource) retire() {
	for _, ts := range s.done {
		s.read += ts.bytesConsumed()
		ts.close()
	}
	s.done = s.done[:0]
}

// close ends the walk; it is idempotent.
func (s *runSource) close() {
	if s.cur != nil {
		s.done, s.cur = append(s.done, s.cur), nil
	}
	s.retire()
}

// installCompactionLocked swaps the merged tables into the version and
// returns the tables made obsolete. Called with db.mu held. The edit is
// incremental — exactly the job's inputs leave, its outputs enter — so the
// installs of concurrent range-disjoint jobs commute. A move's inputs are its
// outputs, so it makes nothing obsolete and retireTables never unlinks them.
func (db *DB) installCompactionLocked(plan compactionPlan, newMetas []tableMeta, readBytes int64) []tableMeta {
	db.stats.reads.addPhysical(uint64(readBytes))
	if plan.move {
		db.stats.trivialMoves.Add(1)
		for _, m := range plan.srcMetas {
			db.stats.trivialMoveBytes.Add(uint64(m.size))
		}
	} else {
		db.stats.compactionCount.Add(1)
	}
	db.levels[plan.level] = removeTables(db.levels[plan.level], plan.srcMetas)
	newDst := append(removeTables(db.levels[plan.dst], plan.dstIn), newMetas...)
	sort.Slice(newDst, func(i, j int) bool {
		return bytes.Compare(newDst[i].smallest, newDst[j].smallest) < 0
	})
	db.levels[plan.dst] = newDst
	if plan.move {
		return nil
	}
	return append(append([]tableMeta(nil), plan.srcMetas...), plan.dstIn...)
}

// removeTables returns level without the tables in gone, preserving order
// (L0 recency order matters).
func removeTables(level, gone []tableMeta) []tableMeta {
	if len(gone) == 0 {
		return level
	}
	goneNums := make(map[uint64]struct{}, len(gone))
	for _, m := range gone {
		goneNums[m.num] = struct{}{}
	}
	kept := make([]tableMeta, 0, len(level))
	for _, m := range level {
		if _, ok := goneNums[m.num]; !ok {
			kept = append(kept, m)
		}
	}
	return kept
}

// retireTables drops the version's reader references for tables a compaction
// replaced and, when unlink is set, deletes their files. Runs without db.mu,
// after the install that took them out of db.levels: point reads that began
// before it have finished, scans and merges still on these tables hold their
// own references, so the last unref — not this call — closes the file and
// purges the table's cached blocks. Deleting the file under a live reader is
// safe: the OS keeps unlinked files readable through open descriptors, and
// MemFS read handles snapshot.
func (db *DB) retireTables(obsolete []tableMeta, unlink bool) {
	for _, m := range obsolete {
		m.h.release()
		if unlink {
			// Best-effort: an orphaned table is dead weight, not a hazard — the
			// manifest no longer references it, so recovery never reads it.
			db.fs.Remove(tablePath(db.dir, m.num))
		}
	}
}
