package lsm

import (
	"fmt"

	"ethkv/internal/kv"
	"ethkv/internal/obs"
)

// RegisterMetrics exports the DB's internal shape into r as callback gauges,
// evaluated at scrape/snapshot time. Alongside the kv.Stats counters this
// surfaces what only the LSM itself knows: per-level table counts and bytes,
// compaction debt (bytes over each level's target — how far behind the
// background worker is running), flush-queue depth, and the degraded latch.
// labels are appended to every series (e.g. store="lsm").
//
// The callbacks take db.mu.RLock; obs.Registry.Snapshot evaluates them
// outside its own lock, so there is no lock-order coupling.
func (db *DB) RegisterMetrics(r *obs.Registry, labels ...string) {
	if r == nil {
		return
	}
	kv.RegisterStatsMetrics(r, db, labels...)

	for level := 0; level < numLevels; level++ {
		level := level
		ll := append([]string{"level", fmt.Sprintf("%d", level)}, labels...)
		r.GaugeFunc(obs.Name("ethkv_lsm_level_tables", ll...), func() float64 {
			tables, _ := db.levelShape(level)
			return float64(tables)
		})
		r.GaugeFunc(obs.Name("ethkv_lsm_level_bytes", ll...), func() float64 {
			_, bytes := db.levelShape(level)
			return float64(bytes)
		})
	}
	r.GaugeFunc(obs.Name("ethkv_lsm_compaction_debt_bytes", labels...), func() float64 {
		return float64(db.compactionDebt())
	})
	r.GaugeFunc(obs.Name("ethkv_lsm_flush_queue_depth", labels...), func() float64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return float64(len(db.imm))
	})
	r.GaugeFunc(obs.Name("ethkv_lsm_compactions_inflight", labels...), func() float64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return float64(len(db.jobs))
	})
	r.GaugeFunc(obs.Name("ethkv_lsm_open_tables", labels...), func() float64 {
		return float64(db.openTables())
	})
	r.GaugeFunc(obs.Name("ethkv_lsm_block_cache_bytes", labels...), func() float64 {
		return float64(db.cache.usedBytes())
	})
	r.GaugeFunc(obs.Name("ethkv_lsm_block_cache_capacity_bytes", labels...), func() float64 {
		return float64(db.cache.capacityBytes())
	})
}

// openTables counts the live tables whose reader has been opened.
func (db *DB) openTables() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, metas := range db.levels {
		for _, m := range metas {
			if m.h.r.Load() != nil {
				n++
			}
		}
	}
	return n
}

// levelShape returns the table count and total bytes of one level.
func (db *DB) levelShape(level int) (tables int, bytes int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if level >= len(db.levels) {
		return 0, 0
	}
	for _, m := range db.levels[level] {
		bytes += m.size
	}
	return len(db.levels[level]), bytes
}

// compactionDebt estimates the bytes the background worker still owes: L0
// bytes once the table count passes the compaction trigger, plus each deeper
// level's overshoot past its size target. Zero means the tree is in shape.
func (db *DB) compactionDebt() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.compactionDebtLocked()
}

// compactionDebtLocked is compactionDebt for callers already holding db.mu
// (either mode); the scheduler uses it as the pool's priority key.
func (db *DB) compactionDebtLocked() int64 {
	var debt int64
	if len(db.levels) == 0 {
		return 0
	}
	if len(db.levels[0]) >= db.opts.L0CompactionTrigger {
		for _, m := range db.levels[0] {
			debt += m.size
		}
	}
	target := db.opts.LevelBaseBytes
	for level := 1; level < len(db.levels)-1; level++ {
		var size int64
		for _, m := range db.levels[level] {
			size += m.size
		}
		if size > target {
			debt += size - target
		}
		target *= levelMultiplier
	}
	return debt
}
