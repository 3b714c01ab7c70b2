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
// background worker is running), flush-queue depth, the blob files, and the
// degraded latch.
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
		ll := append([]string{"level", fmt.Sprintf("%d", level)}, labels...)
		r.GaugeFunc(obs.Name("ethkv_lsm_level_tables", ll...), func() float64 {
			return float64(db.LevelSizes()[level].Tables)
		})
		r.GaugeFunc(obs.Name("ethkv_lsm_level_bytes", ll...), func() float64 {
			return float64(db.LevelSizes()[level].Bytes)
		})
	}
	r.GaugeFunc(obs.Name("ethkv_lsm_compaction_debt_bytes", labels...), func() float64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return float64(compactionDebt(db.current, db.opts))
	})
	r.GaugeFunc(obs.Name("ethkv_lsm_flush_queue_depth", labels...), func() float64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return float64(len(db.imm))
	})
	r.GaugeFunc(obs.Name("ethkv_lsm_compactions_inflight", labels...), func() float64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		if db.compacting {
			return 1
		}
		return 0
	})
	r.GaugeFunc(obs.Name("ethkv_lsm_open_tables", labels...), func() float64 {
		return float64(db.openTables())
	})
	// Blob files (value separation): how many the version references. The
	// bytes their handles cover, and the rest, are the store gauges
	// ethkv_store_live_data_bytes and ethkv_store_dead_data_bytes.
	r.GaugeFunc(obs.Name("ethkv_lsm_blob_files", labels...), func() float64 {
		return float64(db.BlobStats().Files)
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
	for _, metas := range db.current {
		for _, m := range metas {
			if m.h.r.Load() != nil {
				n++
			}
		}
	}
	return n
}
