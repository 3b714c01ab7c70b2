package main

import (
	"ethkv/internal/kv"
)

// metricDef names one metric. BENCHMARK.json lists the same names and units;
// the tests hold the two together.
type metricDef struct {
	name, unit string
}

// endToEndDefs are what a user of the stack sees. Every workload reports
// every one of them, from the untraced run only.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"call_p50_us", "us"},
	{"write_amp", "ratio"},
	{"peak_rss_mib", "MiB"},
}

// perLayerDefs are the single-layer metrics, prefixed with the module they
// belong to. They come from the traced run. A layer that is not part of a
// workload's composition reports 0.
var perLayerDefs = []metricDef{
	{"client.read_p50_us", "us"},
	{"client.read_p99_us", "us"},
	{"client.write_p50_us", "us"},
	{"client.write_p99_us", "us"},
	{"client.scan_kpairs_per_s", "kpair/s"},
	{"client.read_amp", "ratio"},
	{"client.space_amp", "ratio"},
	{"client.cpu_us_per_op", "us"},

	{"kvnet.self_us_per_op", "us"},
	{"kvnet.self_share", "ratio"},
	{"kvnet.ops_per_frame", "ratio"},
	{"kvnet.frames_per_kop", "count"},
	{"kvnet.wire_bytes_per_op", "B"},
	{"kvnet.server_op_p99_us", "us"},

	{"shard.self_us_per_op", "us"},
	{"shard.max_child_op_share", "ratio"},
	{"shard.children_per_batch", "ratio"},
	{"shard.sweep_self_us_per_kpair", "us"},

	{"hybrid.busy_us_per_op", "us"},
	{"hybrid.ops_share_lsm", "ratio"},
	{"hybrid.ops_share_flat", "ratio"},
	{"hybrid.ops_share_hash", "ratio"},
	{"hybrid.routes", "count"},
	{"policy.derive_ms", "ms"},

	{"lsm.flushes_per_mop", "count"},
	{"lsm.compactions_per_mop", "count"},
	{"lsm.subcompactions_per_mop", "count"},
	{"lsm.write_stalls_per_mop", "count"},
	{"lsm.stall_share", "ratio"},
	{"lsm.compaction_debt_peak_mib", "MiB"},
	{"lsm.max_concurrent_compactions", "count"},
	{"lsm.compaction_parallel_share", "ratio"},
	{"lsm.settle_s", "s"},
	{"lsm.block_cache_hit_rate", "ratio"},
	{"lsm.block_cache_evictions_per_kop", "count"},
	{"lsm.bloom_negatives_per_get", "ratio"},
	{"lsm.bloom_false_positive_rate", "ratio"},
	{"lsm.phys_reads_per_get", "ratio"},
	{"lsm.phys_read_bytes_per_get", "B"},
	{"lsm.tombstones_live", "count"},

	{"faultfs.wal_syncs_per_commit", "ratio"},
	{"faultfs.syncs_per_mop", "count"},
	{"faultfs.sync_wait_s", "s"},
	{"faultfs.wal_bytes_per_user_byte", "ratio"},
	{"faultfs.sst_bytes_per_user_byte", "ratio"},
	{"faultfs.write_calls_per_mop", "count"},
	{"faultfs.mean_write_bytes", "B"},

	{"flatstore.phys_reads_per_get", "ratio"},
	{"flatstore.dead_bytes_share", "ratio"},
	{"hashstore.phys_read_bytes_per_get", "B"},

	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms_total", "ms"},

	{"lab.trace_gen_s", "s"},
	{"lab.blocks_per_s", "1/s"},
	{"lab.trace_ops", "count"},
	{"bench.trace_overhead_share", "ratio"},
}

// statsDelta subtracts the cumulative counters; gauges and high-water marks
// keep a's value.
func statsDelta(a, b kv.Stats) kv.Stats {
	d := a
	d.Gets -= b.Gets
	d.Puts -= b.Puts
	d.Deletes -= b.Deletes
	d.Scans -= b.Scans
	d.LogicalBytesRead -= b.LogicalBytesRead
	d.LogicalBytesWritten -= b.LogicalBytesWritten
	d.PhysicalBytesRead -= b.PhysicalBytesRead
	d.PhysicalBytesWrite -= b.PhysicalBytesWrite
	d.CompactionCount -= b.CompactionCount
	d.FlushCount -= b.FlushCount
	d.WriteStalls -= b.WriteStalls
	d.WriteStallNanos -= b.WriteStallNanos
	d.BlockCacheHits -= b.BlockCacheHits
	d.BlockCacheMisses -= b.BlockCacheMisses
	d.BlockCacheEvictions -= b.BlockCacheEvictions
	d.BloomNegatives -= b.BloomNegatives
	d.BloomFalsePositives -= b.BloomFalsePositives
	d.PhysicalReadOps -= b.PhysicalReadOps
	d.SubCompactions -= b.SubCompactions
	d.CompactionParallelNanos -= b.CompactionParallelNanos
	return d
}

func pointOps(s kv.Stats) float64 { return float64(s.Gets + s.Puts + s.Deletes) }

// callSamples merges the clients' samples of the given latency classes.
func (r *phaseResult) callSamples(classes ...int) []uint32 {
	var out []uint32
	for _, c := range r.clients {
		for _, class := range classes {
			out = append(out, c.lat[class]...)
		}
	}
	return out
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func (r *phaseResult) endToEnd(setupS float64) map[string]float64 {
	ops := float64(r.ops())
	calls := r.callSamples(latRead, latWrite, latScan)
	st := r.after.stats
	return map[string]float64{
		"setup_s":     setupS,
		"ops_per_s":   ratio(ops, r.wallS()),
		"call_p50_us": percentileUs(calls, 0.50),
		// Store lifetime, preload included: the one definition that holds
		// on the workload that writes nothing while timed.
		"write_amp":    ratio(float64(st.PhysicalBytesWrite), float64(st.LogicalBytesWritten)),
		"peak_rss_mib": r.peakRSSMiB,
	}
}

// perLayer computes the single-layer metrics of a traced phase. untraced is
// the same workload's untraced phase, for the tracing overhead.
func (r *phaseResult) perLayer(untraced *phaseResult) map[string]float64 {
	m := make(map[string]float64, len(perLayerDefs))
	ops := float64(r.ops())
	mops, kops := ops/1e6, ops/1e3
	wallNs := r.wallS() * 1e9
	rec := r.rec

	// client: what each kind of call costs the caller.
	reads, writes := r.callSamples(latRead), r.callSamples(latWrite)
	m["client.read_p50_us"] = percentileUs(reads, 0.50)
	m["client.read_p99_us"] = percentileUs(reads, 0.99)
	m["client.write_p50_us"] = percentileUs(writes, 0.50)
	m["client.write_p99_us"] = percentileUs(writes, 0.99)
	var sweepPairs, sweepNs int64
	for _, c := range r.clients {
		sweepPairs += c.sweepPairs
		sweepNs += c.sweepNs
	}
	m["client.scan_kpairs_per_s"] = ratio(float64(sweepPairs)/1e3, float64(sweepNs)/1e9)
	all := statsDelta(r.after.stats, r.before.stats)
	m["client.read_amp"] = ratio(float64(all.PhysicalBytesRead), float64(all.LogicalBytesRead))
	m["client.space_amp"] = ratio(float64(r.diskBytes), float64(r.in.liveBytes))
	m["client.cpu_us_per_op"] = ratio((r.after.cpuS-r.before.cpuS)*1e6, ops)

	// Seam arithmetic.
	clientNs := rec.busyNs(seamClient)
	self := selfTimeOf(clientNs, rec.busyNs(seamServerStore), rec.busyNs(seamShardChild), r.wl.served, r.wl.sharded)
	m["kvnet.self_us_per_op"] = ratio(float64(self.kvnetNs)/1e3, ops)
	m["kvnet.self_share"] = ratio(float64(self.kvnetNs), float64(clientNs))
	net := r.after.net.sub(r.before.net)
	m["kvnet.ops_per_frame"] = ratio(float64(net.pointOps), float64(net.opFrames))
	m["kvnet.frames_per_kop"] = ratio(float64(net.frames), kops)
	m["kvnet.wire_bytes_per_op"] = ratio(float64(net.bytes), ops)
	m["kvnet.server_op_p99_us"] = r.serverGetP99

	m["shard.self_us_per_op"] = ratio(float64(self.shardNs)/1e3, ops)
	var shardOps, maxShardOps float64
	for i, after := range r.after.shards {
		n := pointOps(statsDelta(after, r.before.shards[i]))
		shardOps += n
		if n > maxShardOps {
			maxShardOps = n
		}
	}
	m["shard.max_child_op_share"] = ratio(maxShardOps, shardOps)
	if r.wl.sharded {
		above := seamClient
		if r.wl.served {
			above = seamServerStore
		}
		m["shard.children_per_batch"] = ratio(float64(rec.count(seamShardChild, opBatch)), float64(rec.count(above, opBatch)))
		iterSelf := rec.busyNs(above, opSweep) - rec.busyNs(seamShardChild, opSweep)
		m["shard.sweep_self_us_per_kpair"] = ratio(float64(iterSelf)/1e3, float64(rec.items(above, opSweep))/1e3)
	}

	m["hybrid.busy_us_per_op"] = ratio(float64(self.hybridNs)/1e3, ops)
	kinds := make(map[string]kv.Stats)
	var kindOps float64
	for kind, after := range r.after.kinds {
		kinds[kind] = statsDelta(after, r.before.kinds[kind])
		kindOps += pointOps(kinds[kind])
	}
	if r.wl.sharded {
		m["hybrid.ops_share_lsm"] = ratio(pointOps(kinds["lsm"]), kindOps)
		m["hybrid.ops_share_flat"] = ratio(pointOps(kinds["flat"]), kindOps)
		m["hybrid.ops_share_hash"] = ratio(pointOps(kinds["hash"]), kindOps)
		m["hybrid.routes"] = float64(len(r.in.policy().Routes))
		m["policy.derive_ms"] = r.in.deriveMs
	}

	l := kinds["lsm"]
	m["lsm.flushes_per_mop"] = ratio(float64(l.FlushCount), mops)
	m["lsm.compactions_per_mop"] = ratio(float64(l.CompactionCount), mops)
	m["lsm.subcompactions_per_mop"] = ratio(float64(l.SubCompactions), mops)
	m["lsm.write_stalls_per_mop"] = ratio(float64(l.WriteStalls), mops)
	m["lsm.stall_share"] = ratio(float64(l.WriteStallNanos), wallNs)
	m["lsm.compaction_debt_peak_mib"] = float64(l.CompactionDebtPeak) / (1 << 20)
	m["lsm.max_concurrent_compactions"] = float64(l.MaxConcurrentCompactions)
	m["lsm.compaction_parallel_share"] = ratio(float64(l.CompactionParallelNanos), wallNs)
	m["lsm.settle_s"] = r.settleS
	m["lsm.block_cache_hit_rate"] = l.BlockCacheHitRate()
	m["lsm.block_cache_evictions_per_kop"] = ratio(float64(l.BlockCacheEvictions), kops)
	m["lsm.bloom_negatives_per_get"] = ratio(float64(l.BloomNegatives), float64(l.Gets))
	m["lsm.bloom_false_positive_rate"] = ratio(float64(l.BloomFalsePositives), float64(l.BloomFalsePositives+l.BloomNegatives))
	// The LSM does not count read calls; a block-cache miss is one block
	// fetched from the filesystem.
	m["lsm.phys_reads_per_get"] = ratio(float64(l.BlockCacheMisses), float64(l.Gets))
	m["lsm.phys_read_bytes_per_get"] = ratio(float64(l.PhysicalBytesRead), float64(l.Gets))
	m["lsm.tombstones_live"] = float64(l.TombstonesLive)

	if r.wl.durable {
		f := r.after.fs.sub(r.before.fs)
		userBytes := float64(all.LogicalBytesWritten)
		m["faultfs.wal_syncs_per_commit"] = ratio(float64(f.walSyncs), float64(len(writes)))
		m["faultfs.syncs_per_mop"] = ratio(float64(f.walSyncs+f.otherSyncs), mops)
		m["faultfs.sync_wait_s"] = float64(f.syncWaitNs) / 1e9
		m["faultfs.wal_bytes_per_user_byte"] = ratio(float64(f.walBytes), userBytes)
		m["faultfs.sst_bytes_per_user_byte"] = ratio(float64(f.sstBytes), userBytes)
		m["faultfs.write_calls_per_mop"] = ratio(float64(f.writeCalls), mops)
		m["faultfs.mean_write_bytes"] = ratio(float64(f.walBytes+f.sstBytes+f.otherBytes), float64(f.writeCalls))
	}

	fl, hs := kinds["flat"], kinds["hash"]
	m["flatstore.phys_reads_per_get"] = ratio(float64(fl.PhysicalReadOps), float64(fl.Gets))
	m["flatstore.dead_bytes_share"] = ratio(float64(fl.DeadDataBytes), float64(fl.DeadDataBytes+fl.LiveDataBytes))
	m["hashstore.phys_read_bytes_per_get"] = ratio(float64(hs.PhysicalBytesRead), float64(hs.Gets))

	mem0, mem1 := &r.before.mem, &r.after.mem
	m["go.allocs_per_op"] = ratio(float64(mem1.Mallocs-mem0.Mallocs), ops)
	m["go.alloc_bytes_per_op"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), ops)
	m["go.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	m["go.gc_pause_ms_total"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6

	m["lab.trace_gen_s"] = r.in.genSeconds
	m["lab.blocks_per_s"] = ratio(float64(r.in.scale.blocks), r.in.genSeconds)
	m["lab.trace_ops"] = float64(len(r.in.ops))
	m["bench.trace_overhead_share"] = 1 - ratio(ratio(ops, r.wallS()), ratio(float64(untraced.ops()), untraced.wallS()))

	for _, d := range perLayerDefs {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0 // the layer is not part of this composition
		}
	}
	return m
}
