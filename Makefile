# ethkv build targets. The module is offline (Go stdlib only); everything
# here is plain go tooling.

GO ?= go

.PHONY: all build test race bench bench-kernels bench-kernels-once bench-rig bench-repo check crashtest determinism fuzz vet fmt repro artifacts obs-smoke cache-smoke serve-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The default pre-merge gate: static checks plus the full suite under the
# race detector (the parallel analysis engine and the lock-free metrics in
# internal/obs must stay race-clean — `race` covers ./... including
# internal/obs and the kv.Instrument decorator), a wide crash-recovery
# sweep, the LSM byte-identity and crash-determinism suites repeated, the
# end-to-end network serving smoke, the repo benchmark's own vet + tests
# (a nested module `./...` never enters), and one iteration of every kernel
# benchmark (`go test` compiles benchmarks but never runs them). Census
# equivalence across backend, policy, shard count and compaction width is a
# Go test, so `race` covers it: TestCensusInvariantAcrossCompositions in
# internal/backends.
check: build vet race crashtest determinism bench-rig bench-kernels-once serve-smoke

# Crash-recovery fault injection: hundreds of seeded workload/crash-point
# replays through the injectable VFS, verified against an in-memory model.
# ETHKV_CRASHTEST_SEEDS widens the sweep; ETHKV_CRASHTEST_SEED replays one
# failing seed.
crashtest:
	ETHKV_CRASHTEST_SEEDS=200 $(GO) test -race -run TestCrashRecovery ./internal/lsm/crashtest/

# The suites that pin what scheduling may never change — sub-compaction and
# worker-width byte identity, crash fingerprints, and the commit pipeline's
# apply-order-is-log-order and barrier-watermark rules — repeated under the
# race detector: a scheduling-dependent divergence shows up in one run of
# twenty, not in one.
determinism:
	$(GO) test -race -count=20 -run 'TestSubCompactionEquivalence|TestCompactionWorkerInvariance|TestCrashRecovery.*Deterministic|TestApplyOrderIsLogOrder|TestBarrierSharedByWatermark' ./internal/lsm/...

# Regenerate every table and figure once (E1-E13 of DESIGN.md).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=NONE .

# The repo benchmark (BENCHMARK.json, benchmark/) is its own Go module, so
# `go vet ./...` and `go test ./...` at the root skip it; this keeps the rig
# compiling against the packages it measures.
bench-rig:
	cd benchmark && $(GO) vet . && $(GO) test .

# The LSM's kernel micro-benchmarks (internal/lsm/kernel_bench_test.go): the
# background write path's merge, table write and range compaction, the
# point-read path's cached Get and block search, on MemFS, and the durable
# commit path's barrier sharing under 1, 2 and 8 writers over 200 µs syncs.
# -cpu 1,2 because what the read kernels measure is largely what two readers
# cost each other.
KERNELS = MergeIterator|TableWrite|CompactRange|GetCached|BlockSearch|CommitParallel
bench-kernels:
	$(GO) test -run NONE -bench '$(KERNELS)' -cpu 1,2 -benchmem ./internal/lsm

# The same, one iteration each, plus the fan-out core's merged scan: keeps
# them compiling and running.
bench-kernels-once:
	$(GO) test -run NONE -bench '$(KERNELS)' -benchtime 1x ./internal/lsm
	$(GO) test -run NONE -bench FanoutMerge -benchtime 1x ./internal/fanout

# One run of one repo-benchmark workload, as the driver runs it:
#   make bench-repo WORKLOAD=blockbatch_wal_lsm SEED=1 [TRACE=1]
# TRACE=1 adds the traced pass and prints the per-layer metrics.
WORKLOAD ?= blockbatch_wal_lsm
SEED ?= 1
TRACE ?= 0
bench-repo:
	bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 10 --trace $(TRACE)

# Short fuzz passes over the binary decoders.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecodeString -fuzztime=10s ./internal/rlp/
	$(GO) test -run=NONE -fuzz=FuzzSplitList -fuzztime=10s ./internal/rlp/
	$(GO) test -run=NONE -fuzz=FuzzReader -fuzztime=10s ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzDecodeNode -fuzztime=10s ./internal/trie/
	$(GO) test -run=NONE -fuzz=FuzzWALReplay -fuzztime=10s ./internal/lsm/
	$(GO) test -run=NONE -fuzz=FuzzSSTableOpen -fuzztime=10s ./internal/lsm/
	$(GO) test -run=NONE -fuzz=FuzzSSTableScan -fuzztime=10s ./internal/lsm/
	$(GO) test -run=NONE -fuzz=FuzzBlockRead -fuzztime=10s ./internal/lsm/
	$(GO) test -run=NONE -fuzz=FuzzFlatEntryReplay -fuzztime=10s ./internal/flatstore/
	$(GO) test -run=NONE -fuzz=FuzzServerRequestDecode -fuzztime=10s ./internal/kvnet/
	$(GO) test -run=NONE -fuzz=FuzzShardRouting -fuzztime=10s ./internal/shard/

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# The full paper reproduction: both traces, every table/figure, the
# 11-findings checklist (~60s at 300 blocks).
repro:
	$(GO) run ./cmd/ethkvlab -blocks 300

# Reproduction plus the artifact-layout output tree.
artifacts:
	$(GO) run ./cmd/ethkvlab -blocks 300 -out artifacts

# End-to-end observability smoke: collect a small trace, replay it with the
# metrics server up, scrape /metrics until the per-op latency histogram
# series appear, and touch the pprof index. Fails if the series never show.
OBS_SMOKE_DIR ?= /tmp/ethkv-obs-smoke
OBS_SMOKE_ADDR ?= 127.0.0.1:8321
obs-smoke:
	rm -rf $(OBS_SMOKE_DIR) && mkdir -p $(OBS_SMOKE_DIR)
	$(GO) run ./cmd/tracegen -dir $(OBS_SMOKE_DIR)/traces -blocks 20 -mode bare \
		-accounts 2000 -contracts 200 -tx 40
	$(GO) build -o $(OBS_SMOKE_DIR)/replaybench ./cmd/replaybench
	$(OBS_SMOKE_DIR)/replaybench -trace $(OBS_SMOKE_DIR)/traces/BareTrace/BareTrace.bin \
		-backend lsm -metrics-addr $(OBS_SMOKE_ADDR) -metrics-hold 30s \
		> $(OBS_SMOKE_DIR)/replay.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 60); do \
		if curl -sf http://$(OBS_SMOKE_ADDR)/metrics > $(OBS_SMOKE_DIR)/metrics.txt 2>/dev/null \
			&& grep -q '^ethkv_op_latency_ns_bucket' $(OBS_SMOKE_DIR)/metrics.txt; then \
			echo "obs-smoke: op latency histogram series present"; \
			curl -sf http://$(OBS_SMOKE_ADDR)/debug/pprof/ > /dev/null \
				&& echo "obs-smoke: pprof index reachable"; \
			kill $$pid 2>/dev/null; \
			exit 0; \
		fi; \
		sleep 1; \
	done; \
	echo "obs-smoke: FAILED (series never appeared)"; \
	cat $(OBS_SMOKE_DIR)/replay.log; kill $$pid 2>/dev/null; exit 1

# Network serving smoke test: start a real kvserver, replay a generated
# trace through the batching kvnet client (replaybench -serve), and assert
# from the server's live Prometheus endpoint that op coalescing actually
# happened (nonzero ethkv_server_coalesced_ops_total).
SERVE_SMOKE_DIR ?= /tmp/ethkv-serve-smoke
SERVE_SMOKE_ADDR ?= 127.0.0.1:9423
SERVE_SMOKE_METRICS ?= 127.0.0.1:8323
serve-smoke:
	rm -rf $(SERVE_SMOKE_DIR) && mkdir -p $(SERVE_SMOKE_DIR)
	$(GO) run ./cmd/tracegen -dir $(SERVE_SMOKE_DIR)/traces -blocks 20 -mode bare \
		-accounts 2000 -contracts 200 -tx 40
	$(GO) build -o $(SERVE_SMOKE_DIR)/kvserver ./cmd/kvserver
	$(GO) build -o $(SERVE_SMOKE_DIR)/replaybench ./cmd/replaybench
	$(SERVE_SMOKE_DIR)/kvserver -backend lsm -addr $(SERVE_SMOKE_ADDR) \
		-metrics-addr $(SERVE_SMOKE_METRICS) -dir $(SERVE_SMOKE_DIR)/db \
		> $(SERVE_SMOKE_DIR)/server.log 2>&1 & \
	pid=$$!; \
	up=0; for i in $$(seq 1 30); do \
		curl -sf http://$(SERVE_SMOKE_METRICS)/metrics > /dev/null 2>&1 && { up=1; break; }; \
		sleep 0.5; \
	done; \
	if [ $$up -ne 1 ]; then echo "serve-smoke: FAILED (server never came up)"; \
		cat $(SERVE_SMOKE_DIR)/server.log; kill $$pid 2>/dev/null; exit 1; fi; \
	$(SERVE_SMOKE_DIR)/replaybench -trace $(SERVE_SMOKE_DIR)/traces/BareTrace/BareTrace.bin \
		-serve $(SERVE_SMOKE_ADDR) -clients 16 -conns 2 \
		> $(SERVE_SMOKE_DIR)/replay.log 2>&1; \
	rc=$$?; \
	curl -sf http://$(SERVE_SMOKE_METRICS)/metrics > $(SERVE_SMOKE_DIR)/metrics.txt 2>/dev/null; \
	kill $$pid 2>/dev/null; \
	if [ $$rc -ne 0 ]; then echo "serve-smoke: FAILED (replay)"; \
		cat $(SERVE_SMOKE_DIR)/replay.log; exit 1; fi; \
	awk '/^ethkv_server_coalesced_ops_total/ { if ($$2+0 > 0) found=1 } END { exit !found }' \
		$(SERVE_SMOKE_DIR)/metrics.txt || { \
		echo "serve-smoke: FAILED (server saw no coalesced ops)"; \
		grep '^ethkv_server' $(SERVE_SMOKE_DIR)/metrics.txt; exit 1; }; \
	grep -E 'overall:|transport:' $(SERVE_SMOKE_DIR)/replay.log; \
	echo "serve-smoke: batched serving OK (server observed coalesced frames)"

clean:
	rm -rf artifacts traces
	$(GO) clean -testcache

# Block-cache smoke test: replay a small trace against the LSM backend with
# a 4 MiB block cache and assert, from the live Prometheus endpoint, that
# the cache actually served hits (nonzero ethkv_store_block_cache_hits).
CACHE_SMOKE_DIR ?= /tmp/ethkv-cache-smoke
CACHE_SMOKE_ADDR ?= 127.0.0.1:8322
cache-smoke:
	rm -rf $(CACHE_SMOKE_DIR) && mkdir -p $(CACHE_SMOKE_DIR)
	$(GO) run ./cmd/tracegen -dir $(CACHE_SMOKE_DIR)/traces -blocks 80 -mode bare \
		-accounts 4000 -contracts 400 -tx 120
	$(GO) build -o $(CACHE_SMOKE_DIR)/replaybench ./cmd/replaybench
	$(CACHE_SMOKE_DIR)/replaybench -trace $(CACHE_SMOKE_DIR)/traces/BareTrace/BareTrace.bin \
		-backend lsm -block-cache-mb 4 -metrics-addr $(CACHE_SMOKE_ADDR) -metrics-hold 60s \
		> $(CACHE_SMOKE_DIR)/replay.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 60); do \
		if curl -sf http://$(CACHE_SMOKE_ADDR)/metrics > $(CACHE_SMOKE_DIR)/metrics.txt 2>/dev/null \
			&& awk '/^ethkv_store_block_cache_hits\{/ { if ($$NF+0 > 0) found=1 } END { exit !found }' \
				$(CACHE_SMOKE_DIR)/metrics.txt; then \
			echo "cache-smoke: block cache serving hits"; \
			grep '^ethkv_store_block_cache' $(CACHE_SMOKE_DIR)/metrics.txt; \
			kill $$pid 2>/dev/null; \
			exit 0; \
		fi; \
		sleep 1; \
	done; \
	echo "cache-smoke: FAILED (no block cache hits observed)"; \
	cat $(CACHE_SMOKE_DIR)/replay.log; kill $$pid 2>/dev/null; exit 1
