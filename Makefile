# ethkv build targets. The module is offline (Go stdlib only); everything
# here is plain go tooling.

GO ?= go

.PHONY: all build test race bench bench-kernels bench-kernels-once bench-rig bench-repo check coverage-drive crashtest determinism fuzz vet fmt fmtcheck repro artifacts clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The default pre-merge gate: static checks (gofmt, vet) plus the full
# suite under the race detector (the analysis engine's collector
# goroutines and the lock-free metrics in internal/obs must stay
# race-clean — `race` covers ./... including internal/obs and the
# kv.Instrument decorator), a wide crash-recovery sweep, the LSM
# byte-identity and crash-determinism suites repeated, the repo
# benchmark's own vet + tests (a nested module `./...` never enters),
# and one iteration of every kernel benchmark (`go test`
# compiles benchmarks but never runs them). The end-to-end checks are Go
# tests, so `race` covers them: census equivalence across backend, policy,
# shard count and compaction width (TestCensusInvariantAcrossCompositions
# in internal/backends), and the serving, metrics and block-cache wiring
# of the binaries (cmd/*/main_test.go, in-process on 127.0.0.1:0).
check: build fmtcheck vet race crashtest determinism bench-rig bench-kernels-once

# Crash-recovery fault injection: internal/storetest's crash ending swept
# over hundreds of seeds per row of its table — lsm, flat, sharded, hybrid and
# shard->hybrid compositions on the injectable VFS, verified against the
# workload's model (the sweeps are internal/lsm/crashtest's tests).
# ETHKV_CRASHTEST_SEEDS widens every sweep; ETHKV_CRASHTEST_SEED replays one
# seed of any of them.
crashtest:
	ETHKV_CRASHTEST_SEEDS=200 $(GO) test -race -run TestCrashRecovery ./internal/lsm/crashtest/

# The suites that pin what scheduling may never change — worker-width byte
# identity (TestSubCompactionEquivalence keeps its name: one merge per
# compaction writes the same tables at any pool width), one compaction per
# store however wide the pool (TestConcurrentCompactionsOverlap: never two
# merges in flight in one store, still side by side across stores), trivial
# moves (a move beside flushes, and that its files survive its retire and a
# crash), crash fingerprints (internal/lsm/crashtest's replays of
# storetest's crash ending), the commit pipeline's apply-order-is-log-order
# and barrier-watermark rules, kvnet's connection-death suite (every op
# completes exactly once when a connection dies), and the analysis engine's
# equivalence suite (one goroutine per collector must equal the sequential
# Observe loop) — repeated under the race detector: a scheduling-dependent
# divergence shows up in one run of twenty, not in one.
determinism:
	$(GO) test -race -count=20 -run 'TestSubCompactionEquivalence|TestCompactionWorkerInvariance|TestConcurrentCompactionsOverlap|TestTrivialMove|TestCrashRecovery.*Deterministic|TestApplyOrderIsLogOrder|TestBarrierSharedByWatermark' ./internal/lsm/...
	$(GO) test -race -count=20 -run 'TestClientFailStopExactlyOnce|TestClientSurfaces|TestClientRejectsShortBatchResponse|TestScanSurfacesServerIteratorError' ./internal/kvnet/
	$(GO) test -race -count=20 -run 'TestEngineEquivalenceSlice|TestEngineEquivalenceReader|TestEngineFindingsEquivalence|TestCollectWrappersMatchSequential' ./internal/analysis/

# The §V ablations (E12-E13 of DESIGN.md), the sweeps and the store-latency
# benchmarks, once each. Tables and figures E1-E11 are `make repro`.
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

# The same, one iteration each, plus the fan-out core's merged scan, the
# analysis engine's single pass, the in-memory store's prefix scan (the
# freezer migration's per-block scan, beside 0 and 200k keys of other
# classes) and one table's round trip through MemFS: keeps them compiling
# and running.
bench-kernels-once:
	$(GO) test -run NONE -bench '$(KERNELS)' -benchtime 1x ./internal/lsm
	$(GO) test -run NONE -bench FanoutMerge -benchtime 1x ./internal/fanout
	$(GO) test -run NONE -bench EngineSinglePass -benchtime 1x ./internal/analysis
	$(GO) test -run NONE -bench MemStorePrefixScan -benchtime 1x ./internal/kv
	$(GO) test -run NONE -bench MemFSTableRoundTrip -benchtime 1x ./internal/faultfs

# One run of one repo-benchmark workload, as the driver runs it:
#   make bench-repo WORKLOAD=blockbatch_wal_lsm SEED=1 [TRACE=1]
# TRACE=1 adds the traced pass and prints the per-layer metrics.
WORKLOAD ?= blockbatch_wal_lsm
SEED ?= 1
TRACE ?= 0
bench-repo:
	bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 10 --trace $(TRACE)

# Dead-code drive: builds the three CLIs, the five examples and the
# benchmark rig with coverage into a temporary directory, drives every
# subcommand and store composition, and prints the functions no run reached
# (0.0%). A name only tests reach is a deletion candidate; keep test hooks,
# decoders that check a writer, error paths and what bench_test.go uses.
# Everything it writes stays in the temporary directory; not part of check.
EXAMPLES = quickstart workload-analysis hybrid-store correlation-cache lazy-promotion
coverage-drive:
	@set -e; S=$$(mktemp -d); srv=; trap '[ -n "$$srv" ] && kill $$srv 2>/dev/null; rm -rf $$S' EXIT; \
	mkdir -p $$S/bin $$S/data; export GOCOVERDIR=$$S/data; \
	for c in ethkvlab replaybench kvserver; do $(GO) build -cover -coverpkg=./... -o $$S/bin/$$c ./cmd/$$c; done; \
	for e in $(EXAMPLES); do $(GO) build -cover -coverpkg=./... -o $$S/bin/$$e ./examples/$$e; done; \
	(cd benchmark && $(GO) build -cover -coverpkg=ethkv/... -o $$S/bin/rig .); \
	run() { echo "+ $$*"; "$$@" > $$S/last.log 2>&1 || { cat $$S/last.log; exit 1; }; }; \
	run $$S/bin/ethkvlab -blocks 40 -out $$S/art; \
	run $$S/bin/ethkvlab gen -dir $$S/g -blocks 40 -mode both -backend lsm; \
	B=$$S/g/BareTrace/BareTrace.bin; C=$$S/g/CacheTrace/CacheTrace.bin; \
	run $$S/bin/ethkvlab opdist -trace $$C; \
	run $$S/bin/ethkvlab corr -trace $$B -op read; \
	run $$S/bin/ethkvlab corr -trace $$B -op update; \
	run $$S/bin/ethkvlab stat -trace $$C; \
	run $$S/bin/ethkvlab sizedist -backend lsm -db $$S/g/CacheTrace/store; \
	for b in lsm flat hybrid; do run $$S/bin/replaybench -trace $$B -backend $$b -census $$S/census-$$b.json; done; \
	run $$S/bin/replaybench -trace $$B -policy auto -policy-out $$S/policy.json -shards 3 -metrics-addr 127.0.0.1:0; \
	$$S/bin/kvserver -addr 127.0.0.1:0 -shards 2 -dir $$S/kvs > $$S/kvserver.log 2>&1 & srv=$$!; \
	for i in $$(seq 50); do grep -q ' on 127' $$S/kvserver.log && break; sleep 0.1; done; \
	addr=$$(sed -n 's/.* on \(127[0-9.:]*\)$$/\1/p' $$S/kvserver.log); \
	run $$S/bin/replaybench -trace $$B -serve $$addr -clients 4 -duration 2s; \
	kill -INT $$srv; wait $$srv; srv=; \
	for e in $(EXAMPLES); do run $$S/bin/$$e; done; \
	for w in mixed_lsm_local mixed_stack_served readscan_stack_local blockbatch_wal_lsm; do \
	  run $$S/bin/rig -dir $$S/rig -spec $(CURDIR)/BENCHMARK.json -workload $$w -seed 1 -seconds 2; done; \
	$(GO) tool covdata func -i=$$S/data | awk '$$NF=="0.0%"'

# Short fuzz passes over the binary decoders, the policy file parser and
# the unrolled Keccak permutation (against its loop-form reference).
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
	$(GO) test -run=NONE -fuzz=FuzzPolicyParse -fuzztime=10s ./internal/policy/
	$(GO) test -run=NONE -fuzz=FuzzPermute -fuzztime=10s ./internal/keccak/

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Fails, listing the files, when any Go file differs from gofmt's output.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed (run make fmt):"; echo "$$out"; exit 1; fi

# The full paper reproduction: both traces, every table/figure, the
# 11-findings checklist (~15 s at 300 blocks on a 2-core host).
repro:
	$(GO) run ./cmd/ethkvlab -blocks 300

# Reproduction plus the artifact-layout output tree.
artifacts:
	$(GO) run ./cmd/ethkvlab -blocks 300 -out artifacts

clean:
	rm -rf artifacts traces
	$(GO) clean -testcache
