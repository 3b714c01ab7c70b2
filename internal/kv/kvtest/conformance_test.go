package kvtest_test

import (
	"testing"

	"ethkv/internal/storetest"
)

// Every store the repository builds is a row of storetest's table; each test
// here runs one row: the contract checks of this package plus every ending
// the row supports.

func TestMemStoreConformance(t *testing.T) { storetest.Run(t, "mem") }
func TestLSMConformance(t *testing.T)      { storetest.Run(t, "lsm") }

// TestLSMTinyBlockCacheConformance runs the LSM with a block cache far
// smaller than the working set, so every scan and point read churns it and
// evicts blocks mid-iteration.
func TestLSMTinyBlockCacheConformance(t *testing.T) { storetest.Run(t, "lsm/tiny-cache") }

// TestLSMNoBlockCacheConformance: every block read goes to the filesystem.
func TestLSMNoBlockCacheConformance(t *testing.T) { storetest.Run(t, "lsm/no-cache") }

func TestLSMCompactionWorkersConformance(t *testing.T) { storetest.Run(t, "lsm/4-workers") }
func TestLSMSyncLatencyConformance(t *testing.T)       { storetest.Run(t, "lsm/sync-latency") }
func TestFlatStoreConformance(t *testing.T)            { storetest.Run(t, "flat") }

// TestFlatStoreTinyCompactionConformance: generation rewrites fire
// constantly mid-suite.
func TestFlatStoreTinyCompactionConformance(t *testing.T) { storetest.Run(t, "flat/tiny-compaction") }

func TestHybridConformance(t *testing.T)            { storetest.Run(t, "hybrid/mem") }
func TestLazyStoreConformance(t *testing.T)         { storetest.Run(t, "lazy") }
func TestInstrumentedStoreConformance(t *testing.T) { storetest.Run(t, "instrumented") }
func TestTracedStoreConformance(t *testing.T)       { storetest.Run(t, "traced") }
