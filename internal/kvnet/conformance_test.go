package kvnet_test

import (
	"testing"

	"ethkv/internal/storetest"
)

// The served rows of storetest's table: a kvnet.Client over a live
// in-process loopback server. Reopening one closes the client and dials a
// fresh one — served state must survive a client generation.

func TestConformanceMemBackend(t *testing.T) { storetest.Run(t, "kvnet") }

// TestConformanceLSMBackend serves an LSM — the production pairing — with
// small client batches, so coalescing paths (not just singleton frames) carry
// every check.
func TestConformanceLSMBackend(t *testing.T) { storetest.Run(t, "kvnet/lsm") }

// TestConformanceUnbatched pins batching off (one op per frame) to the same
// contract as the coalescing configurations.
func TestConformanceUnbatched(t *testing.T) { storetest.Run(t, "kvnet/unbatched") }
