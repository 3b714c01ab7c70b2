package kvnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ethkv/internal/kv"
)

// TestClientFailStopExactlyOnce is the regression test for op completion
// during connection death under the default fail-stop model: when the
// server dies mid-traffic, every outstanding op must complete exactly once
// — returning an error, never hanging (a lost completion would park its
// caller forever) and never finishing twice (a double finish panics on the
// second close of the op's done channel, which -race and this test would
// surface). Afterwards the client must be latched: every future op fails
// immediately with the fatal error.
func TestClientFailStopExactlyOnce(t *testing.T) {
	store := kv.NewMemStore()
	addr, srv := startServer(t, store, silentOpts())
	c := dialT(t, addr, ClientOptions{Conns: 2, Window: 4})
	defer c.Close()

	const workers = 8
	var wg sync.WaitGroup
	var sawError atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				key := []byte(fmt.Sprintf("w%d-%06d", w, i))
				if err := c.Put(key, []byte("v")); err != nil {
					sawError.Add(1)
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond) // let concurrent traffic build
	srv.Close()                       // cut every connection mid-window
	wg.Wait()                         // hangs here if any op never completes

	if sawError.Load() != workers {
		t.Fatalf("%d/%d workers observed the failure", sawError.Load(), workers)
	}
	// The latch: ops after the death fail fast, they do not block.
	start := time.Now()
	if err := c.Put([]byte("after"), []byte("v")); err == nil {
		t.Fatal("client accepted an op after fail-stop latch")
	}
	if _, err := c.doRequest(opStats, nil); err == nil {
		t.Fatal("stats request succeeded on a latched client")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("latched client took %v to fail ops", d)
	}
}

// TestClientRefusesOversizedRequest: a Put or an atomic batch too large
// for one frame is refused with ErrFrameTooLarge before it is sent.
// Shipped, the server would drop the connection and the fail-stop latch
// would then fail every other caller; refused, the client stays usable.
func TestClientRefusesOversizedRequest(t *testing.T) {
	store := kv.NewMemStore()
	addr, _ := startServer(t, store, silentOpts())
	c := dialT(t, addr, ClientOptions{})
	defer c.Close()

	huge := make([]byte, DefaultMaxFrameBytes)
	if err := c.Put([]byte("huge"), huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized Put: %v, want ErrFrameTooLarge", err)
	}
	b := c.NewBatch()
	b.Put([]byte("small"), []byte("v"))
	b.Put([]byte("huge"), huge)
	if err := b.Write(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized Batch.Write: %v, want ErrFrameTooLarge", err)
	}
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put after refused requests: %v", err)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d keys, want only the small Put's", store.Len())
	}
}

// TestDrainStopsBeforeOversizedFrame: coalescing never grows a frame past
// the size limit. An op that fits a frame alone but not beside the ops
// already drained is held for the next frame.
func TestDrainStopsBeforeOversizedFrame(t *testing.T) {
	c := &Client{opts: ClientOptions{BatchMaxOps: 1024}, opq: make(chan *call, 1)}
	small := &call{kind: kindPut, key: []byte("a"), val: make([]byte, 512<<10)}
	big := &call{kind: kindPut, key: []byte("b")}
	big.val = make([]byte, DefaultMaxFrameBytes-opsFrameOverhead-pointOpSize(big))
	if big.frameBytes() > DefaultMaxFrameBytes {
		t.Fatalf("big op needs %d bytes alone; the test wants one that fits", big.frameBytes())
	}
	c.opq <- big
	batch, held := (&clientConn{client: c}).drain(small)
	if len(batch) != 1 || held != big {
		t.Fatalf("drain coalesced %d ops (held %v); the big op must wait for its own frame", len(batch), held != nil)
	}
}
