package chain

import (
	"bytes"
	"runtime"
	"testing"

	"ethkv/internal/trace"
)

// pipelineWorkerCounts are the fan-out widths the equivalence tests run.
func pipelineWorkerCounts() []int {
	counts := []int{2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// importOps runs an n-block import at the given width over a traced store
// and returns the full op stream plus the head hash and run stats.
func importOps(t *testing.T, cached bool, n, workers int) ([]trace.Op, [32]byte, Stats) {
	t.Helper()
	proc, sink := buildPipeline(t, cached)
	var err error
	if workers <= 1 {
		err = proc.ImportBlocks(n)
	} else {
		err = proc.ImportBlocksPipelined(n, workers)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	return sink.Ops, proc.Head().Hash(), proc.Stats()
}

// TestImportPipelinedEquivalence: the staged pipeline must produce the
// byte-identical KV-op stream — same ops, same order, same keys, same hit
// bits — as the sequential import at every worker count, in both bare and
// cached configurations. 40 blocks crosses bloom-section, freezer, tx-index
// and trie-flush boundaries, so every lifecycle path is exercised.
func TestImportPipelinedEquivalence(t *testing.T) {
	const blocks = 40
	for _, cached := range []bool{false, true} {
		name := "bare"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			seqOps, seqHead, seqStats := importOps(t, cached, blocks, 1)
			for _, workers := range pipelineWorkerCounts() {
				parOps, parHead, parStats := importOps(t, cached, blocks, workers)
				if parHead != seqHead {
					t.Fatalf("workers=%d: head hash %x != sequential %x", workers, parHead, seqHead)
				}
				if parStats != seqStats {
					t.Fatalf("workers=%d: stats %+v != sequential %+v", workers, parStats, seqStats)
				}
				if len(parOps) != len(seqOps) {
					t.Fatalf("workers=%d: %d ops vs %d sequential", workers, len(parOps), len(seqOps))
				}
				for i := range seqOps {
					a, b := seqOps[i], parOps[i]
					if a.Type != b.Type || a.Class != b.Class || !bytes.Equal(a.Key, b.Key) ||
						a.ValueSize != b.ValueSize || a.Hit != b.Hit {
						t.Fatalf("workers=%d: op %d diverged:\nseq %+v\npar %+v", workers, i, a, b)
					}
				}
			}
		})
	}
}

// TestImportPipelinedResume: a pipelined import must be resumable — a second
// pipelined batch over the same processor continues the chain exactly where
// a single sequential run of the combined length would be.
func TestImportPipelinedResume(t *testing.T) {
	seqOps, seqHead, _ := importOps(t, true, 30, 1)

	proc, sink := buildPipeline(t, true)
	if err := proc.ImportBlocksPipelined(18, 4); err != nil {
		t.Fatal(err)
	}
	if err := proc.ImportBlocksPipelined(12, 2); err != nil {
		t.Fatal(err)
	}
	if err := proc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if proc.Head().Hash() != seqHead {
		t.Fatalf("resumed pipeline head %x != sequential %x", proc.Head().Hash(), seqHead)
	}
	if len(sink.Ops) != len(seqOps) {
		t.Fatalf("resumed pipeline %d ops != sequential %d", len(sink.Ops), len(seqOps))
	}
	for i := range seqOps {
		if !bytes.Equal(sink.Ops[i].Key, seqOps[i].Key) || sink.Ops[i].Type != seqOps[i].Type {
			t.Fatalf("op %d diverged after resume", i)
		}
	}
}

// TestImportPipelinedSingleWorkerFallback: width 1 must take the exact
// sequential path.
func TestImportPipelinedSingleWorkerFallback(t *testing.T) {
	seqOps, seqHead, _ := importOps(t, false, 10, 1)
	proc, sink := buildPipeline(t, false)
	if err := proc.ImportBlocksPipelined(10, 1); err != nil {
		t.Fatal(err)
	}
	if err := proc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if proc.Head().Hash() != seqHead || len(sink.Ops) != len(seqOps) {
		t.Fatalf("fallback diverged: %d ops vs %d", len(sink.Ops), len(seqOps))
	}
}

// TestDefaultImportWorkers: the import width defaults to GOMAXPROCS.
func TestDefaultImportWorkers(t *testing.T) {
	if got := DefaultImportWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultImportWorkers = %d, want GOMAXPROCS", got)
	}
}
