package chain

import (
	"fmt"
	"runtime"

	"ethkv/internal/state"
)

// Pipelined block import. The import loop is staged as
//
//	generator -> executor -> committer
//
// connected by bounded channels. Two hand-offs keep the run bit-identical
// to the sequential loop:
//
//   - RNG hand-off: generation and execution share one deterministic RNG
//     stream, and execution's draw count depends on world state, so draws
//     cannot be precomputed. Instead the executor releases the generator
//     (plan.release) the moment a block's last draw is consumed — right
//     after the destruct roll and the pre-drawn bloom rows — so block N+1's
//     generation overlaps block N's trie commit and persistence while the
//     total draw order stays exactly sequential.
//
//   - Store turnstile: the executor and committer both issue KV operations,
//     so a token serializes them in block order: executor N+1 starts only
//     after committer N finishes. The KV-op trace is therefore byte-
//     identical to the sequential import at any worker count.
//
// The concurrency wins come from the generator running ahead and from the
// state commit fanning its trie hashing across workers
// (state.StateDB.CommitParallel), on top of the storage layer's async
// flush/compaction.

// DefaultImportWorkers returns the import pipeline's worker count,
// GOMAXPROCS.
func DefaultImportWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// blockPlan is one generated block travelling down the pipeline. release
// hands the RNG back to the generator once execution has consumed the
// block's final draw.
type blockPlan struct {
	txs     []*Transaction
	release func()
}

// drawBloomRows draws one section's bloom-bit rows from the workload RNG.
func (p *Processor) drawBloomRows() [][]byte {
	rows := make([][]byte, p.cfg.BloomBitsPerSection)
	for bit := range rows {
		row := make([]byte, 8+int(p.cfg.BloomSectionSize/2))
		p.workload.RNG().Read(row)
		rows[bit] = row
	}
	return rows
}

// execOut carries one executed block from the executor to the committer.
type execOut struct {
	block     *Block
	commit    *state.Commit
	bloomRows [][]byte
}

// ImportBlocksPipelined imports n blocks through the staged pipeline with
// the given fan-out width. workers <= 1 degenerates to the plain sequential
// loop. The KV-op stream is byte-identical to ImportBlocks at any width.
func (p *Processor) ImportBlocksPipelined(n, workers int) error {
	if workers <= 1 || n <= 1 {
		return p.ImportBlocks(n)
	}
	firstNumber := p.head.Number() + 1
	plans := make(chan *blockPlan, 1)
	execs := make(chan execOut, 1)
	// drawsDone alternates RNG ownership between generator and executor;
	// tokens is the store turnstile between committer and executor. Both
	// start loaded so block 1 can generate and execute immediately.
	drawsDone := make(chan struct{}, 1)
	drawsDone <- struct{}{}
	tokens := make(chan struct{}, 1)
	tokens <- struct{}{}
	quit := make(chan struct{})
	defer close(quit)

	go func() {
		defer close(plans)
		for i := 0; i < n; i++ {
			select {
			case <-drawsDone:
			case <-quit:
				return
			}
			plan := &blockPlan{
				txs:     p.workload.GenerateBlockTxs(),
				release: func() { drawsDone <- struct{}{} },
			}
			select {
			case plans <- plan:
			case <-quit:
				return
			}
		}
	}()

	var execErr error
	go func() {
		defer close(execs)
		for plan := range plans {
			select {
			case <-tokens:
			case <-quit:
				return
			}
			block, commit, bloomRows, err := p.executeBlock(plan, workers)
			if err != nil {
				execErr = err
				return
			}
			select {
			case execs <- execOut{block: block, commit: commit, bloomRows: bloomRows}:
			case <-quit:
				return
			}
		}
	}()

	imported := 0
	for out := range execs {
		if err := p.commitBlock(out.block, out.commit, out.bloomRows); err != nil {
			return fmt.Errorf("chain: committing block %d: %w", out.block.Number(), err)
		}
		imported++
		tokens <- struct{}{}
	}
	if execErr != nil {
		return fmt.Errorf("chain: importing block %d: %w", firstNumber+uint64(imported), execErr)
	}
	return nil
}
