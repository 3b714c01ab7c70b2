// Lazy promotion: Finding 3 observes that most world-state pairs are never
// read after being written, yet the LSM pays indexing and compaction for
// all of them. This example replays a measured workload against §V's
// remedy — append writes to a log, promote to the indexed store only on
// first read — and reports how much indexed-store work disappears.
//
//	go run ./examples/lazy-promotion
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ethkv/internal/backends"
	"ethkv/internal/chain"
	"ethkv/internal/hybrid"
	"ethkv/internal/lab"
	"ethkv/internal/lsm"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

func main() {
	workload := chain.DefaultWorkload()
	workload.Accounts = 4000
	workload.Contracts = 400
	workload.TxPerBlock = 80
	fmt.Println("collecting a 120-block BareTrace workload...")
	res, err := lab.Run(lab.Config{Mode: lab.Bare, Blocks: 120, Workload: workload})
	if err != nil {
		log.Fatal(err)
	}

	// Keep only the world-state stream: the classes Finding 3 talks about.
	var ops []trace.Op
	for _, op := range res.Ops {
		if op.Class == rawdb.ClassTrieNodeAccount || op.Class == rawdb.ClassTrieNodeStorage {
			ops = append(ops, op)
		}
	}
	fmt.Printf("world-state trie stream: %d ops\n\n", len(ops))

	tmp, err := os.MkdirTemp("", "lazy-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	lsmOpts := backends.LSMOptions()

	// Baseline: every write goes straight into the LSM.
	direct, err := lsm.Open(filepath.Join(tmp, "direct"), lsmOpts)
	if err != nil {
		log.Fatal(err)
	}
	directRes, err := hybrid.Replay(direct, ops)
	if err != nil {
		log.Fatal(err)
	}
	if err := directRes.Settle(direct); err != nil {
		log.Fatal(err)
	}
	direct.Close()

	// Lazy: writes stage in a log; only read keys reach the LSM.
	indexed, err := lsm.Open(filepath.Join(tmp, "lazy"), lsmOpts)
	if err != nil {
		log.Fatal(err)
	}
	lazy := hybrid.NewLazyStore(indexed)
	lazyRes, err := hybrid.Replay(lazy, ops)
	if err != nil {
		log.Fatal(err)
	}
	if err := lazyRes.Settle(lazy); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("direct-to-LSM: %.1f MiB physical writes, %d compactions\n",
		float64(directRes.Stats.PhysicalBytesWrite)/(1<<20), directRes.Stats.CompactionCount)
	fmt.Printf("lazy-promote:  %.1f MiB physical writes, %d compactions\n",
		float64(lazyRes.Stats.PhysicalBytesWrite)/(1<<20), lazyRes.Stats.CompactionCount)
	fmt.Printf("\n%d keys written; only %d were ever read and promoted (%d still staged)\n",
		lazyRes.Writes, lazy.Promotions(), lazy.StagedCount())
	fmt.Printf("the indexed store never saw %.1f%% of written keys (Finding 3's never-read majority)\n",
		float64(lazy.StagedCount())/float64(lazyRes.Writes)*100)
	lazy.Close()
}
