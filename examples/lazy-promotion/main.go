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
	db, err := lsm.Open(filepath.Join(tmp, "lazy"), lsmOpts)
	if err != nil {
		log.Fatal(err)
	}
	indexed := &promotedKeys{DB: db, keys: make(map[string]bool)}
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
	var unpromoted uint64
	for _, op := range ops {
		if !op.Hit && (op.Type == trace.OpWrite || op.Type == trace.OpUpdate) && !indexed.keys[string(op.Key)] {
			unpromoted++
		}
	}
	fmt.Printf("\n%d write ops; %d promotions into the indexed store (%d keys still staged)\n",
		lazyRes.Writes, lazy.Promotions(), lazy.StagedCount())
	fmt.Println(unpromotedShare(unpromoted, lazyRes.Writes))
	lazy.Close()
}

// promotedKeys is the lazy store's indexed tier, recording every key put
// into it: the lazy store puts a key there only to promote it.
type promotedKeys struct {
	*lsm.DB
	keys map[string]bool
}

func (p *promotedKeys) Put(key, value []byte) error {
	p.keys[string(key)] = true
	return p.DB.Put(key, value)
}

// unpromotedShare is the closing sentence: the share of replayed write ops
// whose key was never promoted, so the indexed store never saw it.
func unpromotedShare(unpromoted, writes uint64) string {
	return fmt.Sprintf("%d of %d write ops (%.1f%%) wrote a key that was never promoted to the indexed store",
		unpromoted, writes, float64(unpromoted)/float64(writes)*100)
}
