// Command tracegen collects KV operation traces: it builds a genesis state,
// imports synthetic blocks through the instrumented Geth-style storage
// stack, and writes CacheTrace/BareTrace files — the equivalent of running
// the paper's modified Geth client, without needing an Ethereum peer.
//
// Usage:
//
//	tracegen -dir traces -blocks 1000 -mode both
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ethkv/internal/backends"
	"ethkv/internal/chain"
	"ethkv/internal/lab"
)

func main() {
	var (
		dir        = flag.String("dir", "traces", "output directory for trace files")
		blocks     = flag.Int("blocks", 1000, "number of blocks to import (the artifact samples 1000)")
		mode       = flag.String("mode", "both", "trace mode: bare, cached, or both")
		accounts   = flag.Int("accounts", 20000, "pre-seeded EOA population")
		contracts  = flag.Int("contracts", 1500, "pre-seeded contract population")
		txPerBlock = flag.Int("tx", 150, "transactions per block")
		seed       = flag.Int64("seed", 42, "workload RNG seed")
		backend    = flag.String("backend", "mem", "storage backend: "+backends.Kinds()+" (persistent backends leave a census-able database)")
	)
	flag.Parse()

	workload := chain.DefaultWorkload()
	workload.Accounts = *accounts
	workload.Contracts = *contracts
	workload.TxPerBlock = *txPerBlock
	workload.Seed = *seed

	modes := map[string][]lab.Mode{
		"bare":   {lab.Bare},
		"cached": {lab.Cached},
		"both":   {lab.Bare, lab.Cached},
	}[*mode]
	if modes == nil {
		log.Fatalf("unknown -mode %q (want bare, cached, or both)", *mode)
	}

	for _, m := range modes {
		runDir := filepath.Join(*dir, m.String())
		if err := os.MkdirAll(runDir, 0o755); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("collecting %s: %d blocks, %d accounts, %d contracts...\n",
			m, *blocks, *accounts, *contracts)
		res, err := lab.Run(lab.Config{
			Mode:     m,
			Blocks:   *blocks,
			Workload: workload,
			Dir:      runDir,
			Backend:  *backend,
		})
		if err != nil {
			log.Fatalf("%s run failed: %v", m, err)
		}
		fmt.Printf("  trace: %s\n", res.Path)
		fmt.Printf("  blocks=%d txs=%d frozen=%d store-pairs=%d\n",
			res.Stats.Blocks, res.Stats.Txs, res.Stats.Frozen, res.Store.Total)
	}
}
