// Hybrid store: replay a measured workload against the single-LSM baseline
// and against §V's class-routed hybrid design, and compare I/O costs — the
// paper's central design recommendation, evaluated (ablation E12).
//
//	go run ./examples/hybrid-store
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
)

func main() {
	// Collect a real workload trace first.
	workload := chain.DefaultWorkload()
	workload.Accounts = 4000
	workload.Contracts = 400
	workload.TxPerBlock = 80
	fmt.Println("collecting a 120-block BareTrace workload...")
	res, err := lab.Run(lab.Config{Mode: lab.Bare, Blocks: 120, Workload: workload})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d operations\n\n", len(res.Ops))

	tmp, err := os.MkdirTemp("", "hybrid-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// replay opens one factory-built store, replays the trace and closes it.
	replay := func(kind string) *hybrid.ReplayResult {
		st, err := backends.Open(kind, filepath.Join(tmp, kind), backends.Options{})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		r, err := hybrid.Replay(st, res.Ops)
		if err != nil {
			log.Fatal(err)
		}
		if err := r.Settle(st); err != nil {
			log.Fatal(err)
		}
		return r
	}
	// Baseline: everything on one LSM store (Geth's configuration).
	baseline := replay("lsm")
	// Hybrid, under the factory's default policy: scan classes on the LSM,
	// lifecycle-delete classes and world-state point reads on the
	// single-seek flat store.
	hyb := replay("hybrid")

	fmt.Println("replaying the same measured workload against both designs:")
	printRow := func(name string, r *hybrid.ReplayResult) {
		fmt.Printf("  %-10s physWrite=%8.1f MiB  physRead=%8.1f MiB  writeAmp=%.2f  tombstones=%d  compactions=%d\n",
			name,
			float64(r.Stats.PhysicalBytesWrite)/(1<<20),
			float64(r.Stats.PhysicalBytesRead)/(1<<20),
			r.Stats.WriteAmplification(),
			r.Stats.TombstonesLive,
			r.Stats.CompactionCount)
	}
	printRow("LSM-only", baseline)
	printRow("hybrid", hyb)

	fmt.Printf("\n%s\n", writeRatio(hyb.Stats.PhysicalBytesWrite, baseline.Stats.PhysicalBytesWrite))
}

// writeRatio is the closing sentence: the hybrid's physical write bytes as a
// multiple of the LSM-only baseline's, which reads right whichever is larger.
func writeRatio(hyb, base uint64) string {
	return fmt.Sprintf("hybrid writes %.2f× the LSM's physical bytes", float64(hyb)/float64(base))
}
