package analysis_test

import (
	"testing"

	"ethkv/internal/analysis"
	"ethkv/internal/chain"
	"ethkv/internal/lab"
	"ethkv/internal/trace"
)

// BenchmarkEngineSinglePass times the paper's analysis pass as ethkvlab runs
// it on each trace: one engine scan feeding the op census and the read and
// update correlators, over a generated CacheTrace.
func BenchmarkEngineSinglePass(b *testing.B) {
	workload := chain.DefaultWorkload()
	workload.Accounts = 4000
	workload.Contracts = 400
	workload.TxPerBlock = 80
	res, err := lab.Run(lab.Config{Mode: lab.Cached, Blocks: 40, Workload: workload})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := analysis.NewEngine()
		e.AddOpDist(nil)
		e.AddCorrelator(trace.OpRead)
		e.AddCorrelator(trace.OpUpdate)
		if err := e.RunSlice(res.Ops); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Ops))*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}
