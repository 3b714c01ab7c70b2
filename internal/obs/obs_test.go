package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("ops_total") != c {
		t.Fatal("Counter not get-or-create")
	}
	g := r.Gauge("queue_depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	r.GaugeFunc("answer", func() float64 { return 42 })
	r.GaugeFunc("bogus", func() float64 { return math.NaN() })

	snap := r.Snapshot()
	if snap.Counters["ops_total"] != 5 || snap.Gauges["queue_depth"] != 5 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	if snap.Gauges["answer"] != 42 {
		t.Fatalf("gauge func = %v, want 42", snap.Gauges["answer"])
	}
	if snap.Gauges["bogus"] != 0 {
		t.Fatalf("NaN gauge func = %v, want 0", snap.Gauges["bogus"])
	}
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(1024)
	s := h.snapshot()
	if s.Count != 5 || s.Sum != 1030 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	// 0 → bucket 0, 1 → bucket 1, {2,3} → bucket 2, 1024 → bucket 11.
	for i, want := range map[int]uint64{0: 1, 1: 1, 2: 2, 11: 1} {
		if s.Buckets[i] != want {
			t.Fatalf("bucket[%d] = %d, want %d", i, s.Buckets[i], want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 samples uniform in [1, 1000].
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.snapshot()
	// Log2 buckets bound the estimate within a factor of two of the truth.
	checks := []struct {
		q    float64
		true float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if got < c.true/2 || got > c.true*2 {
			t.Errorf("q%.3f = %.1f, want within [%.1f, %.1f]", c.q, got, c.true/2, c.true*2)
		}
	}
	if s.Count != 1000 || s.Sum != 500500 {
		t.Errorf("count, sum = %d, %d, want 1000, 500500", s.Count, s.Sum)
	}
	// Degenerate cases.
	var empty Histogram
	if q := empty.snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	if s.Quantile(-1) > s.Quantile(2) {
		t.Error("clamped quantiles out of order")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Name("lat", "op", "get"))
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

func TestNameAndSplit(t *testing.T) {
	n := Name("op_latency_ns", "op", "get", "store", "lsm")
	if n != `op_latency_ns{op="get",store="lsm"}` {
		t.Fatalf("Name = %s", n)
	}
	base, labels := splitName(n)
	if base != "op_latency_ns" || labels != `op="get",store="lsm"` {
		t.Fatalf("splitName = %q, %q", base, labels)
	}
	base, labels = splitName("plain")
	if base != "plain" || labels != "" {
		t.Fatalf("splitName(plain) = %q, %q", base, labels)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("reqs_total", "op", "get")).Add(3)
	r.Gauge("depth").Set(2)
	h := r.Histogram(Name("lat_ns", "op", "get"))
	h.Observe(5)
	h.Observe(100)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{op="get"} 3`,
		"# TYPE depth gauge",
		"depth 2",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{op="get",le="7"} 1`,
		`lat_ns_bucket{op="get",le="+Inf"} 2`,
		`lat_ns_sum{op="get"} 105`,
		`lat_ns_count{op="get"} 2`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Histogram(Name("ethkv_op_latency_ns", "op", "get")).Observe(1234)
	addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "ethkv_op_latency_ns_bucket") {
		t.Fatalf("/metrics missing histogram series:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestFormatQuantiles(t *testing.T) {
	var h Histogram
	if got := FormatQuantiles(h.snapshot()); got != "no samples" {
		t.Fatalf("empty = %q", got)
	}
	for i := 0; i < 1000; i++ {
		h.Observe(2000) // ~2µs
	}
	got := FormatQuantiles(h.snapshot())
	if !strings.Contains(got, "p50=") || !strings.Contains(got, "p999=") {
		t.Fatalf("quantile summary = %q", got)
	}
	if !strings.Contains(got, "µs") {
		t.Fatalf("expected microsecond unit in %q", got)
	}
}

// BenchmarkHistogramObserve pins the hot-path cost: two atomic adds, no
// allocation.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func ExampleName() {
	fmt.Println(Name("op_latency_ns", "op", "get"))
	// Output: op_latency_ns{op="get"}
}
