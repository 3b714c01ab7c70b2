package main

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ethkv/internal/kv"
)

// toyScale keeps a full run of every workload within a few seconds.
var toyScale = scale{blocks: 20, accounts: 2000, contracts: 150}

func toyOptions(t *testing.T, traced bool) options {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	return options{seed: 7, seconds: 0.3, traced: traced, dir: dir, scale: toyScale}
}

func TestSpecListsTheMetricsTheCodeEmits(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got []metricDef
	for _, m := range spec.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(got, endToEndDefs) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, code emits %v", got, endToEndDefs)
	}
	got = nil
	for _, m := range spec.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(got, perLayerDefs) {
		t.Errorf("per_layer in BENCHMARK.json = %v, code emits %v", got, perLayerDefs)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, code says %q", i, w.Name, workloads[i].name)
		}
	}
}

func metricNames(m map[string]metricValue) []string {
	var names []string
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func TestEveryWorkloadAtToyScale(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			rep, err := run(wl, toyOptions(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			if got, want := metricNames(rep.Metrics), defNames(endToEndDefs); !reflect.DeepEqual(got, want) {
				t.Fatalf("untraced run emitted %v, want %v", got, want)
			}
			for name, v := range rep.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, v.Value)
				}
			}
		})
		t.Run(wl.name+"/traced", func(t *testing.T) {
			rep, err := run(wl, toyOptions(t, true))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			if got, want := metricNames(rep.Metrics), defNames(perLayerDefs); !reflect.DeepEqual(got, want) {
				t.Fatalf("traced run emitted %v, want %v", got, want)
			}
			// The workloads separate the layers: a layer that is not in the
			// composition reports nothing, one that is reports something.
			for name, v := range rep.Metrics {
				layer := name[:strings.IndexByte(name, '.')]
				var present bool
				switch layer {
				case "kvnet":
					present = wl.served
				case "shard", "hybrid", "policy":
					present = wl.sharded
				case "faultfs":
					present = wl.durable
				default:
					continue
				}
				if !present && v.Value != 0 {
					t.Errorf("%s = %v on a workload without that layer", name, v.Value)
				}
			}
			want := map[string]bool{
				"kvnet.self_share": wl.served, "shard.self_us_per_op": wl.sharded,
				"hybrid.busy_us_per_op": wl.sharded, "faultfs.wal_syncs_per_commit": wl.durable,
				"shard.sweep_self_us_per_kpair": wl.sweep,
			}
			for name, present := range want {
				if present && rep.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, rep.Metrics[name].Value)
				}
			}
		})
	}
}

func TestCorruptedFinalStateFails(t *testing.T) {
	opt := toyOptions(t, false)
	opt.corrupt = true
	wl, _ := workloadByName("mixed_lsm_local")
	rep, err := run(wl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != rep.Attempted {
		t.Fatalf("corrupted state: correct=%v failed=%d of %d, want every op failed", rep.Correct, rep.Failed, rep.Attempted)
	}
}

func TestPlansAreDeterministicAndKeyDisjoint(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	in, err := newInput(7, toyScale)
	if err != nil {
		t.Fatal(err)
	}
	again, err := newInput(7, toyScale)
	if err != nil {
		t.Fatal(err)
	}
	if in.digest != again.digest {
		t.Fatalf("same seed, different traces: %s and %s", in.digest, again.digest)
	}
	mode := planMode{reads: true, scans: true, writes: true, batched: true}
	a, b := in.plans(2, mode), again.plans(2, mode)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different plans")
	}
	owner := make(map[string]int)
	covered := 0
	for c, p := range a {
		if len(p.units) == 0 {
			t.Fatalf("client %d has no work", c)
		}
		next := int32(0)
		for _, u := range p.units {
			if u.lo != next || u.hi <= u.lo {
				t.Fatalf("client %d: unit [%d,%d) does not follow %d", c, u.lo, u.hi, next)
			}
			next = u.hi
			size := 0
			for _, i := range p.ops[u.lo:u.hi] {
				op := in.ops[i]
				if u.kind == unitBatch != isWrite(op.Type) {
					t.Fatalf("op %d of type %v in unit of kind %d", i, op.Type, u.kind)
				}
				size += len(op.Key) + int(op.ValueSize)
			}
			last := in.ops[p.ops[u.hi-1]]
			if u.kind == unitBatch && size-len(last.Key)-int(last.ValueSize) >= batchCapBytes {
				t.Fatalf("batch of %d bytes was full before its last op", size)
			}
		}
		if int(next) != len(p.ops) {
			t.Fatalf("client %d: units cover %d of %d ops", c, next, len(p.ops))
		}
		covered += len(p.ops)
		for k := 1; k < len(p.ops); k++ {
			if p.ops[k] <= p.ops[k-1] {
				t.Fatalf("client %d replays out of trace order", c)
			}
		}
		for _, i := range p.ops {
			key := string(in.ops[i].Key)
			if prev, ok := owner[key]; ok && prev != c {
				t.Fatalf("key %x belongs to clients %d and %d", key, prev, c)
			}
			owner[key] = c
		}
	}
	if covered != len(in.ops) {
		t.Fatalf("plans cover %d of %d ops", covered, len(in.ops))
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	samples := make([]uint32, 100)
	for i := range samples {
		samples[i] = uint32(100 - i) // 1..100, unsorted
	}
	for _, tc := range []struct {
		q    float64
		want uint32
	}{{0.50, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(append([]uint32(nil), samples...), tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := percentile([]uint32{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	// statistics.quantiles([3,1,4], n=4) == [1.0, 3.0, 4.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 4})
	if q1 != 1 || q2 != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 3 4", q1, q2, q3)
	}
}

func TestSelfTimeIsSeamMinusSeamBelow(t *testing.T) {
	served := selfTimeOf(1000, 300, 250, true, true)
	if served.kvnetNs != 700 || served.shardNs != 50 || served.hybridNs != 250 {
		t.Errorf("served: %+v, want kvnet 700, shard 50, hybrid 250", served)
	}
	if sum := served.kvnetNs + served.shardNs + served.hybridNs; sum != 1000 {
		t.Errorf("self times sum to %d, want the client total 1000", sum)
	}
	local := selfTimeOf(1000, 0, 600, false, true)
	if local.kvnetNs != 0 || local.shardNs != 400 || local.hybridNs != 600 {
		t.Errorf("local sharded: %+v, want kvnet 0, shard 400, hybrid 600", local)
	}
	plain := selfTimeOf(1000, 0, 0, false, false)
	if plain != (selfTimes{}) {
		t.Errorf("plain store: %+v, want no layer self times", plain)
	}
}

func TestSpanStoreRecordsNestedSeams(t *testing.T) {
	rec := newRecorder()
	inner := rec.wrap(seamShardChild, 0, slowStore{kv.NewMemStore()})
	outer := rec.wrap(seamClient, 1, inner)
	if err := outer.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := outer.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	b := outer.NewBatch()
	b.Put([]byte("k2"), []byte("v2"))
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	it := outer.NewIterator(nil, nil)
	for it.Next() {
	}
	it.Release()
	for _, op := range []spanOp{opPut, opGet, opBatch, opSweep} {
		if rec.count(seamClient, op) != 1 || rec.count(seamShardChild, op) != 1 {
			t.Errorf("%s: %d client spans, %d child spans, want 1 and 1",
				opNames[op], rec.count(seamClient, op), rec.count(seamShardChild, op))
		}
		if c, ch := rec.busyNs(seamClient, op), rec.busyNs(seamShardChild, op); c < ch {
			t.Errorf("%s: client seam %d ns is inside child seam %d ns", opNames[op], c, ch)
		}
	}
	if got := rec.busyNs(seamShardChild, opGet); got < int64(time.Millisecond) {
		t.Errorf("child get span is %d ns, the store below it sleeps 1 ms", got)
	}
	if got := rec.items(seamClient, opSweep); got != 2 {
		t.Errorf("sweep returned %d pairs, want 2", got)
	}
	rec.stop()
	outer.Get([]byte("k"))
	if rec.count(seamClient, opGet) != 1 {
		t.Error("a stopped recorder kept recording")
	}
	if rows := rec.table(); len(rows) != 8 {
		t.Errorf("table has %d rows, want 8", len(rows))
	}
}

// slowStore makes Get take long enough to see in a span.
type slowStore struct{ kv.Store }

func (s slowStore) Get(key []byte) ([]byte, error) {
	time.Sleep(time.Millisecond)
	return s.Store.Get(key)
}
