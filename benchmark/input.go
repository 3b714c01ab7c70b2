package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math/rand"
	"time"

	"ethkv/internal/kv"
	"ethkv/internal/trace"
)

// batchCapBytes cuts a run of writes into batches the way Geth commits a
// block: kv.Batch.ValueSize() reaching ~100 KiB triggers Write.
const batchCapBytes = 100 << 10

// stampLen is the length of the writer stamp at the head of every value
// long enough to hold it.
const stampLen = 8

// input is everything a workload replays, made from the seed alone.
type input struct {
	scale  scale
	ops    []trace.Op
	digest string // SHA-256 of the op stream, stamped into the output

	// expect[i], for a read op i, is 1 + the index of the write whose value
	// the read must return, or 0 when the key must be absent. Every pass
	// starts from the state a full pass leaves behind (the store is
	// preloaded with it), so the expectation is the same in every pass.
	// expectStatic is the same for a workload that replays no writes: every
	// read sees the preloaded state.
	expect       []int32
	expectStatic []int32

	livePairs int   // pairs in the store after a full pass
	liveBytes int64 // their key+value bytes
	reads     int
	writes    int // writes, updates and deletes
	scans     int

	genSeconds float64
	noise      []byte // value filler, so payloads are not all zero

	all      []int32 // 0..len(ops)-1
	pol      *routePolicy
	deriveMs float64
}

// every returns the indices of all ops, for applyWrites.
func (in *input) every() []int32 {
	if in.all == nil {
		in.all = make([]int32, len(in.ops))
		for i := range in.all {
			in.all[i] = int32(i)
		}
	}
	return in.all
}

// policy derives, once, the storage policy from the trace's census.
func (in *input) policy() *routePolicy {
	if in.pol == nil {
		start := time.Now()
		in.pol = derivePolicy(in.ops)
		in.deriveMs = float64(time.Since(start)) / 1e6
	}
	return in.pol
}

func isWrite(t trace.OpType) bool {
	return t == trace.OpWrite || t == trace.OpUpdate || t == trace.OpDelete
}

// newInput generates the trace for seed and derives what verification needs.
func newInput(seed int64, sc scale) (*input, error) {
	start := time.Now()
	ops, err := generateTrace(seed, sc)
	if err != nil {
		return nil, err
	}
	in := &input{scale: sc, genSeconds: time.Since(start).Seconds()}
	// Cache hits never reached the store; a bare-mode trace has none, but
	// dropping them here keeps replay honest if the mode ever changes.
	in.ops = ops[:0]
	for _, op := range ops {
		if !op.Hit {
			in.ops = append(in.ops, op)
		}
	}

	h := sha256.New()
	var rec [10]byte
	for _, op := range in.ops {
		rec[0], rec[1] = byte(op.Type), byte(op.Class)
		binary.BigEndian.PutUint32(rec[2:6], op.ValueSize)
		binary.BigEndian.PutUint32(rec[6:10], uint32(len(op.Key)))
		h.Write(rec[:])
		h.Write(op.Key)
	}
	in.digest = hex.EncodeToString(h.Sum(nil)[:8])

	// First pass: who wrote each key last. Second pass, starting from that
	// state: what each read must see.
	last := make(map[string]int32, len(in.ops)/2)
	apply := func(i int, op trace.Op) {
		switch op.Type {
		case trace.OpWrite, trace.OpUpdate:
			last[string(op.Key)] = int32(i + 1)
		case trace.OpDelete:
			delete(last, string(op.Key))
		}
	}
	for i, op := range in.ops {
		apply(i, op)
	}
	in.livePairs = len(last)
	for k, w := range last {
		in.liveBytes += int64(len(k)) + int64(in.ops[w-1].ValueSize)
	}
	in.expect = make([]int32, len(in.ops))
	in.expectStatic = make([]int32, len(in.ops))
	for i, op := range in.ops {
		if op.Type == trace.OpRead {
			in.expectStatic[i] = last[string(op.Key)]
		}
	}
	for i, op := range in.ops {
		switch {
		case op.Type == trace.OpRead:
			in.expect[i] = last[string(op.Key)]
			in.reads++
		case op.Type == trace.OpScan:
			in.scans++
		default:
			in.writes++
		}
		apply(i, op)
	}

	in.noise = make([]byte, 1<<16)
	rand.New(rand.NewSource(seed)).Read(in.noise)
	return in, nil
}

// value writes op i's payload into buf and returns it: filler bytes of the
// recorded size, headed by the op's index so a read can tell which write it
// observed. The stores copy what they are given, so buf is reused.
func (in *input) value(i int, buf []byte) []byte {
	n := int(in.ops[i].ValueSize)
	if n > len(buf) {
		buf = make([]byte, n)
	}
	v := buf[:n]
	copy(v, in.noise)
	for filled := len(in.noise); filled < n; filled += len(in.noise) {
		copy(v[filled:], in.noise)
	}
	if n >= stampLen {
		binary.BigEndian.PutUint64(v, uint64(i+1))
	}
	return v
}

// checkRead reports whether a Get's result is the value of write w-1, or
// absent for w == 0.
func (in *input) checkRead(w int32, v []byte, found bool) bool {
	if w == 0 {
		return !found
	}
	if !found || len(v) != int(in.ops[w-1].ValueSize) {
		return false
	}
	return len(v) < stampLen || binary.BigEndian.Uint64(v) == uint64(w)
}

// clientOf assigns a key to one of n clients by hash. All ops on a key go
// to one client and replay in trace order, so the final state does not
// depend on how the clients interleave. The FNV hash is mixed once more
// because the shard router partitions by FNV modulo n too: unmixed, each
// client's keys would all live on one shard and no batch would ever split.
func clientOf(key []byte, n int) int {
	if n == 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write(key)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(n))
}

type unitKind uint8

const (
	unitGet unitKind = iota
	unitPut
	unitDelete
	unitScan
	unitBatch
)

// unit is one blocking call a client makes: ops[lo:hi] of its plan. Only a
// batch covers more than one op.
type unit struct {
	kind   unitKind
	lo, hi int32
}

// plan is one client's share of the trace.
type plan struct {
	ops   []int32 // indices into input.ops, in trace order
	units []unit
}

// planMode selects which ops a workload replays and how writes are issued.
type planMode struct {
	reads   bool // replay Gets
	scans   bool // replay the trace's short prefix scans
	writes  bool // replay writes, updates and deletes
	batched bool // commit each run of writes as size-capped batches
}

// plans partitions the trace across n clients by key hash and groups each
// client's ops into units.
func (in *input) plans(n int, mode planMode) []plan {
	out := make([]plan, n)
	open := make([]bool, n)   // client's last unit is a batch still filling
	pending := make([]int, n) // bytes in that batch
	for i, op := range in.ops {
		var kind unitKind
		switch {
		case op.Type == trace.OpRead:
			if !mode.reads {
				continue
			}
			kind = unitGet
		case op.Type == trace.OpScan:
			if !mode.scans {
				continue
			}
			kind = unitScan
		default:
			if !mode.writes {
				continue
			}
			kind = unitPut
			if op.Type == trace.OpDelete {
				kind = unitDelete
			}
		}
		c := clientOf(op.Key, n)
		p := &out[c]
		at := int32(len(p.ops))
		p.ops = append(p.ops, int32(i))
		if !isWrite(op.Type) || !mode.batched {
			open[c] = false
			p.units = append(p.units, unit{kind: kind, lo: at, hi: at + 1})
			continue
		}
		size := len(op.Key)
		if op.Type != trace.OpDelete {
			size += int(op.ValueSize)
		}
		if open[c] {
			p.units[len(p.units)-1].hi = at + 1
			pending[c] += size
		} else {
			p.units = append(p.units, unit{kind: unitBatch, lo: at, hi: at + 1})
			open[c], pending[c] = true, size
		}
		if pending[c] >= batchCapBytes {
			open[c] = false
		}
	}
	return out
}

// applyWrites replays the write ops among idx onto w with the real payloads.
func (in *input) applyWrites(w kv.Writer, idx []int32) error {
	var buf []byte
	for _, i := range idx {
		op := in.ops[i]
		var err error
		switch op.Type {
		case trace.OpWrite, trace.OpUpdate:
			buf = in.value(int(i), buf[:cap(buf)])
			err = w.Put(op.Key, buf)
		case trace.OpDelete:
			err = w.Delete(op.Key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
