package hybrid

import (
	"ethkv/internal/kv"
	"ethkv/internal/trace"
)

// ReplayResult summarizes a trace replay over a store.
type ReplayResult struct {
	Ops     uint64
	Reads   uint64
	Writes  uint64
	Deletes uint64
	Scans   uint64
	Stats   kv.Stats // the store's I/O counters after replay
}

// Settle flushes what store still buffers (kv.Flush) and re-reads its
// counters into r.Stats, so they total the whole run's physical I/O —
// without it an LSM's unflushed memtables are missing from the writes.
// Replay does not settle: replaybench replays in chunks, and a flush per
// chunk would change what it measures.
func (r *ReplayResult) Settle(store kv.Store) error {
	if err := kv.Flush(store); err != nil {
		return err
	}
	if sp, ok := store.(kv.StatsProvider); ok {
		r.Stats = sp.Stats()
	}
	return nil
}

// Replay drives the recorded operation stream against a store, using each
// op's recorded value size to synthesize payloads. This is how the
// ablations compare backend designs on the *measured* workload rather than
// a synthetic one: the op order, key reuse, and deletion pattern come
// straight from the trace.
func Replay(store kv.Store, ops []trace.Op) (*ReplayResult, error) {
	res := &ReplayResult{}
	// A reusable payload buffer; content is irrelevant to I/O accounting.
	payload := make([]byte, 1<<16)
	for _, op := range ops {
		if op.Hit {
			continue // cache hits never reached the store
		}
		res.Ops++
		switch op.Type {
		case trace.OpRead:
			res.Reads++
			if _, err := store.Get(op.Key); err != nil && !trace.IsNotFound(err) {
				return nil, err
			}
		case trace.OpWrite, trace.OpUpdate:
			res.Writes++
			n := int(op.ValueSize)
			if n > len(payload) {
				payload = make([]byte, n)
			}
			if err := store.Put(op.Key, payload[:n]); err != nil {
				return nil, err
			}
		case trace.OpDelete:
			res.Deletes++
			if err := store.Delete(op.Key); err != nil {
				return nil, err
			}
		case trace.OpScan:
			res.Scans++
			it := store.NewIterator(op.Key, nil)
			// Scans in the workload touch a bounded neighborhood.
			for i := 0; i < 32 && it.Next(); i++ {
			}
			err := it.Error()
			it.Release()
			// A short scan with a non-nil Error() is corruption, not
			// end-of-range; replays must not paper over it.
			if err != nil {
				return nil, err
			}
		}
	}
	if sp, ok := store.(kv.StatsProvider); ok {
		res.Stats = sp.Stats()
	}
	return res, nil
}
