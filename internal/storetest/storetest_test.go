package storetest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ethkv/internal/kv"
)

// TestHarnessCatchesCanaries proves the harness is not vacuous: each canary
// is kv.MemStore with one seeded defect, and the workload plus verify must
// report at least one failure for it, while the plain MemStore reports none.
func TestHarnessCatchesCanaries(t *testing.T) {
	same := func(s kv.Store) kv.Store { return s }
	dropped := &dropsLastBatch{MemStore: kv.NewMemStore()}
	for _, tc := range []struct {
		name  string
		store kv.Store
		end   func(kv.Store) kv.Store
		catch bool
	}{
		{"memstore", kv.NewMemStore(), same, false},
		{"reopen drops the last acknowledged batch", dropped, dropped.reopen, true},
		{"Get returns the first-written value", &staleGets{MemStore: kv.NewMemStore(), first: map[string][]byte{}}, same, true},
		{"scan skips a key", skipsKey{kv.NewMemStore()}, same, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := failures(t, tc.store, tc.end)
			switch {
			case tc.catch && len(got) == 0:
				t.Fatal("the harness reported no failure")
			case !tc.catch && len(got) > 0:
				t.Fatalf("the harness reported %d failures, first: %s", len(got), got[0])
			}
		})
	}
}

// failures runs one writer's workload on s (so the canaries need no locks),
// ends it with end, verifies exactly, and returns what the harness reported.
func failures(t *testing.T, s kv.Store, end func(kv.Store) kv.Store) []string {
	var got []string
	fail := func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) }
	cfg := Config{Seed: 1, Units: 200}.withDefaults()
	logs, err := workload(s, cfg, fail)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	verify(end(s), cfg.Seed, logs, true, fail)
	return got
}

// dropsLastBatch loses its last acknowledged batch on reopen.
type dropsLastBatch struct {
	*kv.MemStore
	undo []kv.Op // what the last batch's keys held before it
}

func (s *dropsLastBatch) NewBatch() kv.Batch {
	return &hookedBatch{before: func(ops []kv.Op) {
		s.undo = s.undo[:0]
		for _, op := range ops {
			v, err := s.Get(op.Key)
			s.undo = append(s.undo, kv.Op{Key: op.Key, Value: v, Delete: errors.Is(err, kv.ErrNotFound)})
		}
	}, w: s.MemStore}
}

func (s *dropsLastBatch) reopen(kv.Store) kv.Store {
	for _, op := range s.undo {
		op.Apply(s.MemStore)
	}
	return s
}

// staleGets answers Get with the first value ever written to a key.
type staleGets struct {
	*kv.MemStore
	first map[string][]byte
}

func (s *staleGets) Put(key, value []byte) error {
	if _, ok := s.first[string(key)]; !ok {
		s.first[string(key)] = bytes.Clone(value)
	}
	return s.MemStore.Put(key, value)
}

func (s *staleGets) Get(key []byte) ([]byte, error) {
	v, err := s.MemStore.Get(key)
	if first, ok := s.first[string(key)]; ok && err == nil {
		return first, nil
	}
	return v, err
}

func (s *staleGets) NewBatch() kv.Batch { return &hookedBatch{w: s} }

// skipsKey's scans skip their first key.
type skipsKey struct{ *kv.MemStore }

func (s skipsKey) NewIterator(prefix, start []byte) kv.Iterator {
	it := s.MemStore.NewIterator(prefix, start)
	it.Next()
	return it
}

// hookedBatch shows its ops to before, then replays them into w, so a
// canary's write hooks see batched writes too.
type hookedBatch struct {
	kv.OpBatch
	before func([]kv.Op)
	w      kv.Writer
}

func (b *hookedBatch) Write() error {
	if b.before != nil {
		b.before(b.Ops)
	}
	return b.Replay(b.w)
}
