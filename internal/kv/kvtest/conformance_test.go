package kvtest

import (
	"os"
	"path/filepath"
	"testing"

	"ethkv/internal/flatstore"
	"ethkv/internal/hybrid"
	"ethkv/internal/kv"
	"ethkv/internal/lsm"
	"ethkv/internal/obs"
	"ethkv/internal/rawdb"
	"ethkv/internal/trace"
)

// stompBytes overwrites n bytes of the file at off with 0xFF — a run of
// continuation bytes that no uvarint-framed record decodes through.
func stompBytes(t *testing.T, path string, off, n int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off+n > len(raw) {
		t.Fatalf("file %s too short to corrupt (%d bytes)", path, len(raw))
	}
	for i := 0; i < n; i++ {
		raw[off+i] = 0xFF
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Every store backend in the repository passes the same contract.

func TestMemStoreConformance(t *testing.T) {
	Run(t, func(t *testing.T) kv.Store {
		s := kv.NewMemStore()
		t.Cleanup(func() { s.Close() })
		return s
	}, Options{})
}

func TestLSMConformance(t *testing.T) {
	lsmOpts := lsm.Options{
		MemtableBytes:       8 << 10, // force flushes mid-suite
		L0CompactionTrigger: 2,
		LevelBaseBytes:      32 << 10,
	}
	var lastDir string
	Run(t, func(t *testing.T) kv.Store {
		lastDir = t.TempDir()
		db, err := lsm.Open(lastDir, lsmOpts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}, Options{
		Reopen: func(t *testing.T, s kv.Store) kv.Store {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			db, err := lsm.Open(lastDir, lsmOpts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		},
		CorruptScan: func(t *testing.T, s kv.Store) kv.Store {
			// Push everything into SSTables, then break the entry framing
			// of each table's first data block (it starts at file offset 0;
			// byte 0 is the entry's flags, bytes 1+ its key-length varint).
			// Footers stay valid, so reopening accepts the tables.
			if err := s.(*lsm.DB).Flush(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			tables, err := filepath.Glob(filepath.Join(lastDir, "*.sst"))
			if err != nil || len(tables) == 0 {
				t.Fatalf("no tables to corrupt (err=%v)", err)
			}
			for _, p := range tables {
				stompBytes(t, p, 1, 10)
			}
			db, err := lsm.Open(lastDir, lsmOpts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		},
	})
}

// TestLSMTinyBlockCacheConformance reruns the LSM contract with a block
// cache far smaller than the working set (256 B/shard — under one 4 KiB
// block), so every scan and point read churns the cache and evicts blocks
// mid-iteration. Behaviour must be indistinguishable from the default cache.
func TestLSMTinyBlockCacheConformance(t *testing.T) {
	lsmOpts := lsm.Options{
		MemtableBytes:       8 << 10,
		L0CompactionTrigger: 2,
		LevelBaseBytes:      32 << 10,
		BlockCacheBytes:     4 << 10,
	}
	var lastDir string
	Run(t, func(t *testing.T) kv.Store {
		lastDir = t.TempDir()
		db, err := lsm.Open(lastDir, lsmOpts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}, Options{
		Reopen: func(t *testing.T, s kv.Store) kv.Store {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			db, err := lsm.Open(lastDir, lsmOpts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		},
	})
}

// TestLSMNoBlockCacheConformance covers the cache-disabled path: every block
// read goes straight to the filesystem.
func TestLSMNoBlockCacheConformance(t *testing.T) {
	lsmOpts := lsm.Options{
		MemtableBytes:       8 << 10,
		L0CompactionTrigger: 2,
		LevelBaseBytes:      32 << 10,
		BlockCacheBytes:     -1,
	}
	Run(t, func(t *testing.T) kv.Store {
		db, err := lsm.Open(t.TempDir(), lsmOpts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}, Options{})
}

func TestFlatStoreConformance(t *testing.T) {
	var lastDir string
	Run(t, func(t *testing.T) kv.Store {
		lastDir = t.TempDir()
		s, err := flatstore.Open(lastDir, flatstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}, Options{
		Reopen: func(t *testing.T, s kv.Store) kv.Store {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			fs, err := flatstore.Open(lastDir, flatstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			return fs
		},
		CorruptScan: func(t *testing.T, s kv.Store) kv.Store {
			// Damage the entry file in place and return the SAME store: a
			// reopen would truncate the file at the first bad record, but a
			// live store's resident index still points at the damaged
			// extents, so the per-record crc check on the lazy read path
			// must latch the iterator error. 64 bytes of 0xFF spans more
			// than one 48-byte record, so at least one record the scan
			// visits is destroyed.
			logs, err := filepath.Glob(filepath.Join(lastDir, "flat-*.log"))
			if err != nil || len(logs) == 0 {
				t.Fatalf("no entry file to corrupt (err=%v)", err)
			}
			stompBytes(t, logs[0], 1000, 64)
			return s
		},
	})
}

// TestFlatStoreTinyCompactionConformance reruns the flat contract with a
// compaction threshold small enough that generation rewrites fire
// constantly mid-suite; behaviour must be indistinguishable.
func TestFlatStoreTinyCompactionConformance(t *testing.T) {
	flatOpts := flatstore.Options{CompactAfterDeadBytes: 1 << 10}
	var lastDir string
	Run(t, func(t *testing.T) kv.Store {
		lastDir = t.TempDir()
		s, err := flatstore.Open(lastDir, flatOpts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}, Options{
		Reopen: func(t *testing.T, s kv.Store) kv.Store {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			fs, err := flatstore.Open(lastDir, flatOpts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			return fs
		},
	})
}

func TestHybridConformance(t *testing.T) {
	Run(t, func(t *testing.T) kv.Store {
		s, err := hybrid.NewRouted([]hybrid.Backend{
			{Name: "ordered", Store: kv.NewMemStore()},
			{Name: "point", Store: kv.NewMemStore()},
		}, map[rawdb.Class]int{rawdb.ClassCode: 1, rawdb.ClassTxLookup: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}, Options{})
}

func TestLazyStoreConformance(t *testing.T) {
	Run(t, func(t *testing.T) kv.Store {
		s := hybrid.NewLazyStore(kv.NewMemStore())
		t.Cleanup(func() { s.Close() })
		return s
	}, Options{})
}

func TestInstrumentedStoreConformance(t *testing.T) {
	Run(t, func(t *testing.T) kv.Store {
		s := kv.Instrument(kv.NewMemStore(), obs.NewRegistry(), "store", "mem")
		t.Cleanup(func() { s.Close() })
		return s
	}, Options{})
}

func TestTracedStoreConformance(t *testing.T) {
	Run(t, func(t *testing.T) kv.Store {
		s := trace.WrapStore(kv.NewMemStore(), &trace.SliceSink{})
		t.Cleanup(func() { s.Close() })
		return s
	}, Options{})
}
