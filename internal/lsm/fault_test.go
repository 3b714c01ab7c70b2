package lsm

// Fault-injection regression tests for the error paths hardened in this
// package: WAL close durability, permanent-failure degradation, and
// transient-fault retry. These run the store against faultfs.MemFS so crash
// semantics (un-synced bytes vanish) are exact and deterministic.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ethkv/internal/faultfs"
	"ethkv/internal/kv"
)

// faultOpts returns small-store options wired to fsys.
func faultOpts(fsys faultfs.FS) Options {
	o := smallOpts()
	o.FS = fsys
	return o
}

// TestWALCloseSyncsBufferedRecords is the regression test for the rotation
// durability barrier: close() must sync, not merely flush. Before the fix,
// records buffered in the WAL reached the OS (volatile) on close but were
// never fsynced, so a crash after rotation — but before the rotated
// memtable flushed to an SSTable — lost them even though a LATER WAL
// generation could hold synced records: a hole in the op sequence, not a
// prefix.
func TestWALCloseSyncsBufferedRecords(t *testing.T) {
	m := faultfs.NewMemFS()
	w, err := openWAL(m, "wal.log", retryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.append(encodeRecord(kv.Op{Key: []byte("k"), Value: []byte("v")})); err != nil {
		t.Fatal(err)
	}
	// No explicit sync: close() itself must be the durability barrier.
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	m.Crash(nil) // drop everything that was not fsynced
	var got int
	err = replayWAL(m, "wal.log", func(op byte, key, value []byte) error {
		got++
		if op != walOpPut || string(key) != "k" || string(value) != "v" {
			t.Fatalf("replayed op=%d key=%q value=%q", op, key, value)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("replayed %d records after crash, want 1 (close did not sync)", got)
	}
}

// TestRotationBarrierSurvivesCrash drives the same property through the DB:
// every record in a closed (rotated-away) WAL generation survives a crash,
// even though the writer never called Flush and the background flush may
// not have installed an SSTable yet.
func TestRotationBarrierSurvivesCrash(t *testing.T) {
	m := faultfs.NewMemFS()
	plan := faultfs.NewPlan(11)
	opts := faultOpts(faultfs.Inject(m, plan))
	opts.MemtableBytes = 2 << 10
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	// Write until the first rotation: all keys accepted while generation 1
	// was active are sealed by the rotation's close-sync.
	val := bytes.Repeat([]byte{7}, 64)
	var sealed []string
	for i := 0; ; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if err := db.Put([]byte(key), val); err != nil {
			t.Fatal(err)
		}
		if db.activeWALPath() != db.walFile(1) {
			break // key i triggered the rotation; it is in generation 1 too
		}
		sealed = append(sealed, key)
	}
	// Crash: the dead process's I/O all fails, then the un-synced tail of
	// every file is discarded.
	plan.TripCrash()
	db.Close() // error expected and irrelevant: the process is "dead"
	m.Crash(plan.TornTail())

	re, err := Open("db", faultOpts(m))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, key := range sealed {
		if _, err := re.Get([]byte(key)); err != nil {
			t.Fatalf("key %q lost across rotation crash: %v", key, err)
		}
	}
}

// TestPermanentFailureDegrades proves the dying-disk path: a permanent
// write fault surfaces to the committing batch, latches the store into
// read-only degraded mode (sticky, reported in Stats), and leaves reads
// serving the surviving state.
func TestPermanentFailureDegrades(t *testing.T) {
	m := faultfs.NewMemFS()
	plan := faultfs.NewPlan(13)
	db, err := Open("db", faultOpts(faultfs.Inject(m, plan)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// From the next write-path op on, the disk rejects all writes.
	plan.SetFailWritesAfter(plan.Writes() + 1)

	b := db.NewBatch()
	b.Put([]byte("b"), []byte("2"))
	err = b.Write() // group commit syncs, so the fault fires here
	if err == nil {
		t.Fatal("batch commit succeeded on a dead disk")
	}
	if faultfs.IsTransient(err) || errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("first failure should surface the root cause, got %v", err)
	}

	// Sticky: every further write path reports degraded mode.
	if err := db.Put([]byte("c"), []byte("3")); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("Put after degrade = %v, want ErrDegraded", err)
	}
	if err := db.Delete([]byte("a")); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("Delete after degrade = %v, want ErrDegraded", err)
	}
	b2 := db.NewBatch()
	b2.Put([]byte("d"), []byte("4"))
	if err := b2.Write(); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("batch after degrade = %v, want ErrDegraded", err)
	}
	if err := db.Flush(); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("Flush after degrade = %v, want ErrDegraded", err)
	}

	// Reads keep being served from the surviving state.
	if v, err := db.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("read in degraded mode = %q, %v", v, err)
	}
	if s := db.Stats(); s.Degraded != 1 {
		t.Fatalf("Stats.Degraded = %d, want 1", s.Degraded)
	}
}

// TestFlushFailureDegrades drives the permanent fault through the
// background path: with the WAL disabled, the first FS writes after Open
// are the memtable flush, so the failure lands in bgWork and must still
// degrade the store and wake stalled callers instead of wedging them.
func TestFlushFailureDegrades(t *testing.T) {
	m := faultfs.NewMemFS()
	plan := faultfs.NewPlan(17)
	opts := faultOpts(faultfs.Inject(m, plan))
	opts.DisableWAL = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	plan.SetFailWritesAfter(plan.Writes() + 1)
	if err := db.Flush(); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("Flush with failing table writes = %v, want ErrDegraded", err)
	}
	// The un-flushed memtable still serves reads.
	if v, err := db.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("read after background degrade = %q, %v", v, err)
	}
	if s := db.Stats(); s.Degraded != 1 {
		t.Fatalf("Stats.Degraded = %d, want 1", s.Degraded)
	}
}

// TestTransientFaultsAbsorbedByRetry proves the other half of the fault
// taxonomy: retryable faults are absorbed by bounded backoff, the workload
// completes, every write survives, and the retries are visible in Stats.
func TestTransientFaultsAbsorbedByRetry(t *testing.T) {
	m := faultfs.NewMemFS()
	plan := faultfs.NewPlan(19)
	plan.TransientProb = 0.25
	db, err := Open("db", faultOpts(faultfs.Inject(m, plan)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		b := db.NewBatch()
		b.Put([]byte(fmt.Sprintf("key-%03d", i)), bytes.Repeat([]byte{byte(i)}, 32))
		if err := b.Write(); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The flaky disk heals; everything acknowledged must still be there.
	re, err := Open("db", faultOpts(m))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 50; i++ {
		v, err := re.Get([]byte(fmt.Sprintf("key-%03d", i)))
		if err != nil || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 32)) {
			t.Fatalf("key %d after flaky run: %q, %v", i, v, err)
		}
	}
	if s := db.Stats(); s.IORetries == 0 {
		t.Fatal("Stats.IORetries = 0 with TransientProb = 0.25")
	} else if s.Degraded != 0 {
		t.Fatal("store degraded on purely transient faults")
	}
}

// failOnceFS fails the first call of one filesystem operation on a path
// with the given suffix with a transient fault and then behaves normally:
// the smallest possible flaky disk, aimed at a single call site.
type failOnceFS struct {
	faultfs.FS
	op     string // "glob", "open", "readfile" or "remove"
	suffix string // "" aims at any path
	fired  bool
}

func (f *failOnceFS) fail(op, path string) error {
	if f.op != op || !strings.HasSuffix(path, f.suffix) || f.fired {
		return nil
	}
	f.fired = true
	return &faultfs.FaultError{Op: op, Path: path, Transient: true}
}

func (f *failOnceFS) Glob(pattern string) ([]string, error) {
	if err := f.fail("glob", pattern); err != nil {
		return nil, err
	}
	return f.FS.Glob(pattern)
}

func (f *failOnceFS) Open(path string) (faultfs.File, error) {
	if err := f.fail("open", path); err != nil {
		return nil, err
	}
	return f.FS.Open(path)
}

func (f *failOnceFS) ReadFile(path string) ([]byte, error) {
	if err := f.fail("readfile", path); err != nil {
		return nil, err
	}
	return f.FS.ReadFile(path)
}

func (f *failOnceFS) Remove(path string) error {
	if err := f.fail("remove", path); err != nil {
		return err
	}
	return f.FS.Remove(path)
}

// TestRecoveryAbsorbsTransientFaults: Open's recovery calls — listing the
// log generations, replaying one, reading the manifest, checking a table's
// footer, deleting a replayed log — answer to the same retry policy as
// steady-state I/O. One transient fault on any of them used to fail the
// whole Open.
func TestRecoveryAbsorbsTransientFaults(t *testing.T) {
	for _, c := range []struct{ name, op, suffix string }{
		{"glob", "glob", ""}, {"open", "open", ".log"}, {"open-table", "open", ".sst"},
		{"readfile", "readfile", ""}, {"remove", "remove", ""},
	} {
		op := c.op
		t.Run(c.name, func(t *testing.T) {
			// A crashed store with a manifest, a table, and a live log.
			m := faultfs.NewMemFS()
			plan := faultfs.NewPlan(29)
			db, err := Open("db", faultOpts(faultfs.Inject(m, plan)))
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"flushed", "logged"} {
				b := db.NewBatch()
				b.Put([]byte(key), []byte("v-"+key))
				if err := b.Write(); err != nil {
					t.Fatal(err)
				}
				if key == "flushed" {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			plan.TripCrash()
			db.Close()
			m.Crash(nil)

			flaky := &failOnceFS{FS: m, op: op, suffix: c.suffix}
			re, err := Open("db", faultOpts(flaky))
			if err != nil {
				t.Fatalf("Open with one transient %s fault: %v", op, err)
			}
			defer re.Close()
			if !flaky.fired {
				t.Fatalf("recovery never called %s", op)
			}
			if s := re.Stats(); s.IORetries == 0 {
				t.Fatal("Stats.IORetries = 0: the fault was not absorbed by retryIO")
			}
			for _, key := range []string{"flushed", "logged"} {
				if v, err := re.Get([]byte(key)); err != nil || string(v) != "v-"+key {
					t.Fatalf("%s after recovery = %q, %v", key, v, err)
				}
			}
		})
	}
}
