package faultfs

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"runtime"
	"sync"
	"testing"
)

func TestMemFSDurabilityModel(t *testing.T) {
	m := NewMemFS()
	f, err := m.OpenAppend("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("synced-"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("volatile"))
	if got := m.UnsyncedBytes(); got != 8 {
		t.Fatalf("UnsyncedBytes = %d, want 8", got)
	}
	// Live reads see everything.
	raw, err := m.ReadFile("wal.log")
	if err != nil || string(raw) != "synced-volatile" {
		t.Fatalf("ReadFile = %q, %v", raw, err)
	}
	// Crash drops the volatile tail.
	m.Crash(nil)
	raw, _ = m.ReadFile("wal.log")
	if string(raw) != "synced-" {
		t.Fatalf("post-crash contents = %q, want %q", raw, "synced-")
	}
}

func TestMemFSCrashTornTail(t *testing.T) {
	m := NewMemFS()
	f, _ := m.OpenAppend("wal.log")
	f.Write([]byte("AB"))
	f.Sync()
	f.Write([]byte("CDEFGH"))
	m.Crash(func(path string, volatile []byte) []byte {
		if string(volatile) != "CDEFGH" {
			t.Fatalf("volatile = %q", volatile)
		}
		return volatile[:3]
	})
	raw, _ := m.ReadFile("wal.log")
	if string(raw) != "ABCDE" {
		t.Fatalf("torn contents = %q, want ABCDE", raw)
	}
}

func TestMemFSRenameAndRemove(t *testing.T) {
	m := NewMemFS()
	if err := WriteFileSync(m, "a.tmp", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("a.tmp", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadFile("a.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("tmp survived rename: %v", err)
	}
	m.Crash(nil)
	raw, err := m.ReadFile("a")
	if err != nil || string(raw) != "payload" {
		t.Fatalf("renamed file = %q, %v", raw, err)
	}
	if err := m.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("a"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestMemFSGlobAndRead(t *testing.T) {
	m := NewMemFS()
	for _, name := range []string{"d/wal-01.log", "d/wal-02.log", "d/x.sst"} {
		if err := WriteFileSync(m, name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Glob("d/wal-*.log")
	if err != nil || len(got) != 2 || got[0] != "d/wal-01.log" || got[1] != "d/wal-02.log" {
		t.Fatalf("Glob = %v, %v", got, err)
	}
	f, err := m.Open("d/x.sst")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(f)
	if err != nil || string(raw) != "d/x.sst" {
		t.Fatalf("read = %q, %v", raw, err)
	}
}

func TestPlanCrashPoint(t *testing.T) {
	plan := NewPlan(1)
	plan.CrashAfterWrites = 3
	m := NewMemFS()
	fsys := Inject(m, plan)
	f, err := fsys.OpenAppend("w") // write op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("a")); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("b")); err == nil { // op 3: crash
		t.Fatal("crash point did not trip")
	} else if !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	if !plan.Crashed() {
		t.Fatal("Crashed() false after trip")
	}
	// Everything fails after the crash, reads included.
	if _, err := fsys.ReadFile("w"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: %v", err)
	}
	// The failed write must have had no effect.
	m.Crash(nil)
	raw, _ := m.ReadFile("w")
	if len(raw) != 0 {
		t.Fatalf("unsynced/failed bytes survived: %q", raw)
	}
}

func TestPlanTransientFaultsAreRetryable(t *testing.T) {
	plan := NewPlan(7)
	plan.TransientProb = 0.5
	fsys := Inject(NewMemFS(), plan)
	var f File
	for {
		var err error
		f, err = fsys.OpenAppend("w")
		if err == nil {
			break
		}
		if !IsTransient(err) {
			t.Fatalf("unexpected fault class: %v", err)
		}
	}
	wrote := 0
	for wrote < 100 {
		_, err := f.Write([]byte{byte(wrote)})
		if err != nil {
			if !IsTransient(err) {
				t.Fatalf("unexpected fault class: %v", err)
			}
			continue // retry: failed writes have no effect
		}
		wrote++
	}
	if err := retrySync(f); err != nil {
		t.Fatal(err)
	}
	raw, err := fsys.ReadFile("w")
	if err != nil || len(raw) != 100 {
		t.Fatalf("len = %d, %v; want 100", len(raw), err)
	}
	for i, b := range raw {
		if b != byte(i) {
			t.Fatalf("byte %d = %d after retries", i, b)
		}
	}
}

func retrySync(f File) error {
	for {
		err := f.Sync()
		if err == nil || !IsTransient(err) {
			return err
		}
	}
}

func TestPlanPermanentFailureKeepsReadsAlive(t *testing.T) {
	plan := NewPlan(3)
	m := NewMemFS()
	if err := WriteFileSync(m, "keep", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	plan.FailWritesAfter = 1
	fsys := Inject(m, plan)
	if _, err := fsys.Create("new"); err == nil || IsTransient(err) || errors.Is(err, ErrCrashed) {
		t.Fatalf("want permanent fault, got %v", err)
	}
	// Reads still work: the disk is dying for writes, not gone.
	raw, err := fsys.ReadFile("keep")
	if err != nil || string(raw) != "ok" {
		t.Fatalf("read during write failure = %q, %v", raw, err)
	}
}

func TestPlanDeterministicReplay(t *testing.T) {
	run := func() ([]byte, []int64) {
		plan := NewPlan(99)
		plan.TransientProb = 0.3
		plan.CrashAfterWrites = 40
		m := NewMemFS()
		fsys := Inject(m, plan)
		var f File
		for {
			var err error
			f, err = fsys.OpenAppend("w")
			if err == nil {
				break
			}
			if !IsTransient(err) {
				t.Fatal(err)
			}
		}
		var trace []int64
		for i := 0; ; i++ {
			_, err := f.Write([]byte{byte(i)})
			if errors.Is(err, ErrCrashed) {
				break
			}
			if err == nil {
				trace = append(trace, int64(i))
				if i%10 == 9 {
					for {
						if serr := f.Sync(); serr == nil || errors.Is(serr, ErrCrashed) {
							break
						}
					}
				}
			}
		}
		m.Crash(plan.TornTail())
		raw, _ := m.ReadFile("w")
		return raw, trace
	}
	raw1, trace1 := run()
	raw2, trace2 := run()
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("post-crash bytes diverged:\n%x\n%x", raw1, raw2)
	}
	if len(trace1) != len(trace2) {
		t.Fatalf("accepted-write traces diverged: %d vs %d", len(trace1), len(trace2))
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := OS.MkdirAll(dir + "/sub"); err != nil {
		t.Fatal(err)
	}
	path := dir + "/sub/f.log"
	f, err := OS.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("hello"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if sz, err := f.Size(); err != nil || sz != 5 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := OS.ReadFile(path)
	if err != nil || string(raw) != "hello" {
		t.Fatalf("ReadFile = %q, %v", raw, err)
	}
	got, err := OS.Glob(dir + "/sub/*.log")
	if err != nil || len(got) != 1 {
		t.Fatalf("Glob = %v, %v", got, err)
	}
	if err := OS.Rename(path, dir+"/sub/g.log"); err != nil {
		t.Fatal(err)
	}
	if err := OS.Remove(dir + "/sub/g.log"); err != nil {
		t.Fatal(err)
	}
}

// TestMemFSAppendHandleLiveReadAt pins the O_RDWR semantics flat stores
// depend on: a positional read through the append handle sees the live file
// — durable prefix plus volatile tail — not a stale snapshot.
func TestMemFSAppendHandleLiveReadAt(t *testing.T) {
	m := NewMemFS()
	f, err := m.OpenAppend("entries.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("durable-"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("volatile"))

	buf := make([]byte, 16)
	n, err := f.ReadAt(buf, 0)
	if err != nil || string(buf[:n]) != "durable-volatile" {
		t.Fatalf("ReadAt(0) = %q, %v", buf[:n], err)
	}
	// Straddling the durable/volatile boundary.
	n, err = f.ReadAt(buf[:6], 5)
	if err != nil || string(buf[:n]) != "le-vol" {
		t.Fatalf("ReadAt(5) = %q, %v", buf[:n], err)
	}
	// Past EOF: available bytes plus io.EOF, io.ReaderAt contract.
	n, err = f.ReadAt(buf, 12)
	if !errors.Is(err, io.EOF) || string(buf[:n]) != "tile" {
		t.Fatalf("ReadAt(12) = %q, %v", buf[:n], err)
	}
	// A read handle opened now still snapshots; the append handle stays live.
	f.Write([]byte("-more")) // volatile
	n, err = f.ReadAt(buf[:5], 16)
	if err != nil || string(buf[:n]) != "-more" {
		t.Fatalf("ReadAt after second write = %q, %v", buf[:n], err)
	}
}

// TestMemFSTruncate pins the torn-tail discard path: truncation is
// immediately durable, whether the cut lands in the volatile tail or
// inside the durable prefix.
func TestMemFSTruncate(t *testing.T) {
	m := NewMemFS()
	f, _ := m.OpenAppend("entries.log")
	f.Write([]byte("keepkeep"))
	f.Sync()
	f.Write([]byte("tornbytes"))

	// Cut inside the volatile tail.
	if err := f.Truncate(12); err != nil {
		t.Fatal(err)
	}
	raw, _ := m.ReadFile("entries.log")
	if string(raw) != "keepkeeptorn" {
		t.Fatalf("after volatile cut: %q", raw)
	}
	// The cut survives a crash only for the durable part; the remaining
	// volatile bytes still tear away.
	m.Crash(nil)
	raw, _ = m.ReadFile("entries.log")
	if string(raw) != "keepkeep" {
		t.Fatalf("post-crash: %q", raw)
	}

	// Cut inside the durable prefix: immediately durable.
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	m.Crash(nil)
	raw, _ = m.ReadFile("entries.log")
	if string(raw) != "keep" {
		t.Fatalf("durable cut: %q", raw)
	}
	// Appends continue at the new end.
	f.Write([]byte("-tail"))
	raw, _ = m.ReadFile("entries.log")
	if string(raw) != "keep-tail" {
		t.Fatalf("append after truncate: %q", raw)
	}
	if sz, _ := f.Size(); sz != 9 {
		t.Fatalf("Size = %d, want 9", sz)
	}
}

// TestInjectedTruncateIsWritePathOp proves Truncate advances the write
// schedule (so crash points and write faults cover it) and that a faulted
// truncate leaves the file untouched.
func TestInjectedTruncateIsWritePathOp(t *testing.T) {
	m := NewMemFS()
	plan := NewPlan(7)
	fsys := Inject(m, plan)
	f, err := fsys.OpenAppend("x.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("0123456789"))
	before := plan.Writes()
	plan.SetFailWritesAfter(before + 1)
	if err := f.Truncate(4); err == nil {
		t.Fatal("truncate did not observe the injected fault")
	}
	raw, _ := m.ReadFile("x.log")
	if string(raw) != "0123456789" {
		t.Fatalf("failed truncate mutated the file: %q", raw)
	}
	plan.SetFailWritesAfter(0)
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	raw, _ = m.ReadFile("x.log")
	if string(raw) != "0123" {
		t.Fatalf("truncate after clearing fault: %q", raw)
	}
}

// TestMemFSReadHandleIsSnapshot pins the invariant that lets a read handle
// share the file's buffer instead of copying it: bytes below the file's
// length are never rewritten, so a handle opened before any later change
// keeps reading its original bytes.
func TestMemFSReadHandleIsSnapshot(t *testing.T) {
	readAll := func(t *testing.T, f File) string {
		t.Helper()
		buf := make([]byte, 64)
		n, err := f.ReadAt(buf, 0)
		if err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
		if sz, _ := f.Size(); sz != int64(n) {
			t.Fatalf("Size = %d, read %d bytes", sz, n)
		}
		return string(buf[:n])
	}
	open := func(t *testing.T, m *MemFS, path string) File {
		t.Helper()
		r, err := m.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	t.Run("Write", func(t *testing.T) {
		m := NewMemFS()
		f, _ := m.OpenAppend("w")
		f.Write([]byte("abc"))
		f.Sync()
		r := open(t, m, "w")
		f.Write([]byte("def"))
		f.Sync()
		if got := readAll(t, r); got != "abc" {
			t.Fatalf("snapshot = %q, want abc", got)
		}
	})

	t.Run("TruncateThenWrite", func(t *testing.T) {
		m := NewMemFS()
		f, _ := m.OpenAppend("w")
		f.Write([]byte("abcdef"))
		r := open(t, m, "w")
		if err := f.Truncate(2); err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("XYZW")) // over offsets 2..5, which r still reads
		if got := readAll(t, r); got != "abcdef" {
			t.Fatalf("snapshot = %q, want abcdef", got)
		}
		if raw, _ := m.ReadFile("w"); string(raw) != "abXYZW" {
			t.Fatalf("file = %q, want abXYZW", raw)
		}
	})

	t.Run("RenameThenAppendBoth", func(t *testing.T) {
		m := NewMemFS()
		old, _ := m.Create("a.tmp")
		old.Write([]byte("payload"))
		r := open(t, m, "a.tmp")
		if err := m.Rename("a.tmp", "a"); err != nil {
			t.Fatal(err)
		}
		renamed := open(t, m, "a")
		old.Write([]byte("-old")) // the unlinked file the old handle still holds
		f, _ := m.OpenAppend("a")
		f.Write([]byte("-new"))
		if got := readAll(t, r); got != "payload" {
			t.Fatalf("pre-rename snapshot = %q, want payload", got)
		}
		if got := readAll(t, renamed); got != "payload" {
			t.Fatalf("post-rename snapshot = %q, want payload", got)
		}
		buf := make([]byte, 11)
		if n, _ := old.ReadAt(buf, 0); string(buf[:n]) != "payload-old" {
			t.Fatalf("old handle = %q, want payload-old", buf[:n])
		}
		if raw, _ := m.ReadFile("a"); string(raw) != "payload-new" {
			t.Fatalf("renamed file = %q, want payload-new", raw)
		}
	})

	t.Run("CrashTornTail", func(t *testing.T) {
		m := NewMemFS()
		f, _ := m.OpenAppend("w")
		f.Write([]byte("AB"))
		f.Sync()
		f.Write([]byte("CDEFGH"))
		r := open(t, m, "w")
		m.Crash(func(path string, volatile []byte) []byte {
			kept := append([]byte(nil), volatile[:3]...)
			kept[1] ^= 0x41 // a damaged sector, written over the old tail
			return kept
		})
		f.Write([]byte("!!"))
		if got := readAll(t, r); got != "ABCDEFGH" {
			t.Fatalf("snapshot = %q, want ABCDEFGH", got)
		}
		want := "ABC" + string(rune('D'^0x41)) + "E!!"
		if raw, _ := m.ReadFile("w"); string(raw) != want {
			t.Fatalf("file = %q, want %q", raw, want)
		}
	})
}

// TestMemFSSnapshotsUnderConcurrentAppends reads snapshots on two goroutines
// while a third appends, syncs and truncates the file. Byte j is always
// written as byte(j), so a snapshot reads the same pattern whatever its
// length, and under -race a rewrite of bytes a snapshot holds is reported.
func TestMemFSSnapshotsUnderConcurrentAppends(t *testing.T) {
	m := NewMemFS()
	f, _ := m.OpenAppend("w")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 512)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := m.Open("w")
				if err != nil {
					t.Error(err)
					return
				}
				n, _ := r.ReadAt(buf, 0)
				for j, b := range buf[:n] {
					if b != byte(j) {
						t.Errorf("snapshot byte %d = %d", j, b)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		size, _ := f.Size()
		if size >= 256 {
			f.Truncate(size / 3)
			size /= 3
		}
		f.Write([]byte{byte(size), byte(size + 1), byte(size + 2)})
		if i%7 == 0 {
			f.Sync()
		}
	}
	close(stop)
	wg.Wait()
}

// TestMemFSSyncAndOpenDoNotCopy checks that syncing 1 MiB of written bytes
// and opening a 1 MiB file allocate a handle at most, not a copy of the file.
func TestMemFSSyncAndOpenDoNotCopy(t *testing.T) {
	const size = 1 << 20
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	m := NewMemFS()
	f, _ := m.Create("t.sst")
	f.Write(make([]byte, size))
	if n := allocated(func() { f.Sync() }); n > size/64 {
		t.Fatalf("Sync of %d bytes allocated %d bytes", size, n)
	}
	f.Close()
	const opens = 20
	n := allocated(func() {
		for i := 0; i < opens; i++ {
			r, err := m.Open("t.sst")
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
		}
	})
	if n/opens > size/64 {
		t.Fatalf("Open of a %d-byte file allocated %d bytes", size, n/opens)
	}
}

// BenchmarkMemFSTableRoundTrip is one SSTable's life on MemFS: create,
// write 1 MiB, sync, close, open, read one block.
func BenchmarkMemFSTableRoundTrip(b *testing.B) {
	const size, block = 1 << 20, 4 << 10
	m := NewMemFS()
	img := make([]byte, size)
	buf := make([]byte, block)
	b.SetBytes(size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := m.Create("t.sst")
		if err != nil {
			b.Fatal(err)
		}
		f.Write(img)
		if err := f.Sync(); err != nil {
			b.Fatal(err)
		}
		f.Close()
		r, err := m.Open("t.sst")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadAt(buf, size/2); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}
