package faultfs

import (
	"errors"
	"io"
	"path/filepath"
	"sort"
	"sync"
)

// MemFS is an in-memory FS that models durability byte-for-byte: every
// file keeps a durable prefix (bytes covered by a successful Sync, or
// installed atomically by Rename) and a volatile tail (written but never
// synced). Crash discards the volatile tails — optionally keeping a torn
// prefix of each — which is exactly what a power loss does to an OS page
// cache. Metadata operations (create, rename, remove) are modelled as
// immediately durable, the guarantee journaling filesystems provide.
//
// Each file is one append-only buffer, and no byte below its length is
// ever rewritten: a shrink caps the buffer's capacity, so the next append
// reallocates instead of writing over bytes an open read handle still
// sees. A read handle and a renamed file are therefore capacity-capped
// views of the same buffer, and Sync, Open and Rename copy nothing.
//
// MemFS is safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// memFile is data[:durable] synced (or installed by Rename) and
// data[durable:] the volatile tail.
type memFile struct {
	data    []byte
	durable int
}

// view returns the file's current bytes with the capacity capped at their
// length: whoever holds the view reallocates on append instead of writing
// into spare capacity the file itself may still fill.
func (f *memFile) view() []byte { return f.data[:len(f.data):len(f.data)] }

// shrink cuts the file to n bytes; capping the capacity keeps the cut bytes
// intact for any view that still holds them.
func (f *memFile) shrink(n int) {
	f.data = f.data[:n:n]
	f.durable = min(f.durable, n)
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// MkdirAll implements FS. Directories are implicit in MemFS.
func (m *MemFS) MkdirAll(dir string) error { return nil }

// Create implements FS: it truncates (durably) and returns a write handle.
func (m *MemFS) Create(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[path] = f
	return &memWriteFile{fs: m, f: f}, nil
}

// OpenAppend implements FS.
func (m *MemFS) OpenAppend(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path]
	if !ok {
		f = &memFile{}
		m.files[path] = f
	}
	return &memWriteFile{fs: m, f: f}, nil
}

// Open implements FS: the returned handle reads a point-in-time snapshot
// of the file (durable + volatile bytes, the live view a process sees). The
// snapshot is an immutable view of the file's buffer, not a copy.
func (m *MemFS) Open(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path]
	if !ok {
		return nil, notExist("open", path)
	}
	return &memReadFile{data: f.view()}, nil
}

// ReadFile implements FS. The caller owns the returned copy, as with
// os.ReadFile.
func (m *MemFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path]
	if !ok {
		return nil, notExist("read", path)
	}
	return append([]byte(nil), f.data...), nil
}

// Rename implements FS. The move is atomic and durable; any volatile tail
// the source had is promoted to durable, matching the rename-after-write
// install idiom where callers sync before renaming.
func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	data := f.view()
	m.files[newpath] = &memFile{data: data, durable: len(data)}
	return nil
}

// Remove implements FS; removal is immediately durable.
func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

// Glob implements FS.
func (m *MemFS) Glob(pattern string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for path := range m.files {
		ok, err := filepath.Match(pattern, path)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Crash simulates a power loss: every file's volatile tail is discarded.
// keep, when non-nil, is consulted per file (in sorted path order, so
// seeded keep functions are deterministic) and returns the torn prefix of
// the volatile tail that "made it to the platter" — nil or empty drops the
// tail entirely. The kept bytes become durable. keep must not modify the
// tail it is given: open read handles may still be reading it.
func (m *MemFS) Crash(keep func(path string, volatile []byte) []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	paths := make([]string, 0, len(m.files))
	for p := range m.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		f := m.files[p]
		if f.durable == len(f.data) {
			continue
		}
		var kept []byte
		if keep != nil {
			kept = keep(p, f.view()[f.durable:])
		}
		f.shrink(f.durable)
		f.data = append(f.data, kept...)
		f.durable = len(f.data)
	}
}

// Paths returns every file path, sorted — for tests and diagnostics.
func (m *MemFS) Paths() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for p := range m.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// UnsyncedBytes reports the total volatile byte count across all files —
// the data a crash right now would lose.
func (m *MemFS) UnsyncedBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, f := range m.files {
		n += int64(len(f.data) - f.durable)
	}
	return n
}

// errReadOnlyHandle is returned when writing through a read handle.
var errReadOnlyHandle = errors.New("faultfs: write on read-only handle")

// errWriteOnlyHandle is returned when reading through a write handle.
var errWriteOnlyHandle = errors.New("faultfs: read on write-only handle")

// memWriteFile is an append handle: writes land in the volatile tail until
// Sync promotes them to durable. Positional reads see the live file —
// durable prefix plus volatile tail — matching an OS O_RDWR handle, so a
// store may serve reads from the same handle it appends through.
type memWriteFile struct {
	fs     *MemFS
	f      *memFile
	closed bool
}

func (w *memWriteFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.closed {
		return 0, errors.New("faultfs: write on closed file")
	}
	w.f.data = append(w.f.data, p...)
	return len(p), nil
}

func (w *memWriteFile) Sync() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.closed {
		return errors.New("faultfs: sync on closed file")
	}
	w.f.durable = len(w.f.data)
	return nil
}

func (w *memWriteFile) Close() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	w.closed = true
	return nil
}

func (w *memWriteFile) Read(p []byte) (int, error) { return 0, errWriteOnlyHandle }

// ReadAt reads the live contents — durable prefix plus volatile tail — the
// view a process sees through its own open handle.
func (w *memWriteFile) ReadAt(p []byte, off int64) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.closed {
		return 0, errors.New("faultfs: read on closed file")
	}
	return readAt(w.f.data, p, off)
}

// Truncate cuts the live file to size. The new length is immediately
// durable (metadata journaling, like rename): a shrink below the durable
// prefix shortens it, and any volatile tail past size is discarded.
func (w *memWriteFile) Truncate(size int64) error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.closed {
		return errors.New("faultfs: truncate on closed file")
	}
	if size < 0 {
		return errors.New("faultfs: negative truncate size")
	}
	if size >= int64(len(w.f.data)) {
		return nil // grow-to-size is not modelled; callers only shrink
	}
	w.f.shrink(int(size))
	return nil
}

func (w *memWriteFile) Size() (int64, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	return int64(len(w.f.data)), nil
}

// memReadFile streams a snapshot taken at Open.
type memReadFile struct {
	data []byte
	off  int
}

func (r *memReadFile) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// ReadAt reads from the snapshot without touching the handle's cursor, so
// concurrent positional readers never race.
func (r *memReadFile) ReadAt(p []byte, off int64) (int, error) {
	return readAt(r.data, p, off)
}

// readAt is io.ReaderAt over data: a read ending past it returns the bytes
// available and io.EOF.
func readAt(data, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("faultfs: negative ReadAt offset")
	}
	if off >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (r *memReadFile) Write(p []byte) (int, error) { return 0, errReadOnlyHandle }
func (r *memReadFile) Sync() error                 { return nil }
func (r *memReadFile) Truncate(size int64) error   { return errReadOnlyHandle }
func (r *memReadFile) Close() error                { return nil }
func (r *memReadFile) Size() (int64, error)        { return int64(len(r.data)), nil }
