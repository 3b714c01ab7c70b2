package faultfs

import "time"

// WithSyncLatency wraps fsys so every File.Sync sleeps d before
// delegating, modeling the device-side cost of a durability barrier
// (fsync on disks is tens of microseconds to milliseconds; on the
// in-memory MemFS it is free). Scheduler benchmarks use it to make I/O
// wait explicit and hardware-independent: whether overlapping flushes and
// compactions hides the barrier latency then shows up in wall-clock, even
// on a single-core host where pure CPU work cannot be parallelized.
func WithSyncLatency(fsys FS, d time.Duration) FS {
	if d <= 0 {
		return fsys
	}
	return &slowFS{fs: fsys, d: d}
}

type slowFS struct {
	fs FS
	d  time.Duration
}

func (s *slowFS) MkdirAll(dir string) error { return s.fs.MkdirAll(dir) }

func (s *slowFS) Create(path string) (File, error) {
	f, err := s.fs.Create(path)
	if err != nil {
		return nil, err
	}
	return slowFile{File: f, d: s.d}, nil
}

func (s *slowFS) OpenAppend(path string) (File, error) {
	f, err := s.fs.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return slowFile{File: f, d: s.d}, nil
}

func (s *slowFS) Open(path string) (File, error)        { return s.fs.Open(path) }
func (s *slowFS) ReadFile(path string) ([]byte, error)  { return s.fs.ReadFile(path) }
func (s *slowFS) Rename(oldpath, newpath string) error  { return s.fs.Rename(oldpath, newpath) }
func (s *slowFS) Remove(path string) error              { return s.fs.Remove(path) }
func (s *slowFS) Glob(pattern string) ([]string, error) { return s.fs.Glob(pattern) }

// slowFile delays only the durability barrier; reads and buffered writes
// keep the underlying filesystem's speed.
type slowFile struct {
	File
	d time.Duration
}

func (f slowFile) Sync() error {
	time.Sleep(f.d)
	return f.File.Sync()
}
