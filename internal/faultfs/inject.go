package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCrashed is returned by every operation once a Plan's crash point has
// been reached: from that moment the process is "dead" and no I/O — read
// or write — can complete.
var ErrCrashed = errors.New("faultfs: simulated crash: filesystem unavailable")

// FaultError is an injected I/O failure. Transient faults model retryable
// conditions (EINTR, momentary ENOSPC, a driver hiccup); non-transient
// faults model a dying device and should push the store into a degraded
// mode rather than be retried forever.
type FaultError struct {
	Op        string
	Path      string
	Transient bool
}

func (e *FaultError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("faultfs: injected %s fault: %s %s", kind, e.Op, e.Path)
}

// IsTransient reports whether err is an injected fault marked retryable.
func IsTransient(err error) bool {
	var fe *FaultError
	return errors.As(err, &fe) && fe.Transient
}

// The retry policy. IsTransient is true only for injected faults, so the
// budget serves the fault harness alone: enough attempts to ride out its
// transient schedules, with sleeps short enough not to slow a sweep.
const (
	retryAttempts = 10
	retryBackoff  = time.Microsecond
)

// Retry runs one I/O operation under a bounded retry-with-backoff policy:
// a transient fault (IsTransient) is retried with doubling sleeps from
// retryBackoff, counted in retries, until op has been called retryAttempts
// times; any other error — and the transient fault that exhausts the
// budget — returns to the caller, which treats it as permanent.
func Retry(retries *atomic.Uint64, op func() error) error {
	backoff := retryBackoff
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !IsTransient(err) || attempt >= retryAttempts {
			return err
		}
		retries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// Plan is a seeded, deterministic fault schedule. All decisions derive
// from the seed and the serialized order in which operations reach the
// filesystem, so a single-threaded workload replays identically from the
// same seed.
//
// Counters tick on write-path operations only (creates, appends' writes,
// syncs, renames, removes); reads never advance the schedule, so read-only
// verification cannot perturb a replay.
type Plan struct {
	// TransientProb is the probability that any write-path operation fails
	// with a retryable fault (and has no effect).
	TransientProb float64
	// CrashAfterWrites trips a hard crash when the write-op counter
	// reaches it; zero or negative disables the crash point.
	CrashAfterWrites int64
	// FailWritesAfter makes every write-path operation fail permanently
	// once the counter reaches it (reads keep working) — the dying-disk
	// scenario that must drive the store into degraded mode. Zero or
	// negative disables it.
	FailWritesAfter int64
	// ReadTransientProb is the probability that any read-path operation
	// fails with a retryable fault. Read faults draw from their own RNG
	// stream (readRng), never from the write-schedule rng: demand-paged
	// reads must not perturb the seeded crash/fault replay of writes.
	ReadTransientProb float64

	mu      sync.Mutex
	rng     *rand.Rand
	readRng *rand.Rand
	writes  int64
	crashed bool
}

// NewPlan returns a Plan drawing all randomness from seed. Fault modes are
// configured by setting the exported fields before use.
func NewPlan(seed int64) *Plan {
	return &Plan{
		rng:     rand.New(rand.NewSource(seed)),
		readRng: rand.New(rand.NewSource(seed ^ 0x7265616461746673)), // "readatfs"
	}
}

// Writes returns the number of write-path operations observed so far.
func (p *Plan) Writes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writes
}

// Crashed reports whether the crash point has tripped.
func (p *Plan) Crashed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// TripCrash forces the crash immediately — used when a workload finishes
// before the scheduled crash point and the driver wants an end-of-run
// crash instead.
func (p *Plan) TripCrash() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashed = true
}

// SetFailWritesAfter reconfigures the permanent-failure threshold mid-run.
// Unlike writing the field directly, it is safe while other goroutines are
// issuing I/O through the plan.
func (p *Plan) SetFailWritesAfter(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.FailWritesAfter = n
}

// beforeWrite gates one write-path operation.
func (p *Plan) beforeWrite(op, path string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return ErrCrashed
	}
	p.writes++
	if p.CrashAfterWrites > 0 && p.writes >= p.CrashAfterWrites {
		p.crashed = true
		return ErrCrashed
	}
	if p.FailWritesAfter > 0 && p.writes >= p.FailWritesAfter {
		return &FaultError{Op: op, Path: path, Transient: false}
	}
	if p.TransientProb > 0 && p.rng.Float64() < p.TransientProb {
		return &FaultError{Op: op, Path: path, Transient: true}
	}
	return nil
}

// SetReadTransientProb reconfigures the read-fault probability mid-run,
// safely while other goroutines are issuing I/O through the plan.
func (p *Plan) SetReadTransientProb(prob float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ReadTransientProb = prob
}

// beforeRead gates one read-path operation: reads fail post-crash, and
// optionally with transient faults drawn from the dedicated read RNG so
// the write-side schedule stays untouched.
func (p *Plan) beforeRead(op, path string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return ErrCrashed
	}
	if p.ReadTransientProb > 0 && p.readRng.Float64() < p.ReadTransientProb {
		return &FaultError{Op: op, Path: path, Transient: true}
	}
	return nil
}

// TornTail returns a keep-function for MemFS.Crash that decides, per file,
// how much of the un-synced tail survived the crash: nothing, everything,
// or a partial prefix — occasionally with a corrupted byte, modelling a
// sector that was mid-write. Deterministic given the Plan's seed and the
// sorted order MemFS.Crash guarantees.
func (p *Plan) TornTail() func(path string, volatile []byte) []byte {
	return func(path string, volatile []byte) []byte {
		if len(volatile) == 0 {
			return nil
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		switch p.rng.Intn(4) {
		case 0: // the whole tail was lost
			return nil
		case 1: // the whole tail happened to reach the platter
			return append([]byte(nil), volatile...)
		default: // torn: a partial prefix survived
			kept := append([]byte(nil), volatile[:p.rng.Intn(len(volatile)+1)]...)
			if len(kept) > 0 && p.rng.Intn(4) == 0 {
				kept[p.rng.Intn(len(kept))] ^= 0x41 // mid-write sector damage
			}
			return kept
		}
	}
}

// Injected wraps an FS, gating every operation through a Plan.
type Injected struct {
	inner FS
	plan  *Plan
}

var _ FS = (*Injected)(nil)

// Inject returns fsys with plan's fault schedule applied.
func Inject(fsys FS, plan *Plan) *Injected {
	return &Injected{inner: fsys, plan: plan}
}

func (i *Injected) MkdirAll(dir string) error {
	if err := i.plan.beforeWrite("mkdir", dir); err != nil {
		return err
	}
	return i.inner.MkdirAll(dir)
}

func (i *Injected) Create(path string) (File, error) {
	if err := i.plan.beforeWrite("create", path); err != nil {
		return nil, err
	}
	f, err := i.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &injectedFile{f: f, plan: i.plan, path: path}, nil
}

func (i *Injected) OpenAppend(path string) (File, error) {
	if err := i.plan.beforeWrite("append-open", path); err != nil {
		return nil, err
	}
	f, err := i.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &injectedFile{f: f, plan: i.plan, path: path}, nil
}

func (i *Injected) Open(path string) (File, error) {
	if err := i.plan.beforeRead("open", path); err != nil {
		return nil, err
	}
	f, err := i.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &injectedFile{f: f, plan: i.plan, path: path}, nil
}

func (i *Injected) ReadFile(path string) ([]byte, error) {
	if err := i.plan.beforeRead("read", path); err != nil {
		return nil, err
	}
	return i.inner.ReadFile(path)
}

func (i *Injected) Rename(oldpath, newpath string) error {
	if err := i.plan.beforeWrite("rename", oldpath); err != nil {
		return err
	}
	return i.inner.Rename(oldpath, newpath)
}

func (i *Injected) Remove(path string) error {
	if err := i.plan.beforeWrite("remove", path); err != nil {
		return err
	}
	return i.inner.Remove(path)
}

func (i *Injected) Glob(pattern string) ([]string, error) {
	if err := i.plan.beforeRead("glob", pattern); err != nil {
		return nil, err
	}
	return i.inner.Glob(pattern)
}

// injectedFile gates handle operations through the plan. A failed Write or
// Sync has no effect on the underlying file, so callers may safely retry
// the whole operation.
type injectedFile struct {
	f    File
	plan *Plan
	path string
}

func (f *injectedFile) Write(p []byte) (int, error) {
	if err := f.plan.beforeWrite("write", f.path); err != nil {
		return 0, err
	}
	return f.f.Write(p)
}

func (f *injectedFile) Sync() error {
	if err := f.plan.beforeWrite("sync", f.path); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *injectedFile) Truncate(size int64) error {
	if err := f.plan.beforeWrite("truncate", f.path); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

func (f *injectedFile) Read(p []byte) (int, error) {
	if err := f.plan.beforeRead("read", f.path); err != nil {
		return 0, err
	}
	return f.f.Read(p)
}

func (f *injectedFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.plan.beforeRead("read-at", f.path); err != nil {
		return 0, err
	}
	return f.f.ReadAt(p, off)
}

func (f *injectedFile) Close() error {
	// Close always reaches the inner file: even a crashed process's
	// descriptors are reclaimed, and leaking handles would mask bugs.
	return f.f.Close()
}

func (f *injectedFile) Size() (int64, error) {
	if err := f.plan.beforeRead("stat", f.path); err != nil {
		return 0, err
	}
	return f.f.Size()
}
