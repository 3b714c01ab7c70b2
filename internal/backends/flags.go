package backends

import (
	"flag"
	"fmt"

	"ethkv/internal/policy"
)

// Flags holds the store-selection flags shared by every CLI that opens a
// store (replaybench, kvserver, ethkvlab), so the five are declared once.
type Flags struct {
	Backend           string
	Policy            string
	BlockCacheMB      int
	Shards            int
	CompactionWorkers int
}

// RegisterFlags declares -backend (defaulting to defaultBackend), -policy,
// -block-cache-mb, -shards and -compaction-workers on fs. Call Options after
// fs is parsed.
func RegisterFlags(fs *flag.FlagSet, defaultBackend string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Backend, "backend", defaultBackend, "storage backend: "+Kinds())
	fs.StringVar(&f.Policy, "policy", "", "per-class storage policy JSON for the hybrid backend (implies -backend hybrid)")
	fs.IntVar(&f.BlockCacheMB, "block-cache-mb", 0, "LSM block cache budget in MiB (0 = store default, negative disables)")
	fs.IntVar(&f.Shards, "shards", 1, "partition the keyspace by key hash across this many child stores (1 = unsharded)")
	fs.IntVar(&f.CompactionWorkers, "compaction-workers", 0, "process-wide background compaction worker budget shared by every LSM instance, and each instance's concurrency cap (0 = store default, 1 = serial)")
	return f
}

// Options turns the parsed flags into Open's arguments: the backend kind and
// its Options. A -policy file is loaded here and implies the hybrid kind.
func (f *Flags) Options() (kind string, opts Options, err error) {
	if f.CompactionWorkers < 0 {
		return "", Options{}, fmt.Errorf("-compaction-workers %d: the budget cannot be negative (0 = store default)", f.CompactionWorkers)
	}
	kind = f.Backend
	opts = Options{
		BlockCacheBytes:   int64(f.BlockCacheMB),
		Shards:            f.Shards,
		CompactionWorkers: f.CompactionWorkers,
	}
	if opts.BlockCacheBytes > 0 {
		opts.BlockCacheBytes <<= 20 // a negative budget passes through: it disables the cache
	}
	if f.Policy != "" {
		if opts.Policy, err = policy.Load(f.Policy); err != nil {
			return "", Options{}, err
		}
		kind = "hybrid"
	}
	return kind, opts, nil
}
