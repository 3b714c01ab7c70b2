package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ethkv/internal/faultfs"
)

// version is the tree's level layout: per level, the live tables — L0 oldest
// first (its tables may overlap, so their order is their recency), every
// deeper level sorted by smallest key (its tables are key-disjoint). A version
// is a value: nothing writes into one once it is built. Every layout change —
// a flush, WAL recovery, a compaction, a trivial move, the manifest load — is
// a versionEdit, and apply is the one place a new version is made.
//
// db.current is swapped only under db.mu held exclusively, and every reader of
// it holds db.mu: Get and Has shared throughout, an iterator until it has
// taken its table references. So no reader sees the version change under it,
// and none pins one.
type version [numLevels][]tableMeta

// versionEdit is one layout change: the tables leaving the version and the
// tables entering it, each on its meta's level. A file number names one table
// in the whole tree, so a trivial move removes a table from one level and adds
// it, relabelled, to the next.
type versionEdit struct {
	removed, added []tableMeta
}

// apply returns v with e applied; v itself is left as it was. Only the levels
// e touches get new slices. Removal keeps a level's order; L0 takes its added
// tables at the newest end, and a deeper level is re-sorted by smallest key.
// So two edits over disjoint tables of which at most one adds to L0 commute —
// which is what lets a flush install before or after the compaction beside it.
func (v version) apply(e versionEdit) version {
	gone := make(map[uint64]bool, len(e.removed))
	var touched [numLevels]bool
	for _, m := range e.removed {
		gone[m.num], touched[m.level] = true, true
	}
	for _, m := range e.added {
		touched[m.level] = true
	}
	for level, metas := range v {
		if !touched[level] {
			continue
		}
		next := make([]tableMeta, 0, len(metas)+len(e.added))
		for _, m := range metas {
			if !gone[m.num] {
				next = append(next, m)
			}
		}
		for _, m := range e.added {
			if m.level == level {
				next = append(next, m)
			}
		}
		if level > 0 {
			sort.Slice(next, func(i, j int) bool { return bytes.Compare(next[i].smallest, next[j].smallest) < 0 })
		}
		v[level] = next
	}
	return v
}

// tombstones is the number of tombstones in v's tables, as their writers
// counted them: a table's count leaves with the table.
func (v version) tombstones() uint64 {
	var n uint64
	for _, metas := range v {
		for _, m := range metas {
			n += m.tombstones
		}
	}
	return n
}

// levelBytes is the total size of a level's tables.
func levelBytes(metas []tableMeta) int64 {
	var n int64
	for _, m := range metas {
		n += m.size
	}
	return n
}

// Manifest format, every field a uvarint: format (manifestFormat) | next file
// number, then per table, level by level in version order:
// level | num | size | entries | smallestLen | smallest | largestLen | largest.
// The file is replaced by writing a temp file and renaming it over.
const manifestFormat = 1

var errManifestCorrupt = errors.New("lsm: corrupt manifest")

// encodeManifest is the manifest of version v whose next file number is next.
func encodeManifest(next uint64, v version) []byte {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(x uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], x)]) }
	put(manifestFormat)
	put(next)
	for level, metas := range v {
		for _, m := range metas {
			put(uint64(level))
			put(m.num)
			put(uint64(m.size))
			put(m.entries)
			put(uint64(len(m.smallest)))
			buf.Write(m.smallest)
			put(uint64(len(m.largest)))
			buf.Write(m.largest)
		}
	}
	return buf.Bytes()
}

// decodeManifest is encodeManifest's inverse. A manifest of any other format,
// a truncated record or a level past the tree's depth is corrupt.
func decodeManifest(raw []byte) (next uint64, v version, err error) {
	corrupt := false
	get := func() uint64 {
		x, n := binary.Uvarint(raw)
		if n <= 0 {
			corrupt = true
			return 0
		}
		raw = raw[n:]
		return x
	}
	key := func() []byte {
		n := get()
		if n > uint64(len(raw)) {
			corrupt = true
			return nil
		}
		k := append([]byte(nil), raw[:n]...)
		raw = raw[n:]
		return k
	}
	if format := get(); !corrupt && format != manifestFormat {
		return 0, v, fmt.Errorf("%w: format %d (this store reads format %d only)", errManifestCorrupt, format, manifestFormat)
	}
	next = get()
	var e versionEdit
	for !corrupt && len(raw) > 0 {
		level, num, size, entries := get(), get(), get(), get()
		smallest, largest := key(), key()
		if level >= numLevels {
			return 0, v, fmt.Errorf("%w: level %d out of range", errManifestCorrupt, level)
		}
		e.added = append(e.added, tableMeta{
			num: num, level: int(level), size: int64(size),
			entries: entries, smallest: smallest, largest: largest,
			h: new(tableHandle),
		})
	}
	if corrupt {
		return 0, v, errManifestCorrupt
	}
	return next, v.apply(e), nil
}

// manifestSnap is one encoded manifest: the version as of install seq.
type manifestSnap struct {
	seq  uint64
	data []byte
}

// snapshotManifestLocked encodes the current version. Called with db.mu
// held, right after an install, so snapshots are numbered in install order
// and each one contains every install before it.
func (db *DB) snapshotManifestLocked() manifestSnap {
	db.manifestSeq++
	return manifestSnap{seq: db.manifestSeq, data: encodeManifest(db.next.Load(), db.current)}
}

// commitManifest returns once a manifest at least as new as snap is durable.
// Called with db.mu released: the write, sync and rename happen behind
// manifestMu only. Installers may arrive out of order; a snapshot that a
// newer one has already superseded on disk is skipped, never written over
// it. Until commitManifest returns, the caller must keep every file the
// previous manifest needs — the flushed WAL generation, a compaction's
// input tables.
func (db *DB) commitManifest(snap manifestSnap) error {
	db.manifestMu.Lock()
	defer db.manifestMu.Unlock()
	if snap.seq <= db.manifestDurable {
		return nil
	}
	tmpPath := db.manifestPath() + ".tmp"
	if err := db.retryIO(func() error {
		return faultfs.WriteFileSync(db.fs, tmpPath, snap.data)
	}); err != nil {
		return err
	}
	if err := db.retryIO(func() error {
		return db.fs.Rename(tmpPath, db.manifestPath())
	}); err != nil {
		return err
	}
	db.manifestDurable = snap.seq
	db.stats.manifestWrites.Add(1)
	return nil
}

// loadManifest installs the manifest's version and next file number; a
// store without a manifest opens empty.
func (db *DB) loadManifest() error {
	var raw []byte
	err := db.retryIO(func() error {
		var err error
		raw, err = db.fs.ReadFile(db.manifestPath())
		return err
	})
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	next, v, err := decodeManifest(raw)
	if err != nil {
		return err
	}
	db.next.Store(next)
	db.current = v
	return nil
}

// removeOrphans deletes the files of the store's directory that the loaded
// version does not name: the tables and blob files of a flush whose manifest
// never became durable, and of a merge that a crash caught between its
// manifest and its unlinks or whose best-effort unlinks failed
// (retireTables), plus a manifest write a crash cut short before its rename.
func (db *DB) removeOrphans() error {
	var paths []string
	if err := db.retryIO(func() error {
		var err error
		paths, err = db.fs.Glob(filepath.Join(db.dir, "*"))
		return err
	}); err != nil {
		return err
	}
	tables := make(map[uint64]bool)
	for _, metas := range db.current {
		for _, m := range metas {
			tables[m.num] = true
		}
	}
	blobs := db.current.blobUsage()
	for _, p := range paths {
		name := filepath.Base(p)
		ext := filepath.Ext(name)
		orphan := false
		switch num, err := strconv.ParseUint(strings.TrimSuffix(name, ext), 10, 64); {
		case name == "MANIFEST.tmp":
			orphan = true
		case err != nil:
		case ext == ".sst":
			orphan = !tables[num]
		case ext == ".blob":
			_, live := blobs[num]
			orphan = !live
		}
		if orphan {
			if err := db.removeFile(p); err != nil {
				return err
			}
		}
	}
	return nil
}
