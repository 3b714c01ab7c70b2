package lsm

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// planOpts is what the planner reads of Options: L0 is due at two tables, L1
// past 1 KiB (L2 past 10 KiB), and an Ln source run stops at 32 KiB.
var planOpts = Options{L0CompactionTrigger: 2, LevelBaseBytes: 1 << 10, CompactionTableBytes: 4 << 10}

// planTable is a 1 KiB table on level spanning [lo, hi].
func planTable(level int, num uint64, lo, hi string) tableMeta {
	return tableMeta{num: num, level: level, size: 1 << 10, entries: 1,
		smallest: []byte(lo), largest: []byte(hi), h: new(tableHandle)}
}

// versionString lists v level by level: each table's number, size, entry
// count and key span.
func versionString(v version) string {
	var b strings.Builder
	for level, metas := range v {
		fmt.Fprintf(&b, "L%d:", level)
		for _, m := range metas {
			fmt.Fprintf(&b, " %d/%d/%d[%q,%q]", m.num, m.size, m.entries, m.smallest, m.largest)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func nums(metas []tableMeta) []uint64 {
	var out []uint64
	for _, m := range metas {
		out = append(out, m.num)
	}
	return out
}

// TestPickCompaction runs the planner on hand-built versions: which level is
// due, which tables a plan takes, and whether the plan moves or rewrites. The
// answer is a function of the version alone: nothing in flight enters it.
func TestPickCompaction(t *testing.T) {
	l1run := func(from uint64, n int) []tableMeta {
		var run []tableMeta
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%02d", int(from)+i)
			run = append(run, planTable(1, from+uint64(i), k, k+"z"))
		}
		return run
	}
	for _, tc := range []struct {
		name  string
		v     version
		force bool
		want  string // "none", or level->dst src dstIn move|rewrite [drop]
	}{
		{
			name: "L0 below its trigger",
			v:    version{0: {planTable(0, 1, "a", "z")}},
			want: "none",
		},
		{
			name: "L0 trigger takes every L0 table in recency order and the L1 tables it overlaps",
			v: version{
				0: {planTable(0, 7, "c", "e"), planTable(0, 5, "a", "b")},
				1: {planTable(1, 2, "a", "a"), planTable(1, 3, "d", "d"), planTable(1, 4, "x", "y")},
			},
			want: "0->1 src [7 5] dstIn [2 3] rewrite drop",
		},
		{
			name: "Ln over target takes its run and the overlapped tables below",
			v: version{
				1: {planTable(1, 1, "a", "b"), planTable(1, 2, "c", "d")},
				2: {planTable(2, 3, "b", "c"), planTable(2, 4, "x", "y")},
				3: {planTable(3, 5, "a", "z")},
			},
			want: "1->2 src [1 2] dstIn [3] rewrite",
		},
		{
			name: "Ln at its target is not due",
			v:    version{1: {planTable(1, 1, "a", "b")}},
			want: "none",
		},
		// The next four rows once carried an in-flight plan that claimed
		// tables or a key span; the planner reads none now, so each pins
		// what it answers on the version alone.
		{
			name: "a run skips the claimed tables it starts at",
			v:    version{1: l1run(1, 4)},
			want: "1->2 src [1 2 3 4] dstIn [] rewrite drop",
		},
		{
			name: "a claimed destination table blocks the plan",
			v: version{
				1: {planTable(1, 1, "a", "b"), planTable(1, 2, "c", "d")},
				2: {planTable(2, 3, "b", "c")},
			},
			want: "1->2 src [1 2] dstIn [3] rewrite drop",
		},
		{
			name: "disjointness: an in-flight plan sharing a level and a span blocks the plan",
			v: version{
				1: {planTable(1, 1, "a", "b"), planTable(1, 2, "c", "d")},
				3: {planTable(3, 9, "a", "z")},
			},
			want: "1->2 src [1 2] dstIn [] move",
		},
		{
			name: "disjointness: an in-flight plan on other levels does not block the plan",
			v: version{
				1: {planTable(1, 1, "a", "b"), planTable(1, 2, "c", "d")},
				3: {planTable(3, 9, "a", "z")},
			},
			want: "1->2 src [1 2] dstIn [] move",
		},
		{
			name: "move: no destination overlap and keys below",
			v: version{
				1: {planTable(1, 1, "a", "b"), planTable(1, 2, "c", "d")},
				4: {planTable(4, 9, "a", "a")},
			},
			want: "1->2 src [1 2] dstIn [] move",
		},
		{
			name: "rewrite: no destination overlap but bottom-most, so tombstones drop",
			v: version{
				1: {planTable(1, 1, "a", "b"), planTable(1, 2, "c", "d")},
				4: {planTable(4, 9, "x", "y")},
			},
			want: "1->2 src [1 2] dstIn [] rewrite drop",
		},
		{
			name: "move: key-disjoint L0 sources",
			v: version{
				0: {planTable(0, 1, "a", "b"), planTable(0, 2, "c", "d")},
				2: {planTable(2, 9, "a", "z")},
			},
			want: "0->1 src [1 2] dstIn [] move",
		},
		{
			name: "rewrite: overlapping L0 sources",
			v: version{
				0: {planTable(0, 1, "a", "c"), planTable(0, 2, "b", "d")},
				2: {planTable(2, 9, "a", "z")},
			},
			want: "0->1 src [1 2] dstIn [] rewrite",
		},
		{
			name:  "force makes a level with any unclaimed table due, shallowest first",
			v:     version{0: {planTable(0, 1, "a", "b")}, 2: {planTable(2, 2, "a", "b")}},
			force: true,
			want:  "0->1 src [1] dstIn [] move",
		},
		{
			name:  "force with only the bottom level populated has nothing to do",
			v:     version{numLevels - 1: {planTable(numLevels-1, 1, "a", "b")}},
			force: true,
			want:  "none",
		},
		{
			// ROADMAP item 3(e): L0 always goes first, so a due L0 starves an
			// L1 twenty times over its target. This pins today's answer; a
			// deeper-first rule flips this one expectation.
			name: "3(e): a due L0 wins over an L1 far over target",
			v: version{
				0: {planTable(0, 90, "k00", "k99"), planTable(0, 91, "k00", "k99")},
				1: l1run(1, 20),
			},
			want: "0->1 src [90 91] dstIn [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20] rewrite drop",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := versionString(tc.v)
			got := "none"
			if p, ok := pickCompaction(tc.v, tc.force, planOpts); ok {
				kind := "rewrite"
				if p.move {
					kind = "move"
				}
				got = fmt.Sprintf("%d->%d src %v dstIn %v %s", p.level, p.dst, nums(p.srcMetas), nums(p.dstIn), kind)
				if p.dropTombstones {
					got += " drop"
				}
			}
			if got != tc.want {
				t.Fatalf("pickCompaction = %s, want %s", got, tc.want)
			}
			if versionString(tc.v) != before {
				t.Fatal("pickCompaction changed the version it planned on")
			}
		})
	}
}

// TestVersionEditsCommute pins the one interleaving the scheduler leaves: a
// store runs one compaction at a time, and flushes land beside it. An L0
// merge consumes the older L0 tables while two flushes add newer ones; every
// order of the three edits gives the same version, the flushed tables keep
// their recency order, and apply leaves its receiver as it was.
func TestVersionEditsCommute(t *testing.T) {
	base := version{
		0: {planTable(0, 1, "a", "m"), planTable(0, 2, "k", "z")},
		1: {planTable(1, 3, "a", "c"), planTable(1, 4, "p", "r")},
		2: {planTable(2, 5, "a", "z")},
	}
	merge := compactionPlan{level: 0, dst: 1, srcMetas: base[0], dstIn: base[1]}.
		edit([]tableMeta{planTable(1, 8, "a", "k"), planTable(1, 9, "l", "z")})
	flush1 := versionEdit{added: []tableMeta{planTable(0, 6, "b", "y")}}
	flush2 := versionEdit{added: []tableMeta{planTable(0, 7, "c", "d")}}
	before := versionString(base)

	want := base.apply(merge).apply(flush1).apply(flush2)
	for name, v := range map[string]version{
		"flush, merge, flush": base.apply(flush1).apply(merge).apply(flush2),
		"flush, flush, merge": base.apply(flush1).apply(flush2).apply(merge),
	} {
		if versionString(v) != versionString(want) {
			t.Fatalf("%s gives\n%s\nwant\n%s", name, versionString(v), versionString(want))
		}
	}
	if got := fmt.Sprint(nums(want[0]), nums(want[1]), nums(want[2])); got != "[6 7] [8 9] [5]" {
		t.Fatalf("applied version holds %s", got)
	}
	if versionString(base) != before {
		t.Fatal("apply changed its receiver")
	}
}

// TestManifestGolden pins the manifest bytes of a hand-built version (the
// golden was written by the encoder before versions existed) and checks the
// decoder inverts the encoder.
func TestManifestGolden(t *testing.T) {
	meta := func(level int, num uint64, size int64, entries uint64, lo, hi string) tableMeta {
		return tableMeta{num: num, level: level, size: size, entries: entries, smallest: []byte(lo), largest: []byte(hi)}
	}
	v := version{
		0: {meta(0, 7, 300, 3, "b", "k"), meta(0, 9, 200, 2, "a", "c")},
		1: {meta(1, 3, 1000, 10, "a", "f"), meta(1, 5, 129, 1, "g", "g")},
		3: {meta(3, 1, 70000, 500, "", "\xff\x00")},
	}
	const golden = "012a0007ac02030162016b0009c80102016101630103e8070a016101660105810101016701670301f0a204f4030002ff00"
	raw := encodeManifest(42, v)
	if got := hex.EncodeToString(raw); got != golden {
		t.Fatalf("manifest bytes\n got %s\nwant %s", got, golden)
	}
	next, back, err := decodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if next != 42 || versionString(back) != versionString(v) {
		t.Fatalf("decode(encode(v)) = next %d\n%s\nwant next 42\n%s", next, versionString(back), versionString(v))
	}
}

// TestManifestFormatChecked: a MANIFEST naming a format other than 1 is
// refused as corrupt, not read as if it were format 1.
func TestManifestFormatChecked(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "MANIFEST")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] != 1 {
		t.Fatalf("manifest starts with format %d, want 1", raw[0])
	}
	raw[0] = 2
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(dir, smallOpts()); err == nil {
		db.Close()
		t.Fatal("a format-2 manifest opened")
	} else if !errors.Is(err, errManifestCorrupt) {
		t.Fatalf("Open = %v, want a corrupt-manifest error", err)
	}
}
