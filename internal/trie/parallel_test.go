package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// workerCounts are the fan-out widths every equivalence test exercises.
func workerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// buildDirtyTrie produces a trie with a committed base plus a dirty delta
// (updates and deletes), the shape every block commit has: persisted nodes,
// dead paths, and fresh writes all present.
func buildDirtyTrie(t *testing.T, seed int64) (*Trie, *pathStore) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	store := newPathStore()
	tr, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		tr.Update([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	set, _ := tr.Commit()
	store.apply(set)
	// Dirty delta over the committed base.
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(500))
		if rng.Intn(4) == 0 {
			tr.Delete([]byte(k))
		} else {
			tr.Update([]byte(k), []byte(fmt.Sprintf("new-%d-%d", seed, i)))
		}
	}
	return tr, store
}

func sortedDeletes(set *NodeSet) []string {
	out := append([]string(nil), set.Deletes...)
	sort.Strings(out)
	return out
}

// TestCommitParallelEquivalence: CommitParallel at every worker count must
// produce the identical root hash and NodeSet contents as the sequential
// Commit on an identically-built trie.
func TestCommitParallelEquivalence(t *testing.T) {
	for _, workers := range workerCounts() {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			seqTrie, seqStore := buildDirtyTrie(t, 7)
			parTrie, parStore := buildDirtyTrie(t, 7)

			seqSet, seqRoot := seqTrie.Commit()
			parSet, parRoot := parTrie.CommitParallel(workers)

			if seqRoot != parRoot {
				t.Fatalf("root mismatch: seq %x par %x", seqRoot, parRoot)
			}
			if len(seqSet.Writes) != len(parSet.Writes) {
				t.Fatalf("writes: seq %d paths, par %d", len(seqSet.Writes), len(parSet.Writes))
			}
			for path, enc := range seqSet.Writes {
				got, ok := parSet.Writes[path]
				if !ok {
					t.Fatalf("path %x missing from parallel writes", path)
				}
				if !bytes.Equal(got, enc) {
					t.Fatalf("path %x encoding differs", path)
				}
			}
			sd, pd := sortedDeletes(seqSet), sortedDeletes(parSet)
			if fmt.Sprint(sd) != fmt.Sprint(pd) {
				t.Fatalf("deletes differ:\nseq %x\npar %x", sd, pd)
			}
			// Applying both deltas must leave identical stores, and both
			// tries must be reloadable to the same root.
			seqStore.apply(seqSet)
			parStore.apply(parSet)
			if len(seqStore.nodes) != len(parStore.nodes) {
				t.Fatalf("store sizes differ: %d vs %d", len(seqStore.nodes), len(parStore.nodes))
			}
			reloaded, err := New(parStore)
			if err != nil {
				t.Fatal(err)
			}
			if reloaded.Hash() != seqRoot {
				t.Fatalf("reloaded parallel store root %x != %x", reloaded.Hash(), seqRoot)
			}
		})
	}
}

// TestCommitParallelThenIncremental: a trie committed in parallel must keep
// working for further updates and commits (flags fully settled).
func TestCommitParallelThenIncremental(t *testing.T) {
	tr, store := buildDirtyTrie(t, 33)
	set, _ := tr.CommitParallel(4)
	store.apply(set)
	for i := 0; i < 50; i++ {
		tr.Update([]byte(fmt.Sprintf("post-%03d", i)), []byte("x"))
	}
	set2, root2 := tr.CommitParallel(4)
	store.apply(set2)
	reloaded, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Hash() != root2 {
		t.Fatalf("reloaded root %x != %x after incremental parallel commits", reloaded.Hash(), root2)
	}
}
