package trie

import "sync"

// Parallel commit: the expensive part of committing a trie is
// keccak-hashing and RLP-encoding the dirty region, which is pure CPU work
// over a proper tree — the root branch's 16 subtrees are disjoint node sets,
// so they hash concurrently without synchronization (the same decomposition
// Geth's hasher uses). None of this touches the NodeReader: all database
// resolution happened during Update/Delete, so parallel commit leaves the
// KV-op stream untouched.

// interiorNode reports whether n carries commit/hash work of its own.
func interiorNode(n node) bool {
	switch n.(type) {
	case *shortNode, *branchNode:
		return true
	default:
		return false
	}
}

// forEachRootSubtree fans fn over the root branch's non-trivial children on
// up to workers goroutines and waits for completion. The caller must have
// checked that the root is a branch node.
func forEachRootSubtree(b *branchNode, workers int, fn func(idx int, child node)) {
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		child := b.children[i]
		if child == nil || !interiorNode(child) {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(idx int, c node) {
			defer wg.Done()
			fn(idx, c)
			<-sem
		}(i, child)
	}
	wg.Wait()
}

// CommitParallel is Commit with the dirty-subtree encoding fanned across up
// to workers goroutines. Each subtree commits into a private NodeSet shard;
// the shards merge before the root and dead-path bookkeeping run, so the
// resulting NodeSet holds exactly the same writes and deletes as the
// sequential walk (Deletes may be ordered differently; every consumer
// treats them as a set). workers <= 1 is exactly Commit.
func (t *Trie) CommitParallel(workers int) (*NodeSet, [32]byte) {
	b, ok := t.root.(*branchNode)
	if workers <= 1 || !ok || !b.flags.dirty {
		return t.Commit()
	}
	var shards [16]*NodeSet
	forEachRootSubtree(b, workers, func(idx int, c node) {
		shard := &NodeSet{Writes: make(map[string][]byte)}
		t.commitNode(c, []byte{byte(idx)}, shard)
		shards[idx] = shard
	})
	set := &NodeSet{Writes: make(map[string][]byte)}
	for _, shard := range shards {
		if shard == nil {
			continue
		}
		for path, enc := range shard.Writes {
			set.Writes[path] = enc
		}
		set.Deletes = append(set.Deletes, shard.Deletes...)
	}
	// The subtrees are clean now; this encodes the root (and any trivial
	// children) exactly like the tail of the sequential walk.
	t.commitNode(t.root, nil, set)
	for path := range t.dead {
		if _, rewritten := set.Writes[path]; !rewritten {
			set.Deletes = append(set.Deletes, path)
		}
	}
	t.dead = make(map[string]struct{})
	return set, t.Hash()
}
