package trie

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// pathStore is a minimal path-keyed node database for tests.
type pathStore struct {
	nodes map[string][]byte
}

func newPathStore() *pathStore { return &pathStore{nodes: make(map[string][]byte)} }

func (s *pathStore) ReadNode(path []byte) ([]byte, error) {
	blob, ok := s.nodes[string(path)]
	if !ok {
		return nil, ErrNodeNotFound
	}
	return blob, nil
}

// apply commits a NodeSet into the store.
func (s *pathStore) apply(set *NodeSet) {
	for path, blob := range set.Writes {
		s.nodes[path] = blob
	}
	for _, path := range set.Deletes {
		delete(s.nodes, path)
	}
}

func TestHexCompactRoundTrip(t *testing.T) {
	f := func(raw []byte, leaf bool) bool {
		if len(raw) == 0 {
			return true
		}
		// Build a hex key of arbitrary nibble length.
		hexKey := keybytesToHex(raw)
		if !leaf {
			hexKey = hexKey[:len(hexKey)-1] // strip terminator
		}
		// Odd-length variant.
		for _, k := range [][]byte{hexKey, hexKey[1:]} {
			if len(k) == 0 {
				continue
			}
			back := compactToHex(hexToCompact(k))
			if !bytes.Equal(back, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKeybytesHexRoundTrip(t *testing.T) {
	f := func(key []byte) bool {
		return bytes.Equal(hexToKeybytes(keybytesToHex(key)), key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTrieRoot(t *testing.T) {
	tr := NewEmpty()
	// keccak256(rlp("")) — the canonical empty MPT root.
	want := "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
	if got := hex.EncodeToString(h32(tr.Hash())); got != want {
		t.Fatalf("empty root = %s, want %s", got, want)
	}
}

func h32(h [32]byte) []byte { return h[:] }

func TestGetUpdateDelete(t *testing.T) {
	tr := NewEmpty()
	if err := tr.Update([]byte("key1"), []byte("val1")); err != nil {
		t.Fatal(err)
	}
	v, err := tr.Get([]byte("key1"))
	if err != nil || string(v) != "val1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if v, _ := tr.Get([]byte("absent")); v != nil {
		t.Fatalf("absent key returned %q", v)
	}
	tr.Update([]byte("key1"), []byte("val2"))
	if v, _ := tr.Get([]byte("key1")); string(v) != "val2" {
		t.Fatalf("after update: %q", v)
	}
	tr.Delete([]byte("key1"))
	if v, _ := tr.Get([]byte("key1")); v != nil {
		t.Fatalf("after delete: %q", v)
	}
	if tr.Hash() != EmptyRoot {
		t.Fatal("deleting the only key must restore the empty root")
	}
}

// TestRootOrderIndependence: the MPT root must depend only on content.
func TestRootOrderIndependence(t *testing.T) {
	keys := make([][]byte, 50)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("account-%02d", i))
	}
	build := func(perm []int) [32]byte {
		tr := NewEmpty()
		for _, i := range perm {
			tr.Update(keys[i], []byte(fmt.Sprintf("balance-%d", i)))
		}
		return tr.Hash()
	}
	base := make([]int, len(keys))
	for i := range base {
		base[i] = i
	}
	want := build(base)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 5; round++ {
		perm := rng.Perm(len(keys))
		if got := build(perm); got != want {
			t.Fatalf("root differs for permutation %d", round)
		}
	}
}

// TestInsertDeleteRestoresRoot: adding then removing keys must restore the
// exact prior root (Merkle structure is canonical).
func TestInsertDeleteRestoresRoot(t *testing.T) {
	tr := NewEmpty()
	for i := 0; i < 30; i++ {
		tr.Update([]byte(fmt.Sprintf("base-%d", i)), []byte("v"))
	}
	before := tr.Hash()
	for i := 0; i < 20; i++ {
		tr.Update([]byte(fmt.Sprintf("extra-%d", i)), []byte("x"))
	}
	if tr.Hash() == before {
		t.Fatal("root should change after inserts")
	}
	for i := 0; i < 20; i++ {
		tr.Delete([]byte(fmt.Sprintf("extra-%d", i)))
	}
	if tr.Hash() != before {
		t.Fatal("root not restored after deleting the inserted keys")
	}
}

// TestCommitReloadRoundTrip: committed tries must reload from the path
// store with identical content and root.
func TestCommitReloadRoundTrip(t *testing.T) {
	store := newPathStore()
	tr, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v := fmt.Sprintf("value-%d", i*7)
		tr.Update([]byte(k), []byte(v))
		model[k] = v
	}
	set, root := tr.Commit()
	store.apply(set)

	tr2, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Hash() != root {
		t.Fatalf("reloaded root %x != committed %x", tr2.Hash(), root)
	}
	for k, want := range model {
		v, err := tr2.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("reload Get(%s) = %q, %v", k, v, err)
		}
	}
	if tr2.Resolves() == 0 {
		t.Fatal("reload should have resolved nodes from the store")
	}
}

// TestIncrementalEqualsFreshBuild is the core path-based storage invariant:
// a store maintained through arbitrary incremental commits (with deletions)
// must end up byte-identical to a store built fresh from the final content.
// Any stale or missing path breaks this.
func TestIncrementalEqualsFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	store := newPathStore()
	tr, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	for round := 0; round < 20; round++ {
		for op := 0; op < 50; op++ {
			k := fmt.Sprintf("key-%03d", rng.Intn(300))
			if rng.Intn(3) == 0 {
				tr.Delete([]byte(k))
				delete(model, k)
			} else {
				v := fmt.Sprintf("val-%d-%d", round, op)
				tr.Update([]byte(k), []byte(v))
				model[k] = v
			}
		}
		set, _ := tr.Commit()
		store.apply(set)
	}

	// Fresh build from the final model.
	freshStore := newPathStore()
	fresh, _ := New(freshStore)
	for k, v := range model {
		fresh.Update([]byte(k), []byte(v))
	}
	set, freshRoot := fresh.Commit()
	freshStore.apply(set)

	// Reload incremental trie; roots must agree.
	reloaded, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Hash() != freshRoot {
		t.Fatalf("incremental root %x != fresh root %x", reloaded.Hash(), freshRoot)
	}
	// Store contents must be identical path-for-path.
	if len(store.nodes) != len(freshStore.nodes) {
		t.Fatalf("incremental store has %d paths, fresh has %d",
			len(store.nodes), len(freshStore.nodes))
	}
	for path, blob := range freshStore.nodes {
		got, ok := store.nodes[path]
		if !ok {
			t.Fatalf("path %x missing from incremental store", path)
		}
		if !bytes.Equal(got, blob) {
			t.Fatalf("path %x differs between stores", path)
		}
	}
}

// TestModelProperty compares trie reads against a map model after random
// op sequences with intermediate commits.
func TestModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		store := newPathStore()
		tr, _ := New(store)
		model := map[string]string{}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%02d", rng.Intn(80))
			if rng.Intn(4) == 0 {
				tr.Delete([]byte(k))
				delete(model, k)
			} else {
				v := fmt.Sprintf("v%d", i)
				tr.Update([]byte(k), []byte(v))
				model[k] = v
			}
			if i%37 == 0 {
				set, _ := tr.Commit()
				store.apply(set)
				tr, _ = New(store) // reload from disk
			}
		}
		for k, want := range model {
			v, err := tr.Get([]byte(k))
			if err != nil || string(v) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCommitProducesUpdatesNotDuplicates(t *testing.T) {
	store := newPathStore()
	tr, _ := New(store)
	tr.Update([]byte("alpha"), []byte("1"))
	set, _ := tr.Commit()
	store.apply(set)
	before := len(store.nodes)

	// Updating the same key must overwrite paths, not add new ones.
	tr2, _ := New(store)
	tr2.Update([]byte("alpha"), []byte("2"))
	set2, _ := tr2.Commit()
	store.apply(set2)
	if len(store.nodes) != before {
		t.Fatalf("update grew the store from %d to %d paths", before, len(store.nodes))
	}
}

func TestLargeValues(t *testing.T) {
	tr := NewEmpty()
	big := bytes.Repeat([]byte{0x7e}, 10000)
	tr.Update([]byte("big"), big)
	v, err := tr.Get([]byte("big"))
	if err != nil || !bytes.Equal(v, big) {
		t.Fatalf("big value round-trip: %v", err)
	}
}

func TestDeleteAbsentKeyNoChange(t *testing.T) {
	tr := NewEmpty()
	tr.Update([]byte("exists"), []byte("v"))
	before := tr.Hash()
	tr.Delete([]byte("absent"))
	if tr.Hash() != before {
		t.Fatal("deleting an absent key changed the root")
	}
}

func TestEmptyValueDeletes(t *testing.T) {
	tr := NewEmpty()
	tr.Update([]byte("k"), []byte("v"))
	tr.Update([]byte("k"), nil) // empty value = delete per Ethereum semantics
	if tr.Hash() != EmptyRoot {
		t.Fatal("empty-value update must delete")
	}
}

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	// Leaf.
	leaf := &shortNode{key: keybytesToHex([]byte{0xab, 0xcd}), child: valueNode("hello")}
	dec, err := decodeNode(encodeNode(leaf))
	if err != nil {
		t.Fatal(err)
	}
	decLeaf, ok := dec.(*shortNode)
	if !ok || !bytes.Equal(decLeaf.key, leaf.key) || string(decLeaf.child.(valueNode)) != "hello" {
		t.Fatalf("leaf round-trip mismatch: %#v", dec)
	}
	// Branch with value and two hashed children.
	bn := &branchNode{}
	bn.children[3] = refNode{hash: bytes.Repeat([]byte{1}, 32)}
	bn.children[7] = refNode{hash: bytes.Repeat([]byte{2}, 32)}
	bn.children[16] = valueNode("val")
	dec, err = decodeNode(encodeNode(bn))
	if err != nil {
		t.Fatal(err)
	}
	decBn, ok := dec.(*branchNode)
	if !ok {
		t.Fatalf("branch decoded to %T", dec)
	}
	if r, ok := decBn.children[3].(refNode); !ok || r.hash[0] != 1 {
		t.Fatal("child 3 ref lost")
	}
	if v, ok := decBn.children[16].(valueNode); !ok || string(v) != "val" {
		t.Fatal("branch value lost")
	}
	if decBn.children[0] != nil {
		t.Fatal("empty child decoded as non-nil")
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, blob := range [][]byte{nil, {0x00}, {0xc1, 0x80}, bytes.Repeat([]byte{0xff}, 40)} {
		if _, err := decodeNode(blob); err == nil {
			t.Errorf("decodeNode(%x) succeeded on garbage", blob)
		}
	}
}

func TestResolveCountsReads(t *testing.T) {
	store := newPathStore()
	tr, _ := New(store)
	for i := 0; i < 100; i++ {
		tr.Update([]byte(fmt.Sprintf("key-%03d", i)), []byte("value"))
	}
	set, _ := tr.Commit()
	store.apply(set)

	tr2, _ := New(store)
	base := tr2.Resolves()
	tr2.Get([]byte("key-050"))
	if tr2.Resolves() <= base {
		t.Fatal("Get on cold trie should resolve nodes")
	}
}

func BenchmarkTrieInsert(b *testing.B) {
	tr := NewEmpty()
	key := make([]byte, 20)
	val := bytes.Repeat([]byte{1}, 80)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			key[j] = byte(i >> (8 * j))
		}
		tr.Update(key, val)
	}
}

func BenchmarkTrieGetCommitted(b *testing.B) {
	store := newPathStore()
	tr, _ := New(store)
	for i := 0; i < 10000; i++ {
		tr.Update([]byte(fmt.Sprintf("key-%06d", i)), bytes.Repeat([]byte{1}, 80))
	}
	set, _ := tr.Commit()
	store.apply(set)
	tr2, _ := New(store)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr2.Get([]byte(fmt.Sprintf("key-%06d", i%10000)))
	}
}

// TestHashKeyedVsPathKeyedGrowth is the storage-model ablation of §II-A:
// over repeated commits of the same mutating key set, hash-keyed storage
// accumulates redundant node versions while path-keyed storage stays flat.
func TestHashKeyedVsPathKeyedGrowth(t *testing.T) {
	// Path-keyed: incremental commits into one store.
	pathStoreDB := newPathStore()
	pathTrie, _ := New(pathStoreDB)
	// Hash-keyed: accumulate hash-keyed writes (no deletion mechanism).
	hashStore := map[string][]byte{}
	hashTrie := NewEmpty()

	for round := 0; round < 10; round++ {
		for i := 0; i < 100; i++ {
			k := []byte(fmt.Sprintf("acct-%03d", i))
			v := []byte(fmt.Sprintf("balance-%d-%d", round, i))
			pathTrie.Update(k, v)
			hashTrie.Update(k, v)
		}
		set, pathRoot := pathTrie.Commit()
		pathStoreDB.apply(set)
		writes, hashRoot := hashTrie.CommitHashed()
		for k, v := range writes {
			hashStore[k] = v
		}
		if pathRoot != hashRoot {
			t.Fatalf("round %d: roots diverged", round)
		}
	}
	// The path store holds exactly the live nodes; the hash store holds
	// every version ever written.
	if len(hashStore) <= len(pathStoreDB.nodes)*3 {
		t.Fatalf("hash-keyed store (%d nodes) should far exceed path-keyed (%d): the PBSS redundancy claim",
			len(hashStore), len(pathStoreDB.nodes))
	}
	t.Logf("after 10 rounds: path-keyed %d nodes, hash-keyed %d nodes (%.1fx redundancy)",
		len(pathStoreDB.nodes), len(hashStore), float64(len(hashStore))/float64(len(pathStoreDB.nodes)))
}

// TestCommitHashedRootMatchesPathCommit: both storage models must agree on
// the Merkle root (they persist the same logical trie).
func TestCommitHashedRootMatchesPathCommit(t *testing.T) {
	a := NewEmpty()
	b := NewEmpty()
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		a.Update(k, []byte("v"))
		b.Update(k, []byte("v"))
	}
	_, rootA := a.Commit()
	_, rootB := b.CommitHashed()
	if rootA != rootB {
		t.Fatal("storage model changed the Merkle root")
	}
}

func TestLeavesWalk(t *testing.T) {
	store := newPathStore()
	tr, _ := New(store)
	model := map[string]string{}
	for i := 0; i < 150; i++ {
		k := fmt.Sprintf("acct-%03d", i)
		v := fmt.Sprintf("val-%d", i)
		tr.Update([]byte(k), []byte(v))
		model[k] = v
	}
	set, _ := tr.Commit()
	store.apply(set)

	// Walk from a cold reload: resolution runs through the store.
	cold, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	var paths [][]byte
	seen := map[string]bool{}
	err = cold.Leaves(func(hexPath, value []byte) bool {
		paths = append(paths, append([]byte(nil), hexPath...))
		seen[string(value)] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 150 {
		t.Fatalf("walked %d leaves, want 150", len(paths))
	}
	// Values all observed.
	for _, v := range model {
		if !seen[v] {
			t.Fatalf("value %q missing from walk", v)
		}
	}
	// Paths ascend lexicographically (trie order).
	for i := 1; i < len(paths); i++ {
		if bytes.Compare(paths[i-1], paths[i]) >= 0 {
			t.Fatalf("leaf paths out of order at %d", i)
		}
	}
	// Every path is a full 64-nibble hashed key.
	for _, p := range paths {
		if len(p) != 64 {
			t.Fatalf("leaf path length %d, want 64 nibbles", len(p))
		}
	}
}

func TestLeavesEarlyStop(t *testing.T) {
	tr := NewEmpty()
	for i := 0; i < 50; i++ {
		tr.Update([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	n := 0
	err := tr.Leaves(func([]byte, []byte) bool {
		n++
		return n < 7
	})
	if err != nil || n != 7 {
		t.Fatalf("early stop at %d, %v", n, err)
	}
	// Empty trie walks nothing.
	n = 0
	err = NewEmpty().Leaves(func([]byte, []byte) bool {
		n++
		return true
	})
	if err != nil || n != 0 {
		t.Fatalf("empty trie walked %d leaves, %v", n, err)
	}
}
