// Package snapshot implements Geth's snapshot acceleration: a flat,
// real-time mirror of the current world state that turns O(depth) MPT
// traversals into single point reads (SnapshotAccount / SnapshotStorage
// classes). Recent blocks live in in-memory diff layers; layers beyond the
// capacity flatten into the disk layer, producing the class's KV writes.
// The layer stack journals to the SnapshotJournal key across restarts.
package snapshot

import (
	"bytes"
	"errors"
	"sort"
	"sync"

	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
	"ethkv/internal/rlp"
)

// diffLayer is the state delta of one block. A nil entry value marks a
// deletion (account destructed / slot cleared).
type diffLayer struct {
	root     rawdb.Hash
	accounts map[rawdb.Hash][]byte
	storage  map[rawdb.Hash]map[rawdb.Hash][]byte
}

// Tree is the snapshot layer stack over a database.
type Tree struct {
	mu     sync.RWMutex
	db     kv.Store
	layers []*diffLayer // oldest first
	// capacity is how many diff layers stay in memory before flattening to
	// disk (Geth keeps 128).
	capacity int

	// cache, when set, fronts DISK-layer reads only. Diff layers always
	// take precedence, so cached entries can never shadow newer state.
	cache DiskCache
}

// DiskCache is the per-class cache interface the tree uses for its disk
// layer (cache.Manager satisfies it).
type DiskCache interface {
	Get(class rawdb.Class, key []byte) ([]byte, bool)
	Add(class rawdb.Class, key, value []byte)
	Remove(class rawdb.Class, key []byte)
}

// SetDiskCache installs a cache in front of disk-layer reads.
func (t *Tree) SetDiskCache(c DiskCache) { t.cache = c }

// NewTree opens the snapshot tree over db, restoring any journaled layers.
func NewTree(db kv.Store, capacity int) *Tree {
	if capacity <= 0 {
		capacity = 16
	}
	t := &Tree{db: db, capacity: capacity}
	t.loadJournal()
	// Mark generation complete (the generator marker Geth persists).
	_ = db.Put(rawdb.SnapshotGeneratorKey(), []byte("done"))
	return t
}

// Update appends the diff of a new block. Nil values mark deletions.
func (t *Tree) Update(root rawdb.Hash, accounts map[rawdb.Hash][]byte,
	storage map[rawdb.Hash]map[rawdb.Hash][]byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.layers = append(t.layers, &diffLayer{root: root, accounts: accounts, storage: storage})
	if len(t.layers) > t.capacity {
		return t.flattenLocked()
	}
	return nil
}

// flattenLocked merges the oldest layers into the disk layer. Layers are
// flattened in batches of half the capacity, with entries deduplicated
// newest-wins first — mirroring Geth's accumulator diff layer, whose whole
// point is that a key rewritten in many recent blocks costs one disk write
// (the write-reduction half of Finding 7).
func (t *Tree) flattenLocked() error {
	n := t.capacity / 2
	if n < 1 {
		n = 1
	}
	if n > len(t.layers) {
		n = len(t.layers)
	}
	merged := &diffLayer{
		root:     t.layers[n-1].root,
		accounts: make(map[rawdb.Hash][]byte),
		storage:  make(map[rawdb.Hash]map[rawdb.Hash][]byte),
	}
	// Oldest first so newer entries overwrite older ones.
	for _, l := range t.layers[:n] {
		for acct, data := range l.accounts {
			merged.accounts[acct] = data
		}
		for acct, slots := range l.storage {
			m := merged.storage[acct]
			if m == nil {
				m = make(map[rawdb.Hash][]byte, len(slots))
				merged.storage[acct] = m
			}
			for slot, data := range slots {
				m[slot] = data
			}
		}
	}
	t.layers = t.layers[n:]
	layer := merged
	batch := t.db.NewBatch()
	// Flush in sorted hash order: deterministic runs, and adjacent batched
	// updates land on neighbouring keys (the update-correlation structure
	// the paper measures).
	for _, acct := range sortedHashKeys(layer.accounts) {
		data := layer.accounts[acct]
		if t.cache != nil {
			t.cache.Remove(rawdb.ClassSnapshotAccount, rawdb.SnapshotAccountKey(acct))
		}
		if data == nil {
			if err := rawdb.DeleteSnapshotAccount(batch, acct); err != nil {
				return err
			}
			continue
		}
		if err := rawdb.WriteSnapshotAccount(batch, acct, data); err != nil {
			return err
		}
	}
	acctsWithSlots := make([]rawdb.Hash, 0, len(layer.storage))
	for acct := range layer.storage {
		acctsWithSlots = append(acctsWithSlots, acct)
	}
	sort.Slice(acctsWithSlots, func(i, j int) bool {
		return bytes.Compare(acctsWithSlots[i][:], acctsWithSlots[j][:]) < 0
	})
	for _, acct := range acctsWithSlots {
		slots := layer.storage[acct]
		for _, slot := range sortedHashKeys(slots) {
			data := slots[slot]
			if t.cache != nil {
				t.cache.Remove(rawdb.ClassSnapshotStorage, rawdb.SnapshotStorageKey(acct, slot))
			}
			if data == nil {
				if err := rawdb.DeleteSnapshotStorage(batch, acct, slot); err != nil {
					return err
				}
				continue
			}
			if err := rawdb.WriteSnapshotStorage(batch, acct, slot, data); err != nil {
				return err
			}
		}
	}
	if err := batch.Write(); err != nil {
		return err
	}
	// Record the new disk-layer root.
	return t.db.Put(rawdb.SnapshotRootKey(), layer.root[:])
}

// Account returns the flat account entry for an account hash, walking diff
// layers newest-first before touching the disk layer.
func (t *Tree) Account(acct rawdb.Hash) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := len(t.layers) - 1; i >= 0; i-- {
		if data, ok := t.layers[i].accounts[acct]; ok {
			if data == nil {
				return nil, kv.ErrNotFound
			}
			return data, nil
		}
	}
	key := rawdb.SnapshotAccountKey(acct)
	if t.cache != nil {
		if v, ok := t.cache.Get(rawdb.ClassSnapshotAccount, key); ok {
			return v, nil
		}
	}
	v, err := rawdb.ReadSnapshotAccount(t.db, acct)
	if err == nil && t.cache != nil {
		t.cache.Add(rawdb.ClassSnapshotAccount, key, v)
	}
	return v, err
}

// Storage returns the flat storage entry for (account, slot).
func (t *Tree) Storage(acct, slot rawdb.Hash) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := len(t.layers) - 1; i >= 0; i-- {
		if slots, ok := t.layers[i].storage[acct]; ok {
			if data, ok := slots[slot]; ok {
				if data == nil {
					return nil, kv.ErrNotFound
				}
				return data, nil
			}
		}
	}
	key := rawdb.SnapshotStorageKey(acct, slot)
	if t.cache != nil {
		if v, ok := t.cache.Get(rawdb.ClassSnapshotStorage, key); ok {
			return v, nil
		}
	}
	v, err := rawdb.ReadSnapshotStorage(t.db, acct, slot)
	if err == nil && t.cache != nil {
		t.cache.Add(rawdb.ClassSnapshotStorage, key, v)
	}
	return v, err
}

// StorageScan iterates one account's disk-layer slots — the rare
// SnapshotStorage scan the paper observes (Finding 4).
func (t *Tree) StorageScan(acct rawdb.Hash, fn func(slot rawdb.Hash, data []byte) bool) {
	it := t.db.NewIterator(rawdb.SnapshotStoragePrefix(acct), nil)
	defer it.Release()
	for it.Next() {
		var slot rawdb.Hash
		key := it.Key()
		copy(slot[:], key[33:])
		if !fn(slot, it.Value()) {
			return
		}
	}
}

// AccountScan iterates the disk layer's flat accounts in key order,
// calling fn until it returns false — the other rare snapshot scan
// (SnapshotAccount had exactly two scans in the paper's 2.86B-op trace).
func (t *Tree) AccountScan(fn func(acct rawdb.Hash, data []byte) bool) {
	it := t.db.NewIterator([]byte("a"), nil)
	defer it.Release()
	for it.Next() {
		key := it.Key()
		if len(key) != 33 {
			continue
		}
		var acct rawdb.Hash
		copy(acct[:], key[1:])
		if !fn(acct, it.Value()) {
			return
		}
	}
}

// Journal persists the in-memory diff layers under the SnapshotJournal key
// and records the snapshot root — the shutdown path that produces the large
// singleton values in Table I.
func (t *Tree) Journal() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var payload []byte
	items := make([][]byte, 0, len(t.layers))
	for _, layer := range t.layers {
		items = append(items, encodeLayer(layer))
	}
	payload = rlp.EncodeList(items...)
	if err := t.db.Put(rawdb.SnapshotJournalKey(), payload); err != nil {
		return err
	}
	if len(t.layers) > 0 {
		root := t.layers[len(t.layers)-1].root
		return t.db.Put(rawdb.SnapshotRootKey(), root[:])
	}
	return nil
}

// loadJournal restores diff layers journaled by a previous run.
func (t *Tree) loadJournal() {
	payload, err := t.db.Get(rawdb.SnapshotJournalKey())
	if err != nil {
		return // no journal: fresh snapshot
	}
	items, err := rlp.SplitList(payload)
	if err != nil {
		return // corrupt journal: regenerate (Geth sets SnapshotRecovery)
	}
	for _, item := range items {
		if layer, err := decodeLayer(item); err == nil {
			t.layers = append(t.layers, layer)
		}
	}
	_ = t.db.Delete(rawdb.SnapshotJournalKey())
}

// encodeLayer serializes one diff layer:
// [root, [[acctHash, data]...], [[acctHash, slotHash, data]...]].
func encodeLayer(l *diffLayer) []byte {
	var acctItems [][]byte
	for acct, data := range l.accounts {
		acctItems = append(acctItems, rlp.EncodeList(
			rlp.EncodeString(acct[:]), rlp.EncodeString(data)))
	}
	var slotItems [][]byte
	for acct, slots := range l.storage {
		for slot, data := range slots {
			slotItems = append(slotItems, rlp.EncodeList(
				rlp.EncodeString(acct[:]), rlp.EncodeString(slot[:]), rlp.EncodeString(data)))
		}
	}
	return rlp.EncodeList(
		rlp.EncodeString(l.root[:]),
		rlp.EncodeList(acctItems...),
		rlp.EncodeList(slotItems...),
	)
}

// decodeLayer parses encodeLayer output.
func decodeLayer(raw []byte) (*diffLayer, error) {
	parts, err := rlp.SplitList(raw)
	if err != nil || len(parts) != 3 {
		return nil, errors.New("snapshot: malformed journal layer")
	}
	layer := &diffLayer{
		accounts: make(map[rawdb.Hash][]byte),
		storage:  make(map[rawdb.Hash]map[rawdb.Hash][]byte),
	}
	rootBytes, err := rlp.DecodeString(parts[0])
	if err != nil || len(rootBytes) != 32 {
		return nil, errors.New("snapshot: malformed journal root")
	}
	copy(layer.root[:], rootBytes)

	acctItems, err := rlp.SplitList(parts[1])
	if err != nil {
		return nil, err
	}
	for _, item := range acctItems {
		fields, err := rlp.SplitList(item)
		if err != nil || len(fields) != 2 {
			return nil, errors.New("snapshot: malformed account entry")
		}
		hashBytes, _ := rlp.DecodeString(fields[0])
		data, _ := rlp.DecodeString(fields[1])
		var acct rawdb.Hash
		copy(acct[:], hashBytes)
		layer.accounts[acct] = append([]byte(nil), data...)
	}
	slotItems, err := rlp.SplitList(parts[2])
	if err != nil {
		return nil, err
	}
	for _, item := range slotItems {
		fields, err := rlp.SplitList(item)
		if err != nil || len(fields) != 3 {
			return nil, errors.New("snapshot: malformed storage entry")
		}
		acctBytes, _ := rlp.DecodeString(fields[0])
		slotBytes, _ := rlp.DecodeString(fields[1])
		data, _ := rlp.DecodeString(fields[2])
		var acct, slot rawdb.Hash
		copy(acct[:], acctBytes)
		copy(slot[:], slotBytes)
		if layer.storage[acct] == nil {
			layer.storage[acct] = make(map[rawdb.Hash][]byte)
		}
		layer.storage[acct][slot] = append([]byte(nil), data...)
	}
	return layer, nil
}

// FlattenAll flushes every diff layer to disk (shutdown without journal).
func (t *Tree) FlattenAll() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.layers) > 0 {
		if err := t.flattenLocked(); err != nil {
			return err
		}
	}
	return nil
}

// sortedHashKeys returns map keys in ascending byte order.
func sortedHashKeys(m map[rawdb.Hash][]byte) []rawdb.Hash {
	out := make([]rawdb.Hash, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}
