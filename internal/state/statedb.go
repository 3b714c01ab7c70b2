package state

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"ethkv/internal/cache"
	"ethkv/internal/keccak"
	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
	"ethkv/internal/rlp"
	"ethkv/internal/snapshot"
	"ethkv/internal/trie"
)

// Backend bundles the storage facilities a StateDB reads through. Snaps and
// Caches are optional: both nil reproduces the BareTrace configuration,
// both set reproduces CacheTrace (snapshot acceleration is coupled to
// caching in Geth, §III-A).
type Backend struct {
	DB     kv.Store
	Snaps  *snapshot.Tree
	Caches *cache.Manager
	// DirtyNodes, when set, serves trie nodes that have been committed but
	// not yet flushed to the database (Geth's in-memory dirty node cache).
	// Lookups hit it before the clean cache and the store.
	DirtyNodes NodeBuffer
	// AdmitOnWrite mirrors Geth: trie nodes and snapshot entries written
	// during commit are admitted to the cache. Finding 6 argues against
	// this; the ablation benches flip it.
	AdmitOnWrite bool
}

// NodeBuffer serves unflushed trie nodes from memory. A found entry with a
// nil blob is a pending deletion.
type NodeBuffer interface {
	GetNode(key []byte) (blob []byte, found bool)
}

// cachedGet reads key through the class cache, falling back to the store.
func (b *Backend) cachedGet(class rawdb.Class, key []byte) ([]byte, error) {
	if b.Caches != nil {
		if v, ok := b.Caches.Get(class, key); ok {
			return v, nil
		}
	}
	v, err := b.DB.Get(key)
	if err != nil {
		return nil, err
	}
	if b.Caches != nil {
		b.Caches.Add(class, key, v)
	}
	return v, nil
}

// accountNodeReader adapts the backend to trie.NodeReader for the account
// trie.
type accountNodeReader struct{ b *Backend }

func (r accountNodeReader) ReadNode(path []byte) ([]byte, error) {
	key := rawdb.AccountTrieNodeKey(path)
	if r.b.DirtyNodes != nil {
		if blob, found := r.b.DirtyNodes.GetNode(key); found {
			if blob == nil {
				return nil, trie.ErrNodeNotFound
			}
			return blob, nil
		}
	}
	v, err := r.b.cachedGet(rawdb.ClassTrieNodeAccount, key)
	if errors.Is(err, kv.ErrNotFound) {
		return nil, trie.ErrNodeNotFound
	}
	return v, err
}

// storageNodeReader adapts the backend for one account's storage trie.
type storageNodeReader struct {
	b     *Backend
	owner rawdb.Hash
}

func (r storageNodeReader) ReadNode(path []byte) ([]byte, error) {
	key := rawdb.StorageTrieNodeKey(r.owner, path)
	if r.b.DirtyNodes != nil {
		if blob, found := r.b.DirtyNodes.GetNode(key); found {
			if blob == nil {
				return nil, trie.ErrNodeNotFound
			}
			return blob, nil
		}
	}
	v, err := r.b.cachedGet(rawdb.ClassTrieNodeStorage, key)
	if errors.Is(err, kv.ErrNotFound) {
		return nil, trie.ErrNodeNotFound
	}
	return v, err
}

// StateDB is the mutable world state for one block's execution. Reads go
// through snapshot acceleration when available; writes buffer in memory and
// land in tries at Commit, reproducing Geth's read-during-execution /
// write-after-verification pattern (§IV-C).
type StateDB struct {
	backend *Backend

	accountTrie  *trie.Trie
	storageTries map[rawdb.Hash]*trie.Trie

	// Buffered mutations for the current block.
	dirtyAccounts map[Address]*Account // nil *Account marks destruction
	dirtyStorage  map[Address]map[rawdb.Hash]rawdb.Hash
	dirtyCode     map[rawdb.Hash][]byte

	// liveAccounts caches accounts read or written this block.
	liveAccounts map[Address]*Account

	// journal records undo entries for transaction-scoped reverts.
	journal []journalEntry
}

// New opens the world state at the current head.
func New(backend *Backend) (*StateDB, error) {
	accountTrie, err := trie.New(accountNodeReader{backend})
	if err != nil {
		return nil, fmt.Errorf("state: opening account trie: %w", err)
	}
	return &StateDB{
		backend:       backend,
		accountTrie:   accountTrie,
		storageTries:  make(map[rawdb.Hash]*trie.Trie),
		dirtyAccounts: make(map[Address]*Account),
		dirtyStorage:  make(map[Address]map[rawdb.Hash]rawdb.Hash),
		dirtyCode:     make(map[rawdb.Hash][]byte),
		liveAccounts:  make(map[Address]*Account),
	}, nil
}

// GetAccount returns the account at addr, or nil if absent. The read takes
// the snapshot fast path when acceleration is on (one flat read instead of
// an MPT traversal), exactly the mechanism behind Finding 7.
func (s *StateDB) GetAccount(addr Address) (*Account, error) {
	if acct, ok := s.liveAccounts[addr]; ok {
		return acct, nil
	}
	if acct, ok := s.dirtyAccounts[addr]; ok {
		return acct, nil
	}
	acctHash := AddressHash(addr)
	if s.backend.Snaps != nil {
		data, err := s.snapAccount(acctHash)
		if err == nil {
			acct, derr := DecodeSlim(data)
			if derr != nil {
				return nil, derr
			}
			s.liveAccounts[addr] = acct
			return acct, nil
		}
		if !errors.Is(err, kv.ErrNotFound) {
			return nil, err
		}
		return nil, nil // snapshot authoritative: account absent
	}
	// Bare path: full trie traversal.
	data, err := s.accountTrie.Get(addr[:])
	if err != nil {
		return nil, err
	}
	if data == nil {
		return nil, nil
	}
	acct, err := DecodeAccountRLP(data)
	if err != nil {
		return nil, err
	}
	s.liveAccounts[addr] = acct
	return acct, nil
}

// snapAccount reads the flat account entry. The snapshot tree caches its
// own disk layer; fronting the tree with a cache here would let stale
// entries shadow newer diff layers.
func (s *StateDB) snapAccount(acctHash rawdb.Hash) ([]byte, error) {
	return s.backend.Snaps.Account(acctHash)
}

// UpdateAccount buffers a mutation of addr's account.
func (s *StateDB) UpdateAccount(addr Address, acct *Account) {
	s.journalAccount(addr)
	s.dirtyAccounts[addr] = acct
	s.liveAccounts[addr] = acct
}

// DestructAccount buffers the removal of addr's account.
func (s *StateDB) DestructAccount(addr Address) {
	s.journalAccount(addr)
	s.dirtyAccounts[addr] = nil
	delete(s.liveAccounts, addr)
}

// GetState reads one storage slot of addr.
func (s *StateDB) GetState(addr Address, slot rawdb.Hash) (rawdb.Hash, error) {
	if slots, ok := s.dirtyStorage[addr]; ok {
		if v, ok := slots[slot]; ok {
			return v, nil
		}
	}
	var out rawdb.Hash
	acctHash := AddressHash(addr)
	if s.backend.Snaps != nil {
		data, err := s.snapStorage(acctHash, SlotHash(slot))
		if errors.Is(err, kv.ErrNotFound) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		copy(out[32-len(data):], data)
		return out, nil
	}
	// Bare path: traverse the storage trie.
	st, err := s.storageTrie(addr, acctHash)
	if err != nil {
		return out, err
	}
	data, err := st.Get(slot[:])
	if err != nil {
		return out, err
	}
	if len(data) > 0 {
		// Stored values are RLP-encoded with leading zeros trimmed.
		dec, err := rlpDecodeSlot(data)
		if err != nil {
			return out, err
		}
		copy(out[32-len(dec):], dec)
	}
	return out, nil
}

// snapStorage reads a flat slot entry (disk-layer caching lives inside the
// snapshot tree; see snapAccount).
func (s *StateDB) snapStorage(acctHash, slotHash rawdb.Hash) ([]byte, error) {
	return s.backend.Snaps.Storage(acctHash, slotHash)
}

// SetState buffers a slot write. A zero value clears the slot.
func (s *StateDB) SetState(addr Address, slot, value rawdb.Hash) {
	s.journalStorage(addr, slot)
	slots := s.dirtyStorage[addr]
	if slots == nil {
		slots = make(map[rawdb.Hash]rawdb.Hash)
		s.dirtyStorage[addr] = slots
	}
	slots[slot] = value
}

// SetCode buffers contract code deployment and returns its hash.
func (s *StateDB) SetCode(addr Address, code []byte) rawdb.Hash {
	hash := codeHash(code)
	s.journalCode(hash)
	s.dirtyCode[hash] = append([]byte(nil), code...)
	return hash
}

// GetCode reads contract code by hash through the code cache.
func (s *StateDB) GetCode(hash rawdb.Hash) ([]byte, error) {
	if code, ok := s.dirtyCode[hash]; ok {
		return code, nil
	}
	return s.backend.cachedGet(rawdb.ClassCode, rawdb.CodeKey(hash))
}

// storageTrie lazily opens addr's storage trie.
func (s *StateDB) storageTrie(addr Address, acctHash rawdb.Hash) (*trie.Trie, error) {
	if st, ok := s.storageTries[acctHash]; ok {
		return st, nil
	}
	st, err := trie.New(storageNodeReader{s.backend, acctHash})
	if err != nil {
		return nil, err
	}
	s.storageTries[acctHash] = st
	return st, nil
}

// Commit is the output of StateDB.Commit: every storage delta one block
// produces, ready for the chain processor to batch-write.
type Commit struct {
	Root         rawdb.Hash
	AccountNodes *trie.NodeSet
	StorageNodes map[rawdb.Hash]*trie.NodeSet
	SnapAccounts map[rawdb.Hash][]byte // slim encodings; nil = deleted
	SnapStorage  map[rawdb.Hash]map[rawdb.Hash][]byte
	Code         map[rawdb.Hash][]byte
}

// Commit folds the buffered mutations into the tries and returns the full
// delta. The StateDB remains usable for the next block.
func (s *StateDB) Commit() (*Commit, error) {
	out := &Commit{
		StorageNodes: make(map[rawdb.Hash]*trie.NodeSet),
		SnapAccounts: make(map[rawdb.Hash][]byte),
		SnapStorage:  make(map[rawdb.Hash]map[rawdb.Hash][]byte),
		Code:         s.dirtyCode,
	}
	// Storage tries first: account roots depend on them. Iterate in sorted
	// address order: resolution reads during trie updates reach the traced
	// store, so commit order must be deterministic.
	for _, addr := range sortedAddrs(s.dirtyStorage) {
		slots := s.dirtyStorage[addr]
		acctHash := AddressHash(addr)
		st, err := s.storageTrie(addr, acctHash)
		if err != nil {
			return nil, err
		}
		snapSlots := make(map[rawdb.Hash][]byte, len(slots))
		for _, slot := range sortedSlots(slots) {
			value := slots[slot]
			trimmed := trimZeros(value)
			if len(trimmed) == 0 {
				if err := st.Delete(slot[:]); err != nil {
					return nil, err
				}
				snapSlots[SlotHash(slot)] = nil
			} else {
				enc := rlpEncodeSlot(trimmed)
				if err := st.Update(slot[:], enc); err != nil {
					return nil, err
				}
				snapSlots[SlotHash(slot)] = trimmed
			}
		}
		set, root := st.Commit()
		if len(set.Writes) > 0 || len(set.Deletes) > 0 {
			out.StorageNodes[acctHash] = set
		}
		out.SnapStorage[acctHash] = snapSlots
		// If the account was destructed this block, the slot clears just
		// feed the storage-trie/snapshot delta and the account stays dead.
		if dead, destructed := s.dirtyAccounts[addr]; destructed && dead == nil {
			continue
		}
		acct, err := s.GetAccount(addr)
		if err != nil {
			return nil, err
		}
		if acct == nil {
			acct = NewAccount(bigZero())
		}
		acct = acct.Copy()
		acct.Root = root
		s.dirtyAccounts[addr] = acct
		s.liveAccounts[addr] = acct
	}
	// Account trie, in sorted address order (same determinism argument).
	for _, addr := range sortedDirtyAccounts(s.dirtyAccounts) {
		acct := s.dirtyAccounts[addr]
		acctHash := AddressHash(addr)
		if acct == nil {
			if err := s.accountTrie.Delete(addr[:]); err != nil {
				return nil, err
			}
			out.SnapAccounts[acctHash] = nil
			continue
		}
		if err := s.accountTrie.Update(addr[:], acct.EncodeRLP()); err != nil {
			return nil, err
		}
		out.SnapAccounts[acctHash] = acct.EncodeSlim()
	}
	set, root := s.accountTrie.Commit()
	out.AccountNodes = set
	out.Root = root

	// Reset per-block buffers. The journal dies with them: commits are
	// block boundaries; reverts only happen within a block.
	s.dirtyAccounts = make(map[Address]*Account)
	s.dirtyStorage = make(map[Address]map[rawdb.Hash]rawdb.Hash)
	s.dirtyCode = make(map[rawdb.Hash][]byte)
	s.liveAccounts = make(map[Address]*Account)
	s.journal = nil
	return out, nil
}

// Resolves reports trie node loads so far (instrumentation).
func (s *StateDB) Resolves() int {
	total := s.accountTrie.Resolves()
	for _, st := range s.storageTries {
		total += st.Resolves()
	}
	return total
}

// trimZeros strips leading zero bytes of a 32-byte word.
func trimZeros(v rawdb.Hash) []byte {
	i := 0
	for i < 32 && v[i] == 0 {
		i++
	}
	return v[i:]
}

// rlpEncodeSlot encodes a trimmed slot value for trie storage.
func rlpEncodeSlot(trimmed []byte) []byte {
	return rlp.EncodeString(trimmed)
}

// rlpDecodeSlot decodes a trie-stored slot value.
func rlpDecodeSlot(data []byte) ([]byte, error) {
	return rlp.DecodeString(data)
}

// codeHash returns keccak256 of contract code.
func codeHash(code []byte) rawdb.Hash {
	return keccak.Hash256(code)
}

func bigZero() *big.Int { return new(big.Int) }

// sortedAddrs returns the storage map's addresses in ascending order.
func sortedAddrs(m map[Address]map[rawdb.Hash]rawdb.Hash) []Address {
	out := make([]Address, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// sortedDirtyAccounts returns the account map's addresses in ascending
// order.
func sortedDirtyAccounts(m map[Address]*Account) []Address {
	out := make([]Address, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// sortedSlots returns slot keys in ascending order.
func sortedSlots(m map[rawdb.Hash]rawdb.Hash) []rawdb.Hash {
	out := make([]rawdb.Hash, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}
