package state

import (
	"bytes"
	"math/big"
	"testing"

	"ethkv/internal/cache"
	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
	"ethkv/internal/snapshot"
	"ethkv/internal/trie"
)

func addr(b byte) Address {
	var a Address
	for i := range a {
		a[i] = b
	}
	return a
}

func TestAccountRLPRoundTrip(t *testing.T) {
	acct := &Account{
		Nonce:    42,
		Balance:  big.NewInt(1_000_000_000),
		Root:     trie.EmptyRoot,
		CodeHash: EmptyCodeHash,
	}
	dec, err := DecodeAccountRLP(acct.EncodeRLP())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Nonce != 42 || dec.Balance.Cmp(acct.Balance) != 0 ||
		dec.Root != acct.Root || dec.CodeHash != acct.CodeHash {
		t.Fatalf("round-trip mismatch: %+v", dec)
	}
}

func TestSlimEncodingSmallerForEOA(t *testing.T) {
	eoa := NewAccount(big.NewInt(5e9))
	full := eoa.EncodeRLP()
	slim := eoa.EncodeSlim()
	if len(slim) >= len(full) {
		t.Fatalf("slim (%d) not smaller than full (%d) for EOA", len(slim), len(full))
	}
	dec, err := DecodeSlim(slim)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Root != trie.EmptyRoot || dec.CodeHash != EmptyCodeHash {
		t.Fatal("slim decode lost empty markers")
	}
	if dec.Balance.Cmp(eoa.Balance) != 0 {
		t.Fatal("balance lost")
	}
}

func TestSlimEncodingContract(t *testing.T) {
	acct := NewAccount(big.NewInt(1))
	acct.Root = rawdb.Hash{1, 2, 3}
	acct.CodeHash = rawdb.Hash{4, 5, 6}
	dec, err := DecodeSlim(acct.EncodeSlim())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Root != acct.Root || dec.CodeHash != acct.CodeHash {
		t.Fatal("contract slim round-trip lost hashes")
	}
	if !acct.IsContract() {
		t.Fatal("IsContract")
	}
	if NewAccount(big.NewInt(0)).IsContract() {
		t.Fatal("EOA misreported as contract")
	}
}

func TestDecodeAccountErrors(t *testing.T) {
	for _, blob := range [][]byte{nil, {0xc0}, {0x80}} {
		if _, err := DecodeAccountRLP(blob); err == nil {
			t.Errorf("DecodeAccountRLP(%x) accepted garbage", blob)
		}
		if _, err := DecodeSlim(blob); err == nil {
			t.Errorf("DecodeSlim(%x) accepted garbage", blob)
		}
	}
}

// bareBackend builds a BareTrace-style backend (no snapshot, no cache).
func bareBackend(t *testing.T) *Backend {
	t.Helper()
	db := kv.NewMemStore()
	t.Cleanup(func() { db.Close() })
	return &Backend{DB: db}
}

// cachedBackend builds a CacheTrace-style backend.
func cachedBackend(t *testing.T) *Backend {
	t.Helper()
	db := kv.NewMemStore()
	t.Cleanup(func() { db.Close() })
	return &Backend{
		DB:     db,
		Snaps:  snapshot.NewTree(db, 8),
		Caches: cache.NewManager(1 << 20),
	}
}

// writeCommit applies a state commit to the backing store the way the
// chain processor would.
func writeCommit(t *testing.T, b *Backend, c *Commit) {
	t.Helper()
	for path, blob := range c.AccountNodes.Writes {
		rawdb.WriteAccountTrieNode(b.DB, []byte(path), blob)
	}
	for _, path := range c.AccountNodes.Deletes {
		rawdb.DeleteAccountTrieNode(b.DB, []byte(path))
	}
	for owner, set := range c.StorageNodes {
		for path, blob := range set.Writes {
			rawdb.WriteStorageTrieNode(b.DB, owner, []byte(path), blob)
		}
		for _, path := range set.Deletes {
			rawdb.DeleteStorageTrieNode(b.DB, owner, []byte(path))
		}
	}
	for hash, code := range c.Code {
		rawdb.WriteCode(b.DB, hash, code)
	}
	if b.Snaps != nil {
		if err := b.Snaps.Update(c.Root, c.SnapAccounts, c.SnapStorage); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStateDBBareLifecycle(t *testing.T) {
	backend := bareBackend(t)
	sdb, err := New(backend)
	if err != nil {
		t.Fatal(err)
	}
	a := addr(1)
	if acct, err := sdb.GetAccount(a); err != nil || acct != nil {
		t.Fatalf("fresh account: %+v, %v", acct, err)
	}
	sdb.UpdateAccount(a, NewAccount(big.NewInt(100)))
	commit, err := sdb.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if commit.Root == trie.EmptyRoot {
		t.Fatal("root unchanged after account creation")
	}
	writeCommit(t, backend, commit)

	// A fresh StateDB must read the account back through the trie.
	sdb2, err := New(backend)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := sdb2.GetAccount(a)
	if err != nil || acct == nil {
		t.Fatalf("reload account: %v", err)
	}
	if acct.Balance.Int64() != 100 {
		t.Fatalf("balance = %v", acct.Balance)
	}
}

func TestStateDBStorageBare(t *testing.T) {
	backend := bareBackend(t)
	sdb, _ := New(backend)
	a := addr(2)
	slot := rawdb.Hash{0x01}
	val := rawdb.Hash{}
	val[31] = 0x2a

	sdb.UpdateAccount(a, NewAccount(big.NewInt(1)))
	sdb.SetState(a, slot, val)
	// Dirty read before commit.
	got, err := sdb.GetState(a, slot)
	if err != nil || got != val {
		t.Fatalf("dirty GetState = %x, %v", got, err)
	}
	commit, err := sdb.Commit()
	if err != nil {
		t.Fatal(err)
	}
	writeCommit(t, backend, commit)

	sdb2, _ := New(backend)
	got, err = sdb2.GetState(a, slot)
	if err != nil || got != val {
		t.Fatalf("committed GetState = %x, %v", got, err)
	}
	// Absent slot reads as zero.
	if got, _ := sdb2.GetState(a, rawdb.Hash{0xff}); got != (rawdb.Hash{}) {
		t.Fatalf("absent slot = %x", got)
	}
	// Storage root must be folded into the account.
	acct, _ := sdb2.GetAccount(a)
	if acct.Root == trie.EmptyRoot {
		t.Fatal("storage root not propagated to account")
	}
}

func TestStateDBCachedReadsViaSnapshot(t *testing.T) {
	backend := cachedBackend(t)
	sdb, _ := New(backend)
	a := addr(3)
	slot := rawdb.Hash{0x05}
	var val rawdb.Hash
	val[31] = 9

	sdb.UpdateAccount(a, NewAccount(big.NewInt(777)))
	sdb.SetState(a, slot, val)
	commit, err := sdb.Commit()
	if err != nil {
		t.Fatal(err)
	}
	writeCommit(t, backend, commit)

	sdb2, _ := New(backend)
	base := sdb2.Resolves() // opening the trie loads the root once
	acct, err := sdb2.GetAccount(a)
	if err != nil || acct == nil || acct.Balance.Int64() != 777 {
		t.Fatalf("snapshot account read: %+v, %v", acct, err)
	}
	got, err := sdb2.GetState(a, slot)
	if err != nil || got != val {
		t.Fatalf("snapshot slot read = %x, %v", got, err)
	}
	// Snapshot reads must not traverse the trie.
	if sdb2.Resolves() != base {
		t.Fatalf("snapshot path resolved %d extra trie nodes", sdb2.Resolves()-base)
	}
	// Absent account answered authoritatively by the snapshot.
	if acct, err := sdb2.GetAccount(addr(0xEE)); err != nil || acct != nil {
		t.Fatalf("absent account via snapshot: %+v, %v", acct, err)
	}
}

func TestStateDBCodeRoundTrip(t *testing.T) {
	backend := cachedBackend(t)
	sdb, _ := New(backend)
	a := addr(4)
	code := bytes.Repeat([]byte{0x60, 0x80, 0x60, 0x40}, 500)
	hash := sdb.SetCode(a, code)

	acct := NewAccount(big.NewInt(0))
	acct.CodeHash = hash
	sdb.UpdateAccount(a, acct)
	// Dirty code readable pre-commit.
	if got, err := sdb.GetCode(hash); err != nil || !bytes.Equal(got, code) {
		t.Fatalf("dirty code: %v", err)
	}
	commit, _ := sdb.Commit()
	if !bytes.Equal(commit.Code[hash], code) {
		t.Fatal("commit lost code")
	}
	writeCommit(t, backend, commit)

	sdb2, _ := New(backend)
	got, err := sdb2.GetCode(hash)
	if err != nil || !bytes.Equal(got, code) {
		t.Fatalf("committed code: %v", err)
	}
	// Second read should hit the code cache (no new store read).
	if _, err := sdb2.GetCode(hash); err != nil {
		t.Fatal(err)
	}
}

func TestStateDBDestruct(t *testing.T) {
	backend := bareBackend(t)
	sdb, _ := New(backend)
	a := addr(5)
	sdb.UpdateAccount(a, NewAccount(big.NewInt(1)))
	commit, _ := sdb.Commit()
	writeCommit(t, backend, commit)

	sdb2, _ := New(backend)
	sdb2.DestructAccount(a)
	commit2, err := sdb2.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if commit2.Root != trie.EmptyRoot {
		t.Fatal("destructing the only account must empty the trie")
	}
	if commit2.SnapAccounts[AddressHash(a)] != nil {
		t.Fatal("destruct must emit a nil snapshot entry")
	}
	writeCommit(t, backend, commit2)
	sdb3, _ := New(backend)
	if acct, _ := sdb3.GetAccount(a); acct != nil {
		t.Fatal("account survived destruction")
	}
}

func TestCommitSnapshotEncodings(t *testing.T) {
	backend := cachedBackend(t)
	sdb, _ := New(backend)
	a := addr(6)
	sdb.UpdateAccount(a, NewAccount(big.NewInt(12345)))
	commit, _ := sdb.Commit()
	slim := commit.SnapAccounts[AddressHash(a)]
	if slim == nil {
		t.Fatal("no snapshot entry emitted")
	}
	dec, err := DecodeSlim(slim)
	if err != nil || dec.Balance.Int64() != 12345 {
		t.Fatalf("slim entry: %v", err)
	}
}

func TestSlotValueTrimming(t *testing.T) {
	backend := bareBackend(t)
	sdb, _ := New(backend)
	a := addr(7)
	sdb.UpdateAccount(a, NewAccount(big.NewInt(1)))
	// A slot value with 31 leading zeros stores as a single byte.
	var small rawdb.Hash
	small[31] = 0x7
	sdb.SetState(a, rawdb.Hash{1}, small)
	commit, _ := sdb.Commit()
	writeCommit(t, backend, commit)

	sdb2, _ := New(backend)
	got, err := sdb2.GetState(a, rawdb.Hash{1})
	if err != nil || got != small {
		t.Fatalf("trimmed slot = %x, %v", got, err)
	}
}

func TestZeroValueClearsSlot(t *testing.T) {
	backend := bareBackend(t)
	sdb, _ := New(backend)
	a := addr(8)
	sdb.UpdateAccount(a, NewAccount(big.NewInt(1)))
	var v rawdb.Hash
	v[31] = 1
	sdb.SetState(a, rawdb.Hash{2}, v)
	commit, _ := sdb.Commit()
	writeCommit(t, backend, commit)

	sdb2, _ := New(backend)
	sdb2.SetState(a, rawdb.Hash{2}, rawdb.Hash{}) // zero = clear
	commit2, _ := sdb2.Commit()
	writeCommit(t, backend, commit2)

	sdb3, _ := New(backend)
	if got, _ := sdb3.GetState(a, rawdb.Hash{2}); got != (rawdb.Hash{}) {
		t.Fatalf("cleared slot reads %x", got)
	}
	// The snapshot delta must carry a nil marker for the cleared slot.
	slotHash := SlotHash(rawdb.Hash{2})
	if data, ok := commit2.SnapStorage[AddressHash(a)][slotHash]; !ok || data != nil {
		t.Fatal("clearing must emit nil snapshot slot entry")
	}
}

func TestAddressAndSlotHashing(t *testing.T) {
	a := addr(9)
	h1 := AddressHash(a)
	h2 := AddressHash(a)
	if h1 != h2 {
		t.Fatal("AddressHash not deterministic")
	}
	if AddressHash(addr(10)) == h1 {
		t.Fatal("distinct addresses collide")
	}
	if SlotHash(rawdb.Hash{1}) == SlotHash(rawdb.Hash{2}) {
		t.Fatal("distinct slots collide")
	}
}

// TestGenerateSnapshotMatchesCommitSeed: regenerating the flat snapshot
// from the tries must produce exactly the entries the commit path emitted.
func TestGenerateSnapshotMatchesCommitSeed(t *testing.T) {
	backend := bareBackend(t)
	sdb, _ := New(backend)
	// A mix of EOAs and a contract with storage.
	for i := 0; i < 40; i++ {
		sdb.UpdateAccount(addr(byte(i+1)), NewAccount(big.NewInt(int64(i)*7+1)))
	}
	contract := addr(200)
	code := []byte{0x60, 0x00}
	acct := NewAccount(big.NewInt(5))
	acct.CodeHash = sdb.SetCode(contract, code)
	sdb.UpdateAccount(contract, acct)
	for s := 0; s < 12; s++ {
		var v rawdb.Hash
		v[31] = byte(s + 1)
		sdb.SetState(contract, rawdb.Hash{byte(s)}, v)
	}
	commit, err := sdb.Commit()
	if err != nil {
		t.Fatal(err)
	}
	writeCommit(t, backend, commit)

	// Generate into a fresh store and compare against the commit's
	// snapshot delta.
	out := kv.NewMemStore()
	defer out.Close()
	accounts, slots, err := GenerateSnapshot(backend, out)
	if err != nil {
		t.Fatal(err)
	}
	if accounts != 41 {
		t.Fatalf("generated %d accounts, want 41", accounts)
	}
	if slots != 12 {
		t.Fatalf("generated %d slots, want 12", slots)
	}
	for acctHash, want := range commit.SnapAccounts {
		got, err := rawdb.ReadSnapshotAccount(out, acctHash)
		if err != nil {
			t.Fatalf("generated snapshot missing account %x: %v", acctHash[:4], err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("account %x: generated %x, commit %x", acctHash[:4], got, want)
		}
	}
	for acctHash, slotMap := range commit.SnapStorage {
		for slotHash, want := range slotMap {
			got, err := rawdb.ReadSnapshotStorage(out, acctHash, slotHash)
			if err != nil {
				t.Fatalf("generated snapshot missing slot: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("slot mismatch: generated %x, commit %x", got, want)
			}
		}
	}
}

func TestGenerateSnapshotEmptyState(t *testing.T) {
	backend := bareBackend(t)
	out := kv.NewMemStore()
	defer out.Close()
	accounts, slots, err := GenerateSnapshot(backend, out)
	if err != nil || accounts != 0 || slots != 0 {
		t.Fatalf("empty generate: %d, %d, %v", accounts, slots, err)
	}
}
