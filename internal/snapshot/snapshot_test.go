package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
)

func hash(b byte) rawdb.Hash {
	var h rawdb.Hash
	for i := range h {
		h[i] = b
	}
	return h
}

func TestAccountThroughDiffLayers(t *testing.T) {
	db := kv.NewMemStore()
	defer db.Close()
	tree := NewTree(db, 8)

	acct := hash(1)
	tree.Update(hash(0xa0), map[rawdb.Hash][]byte{acct: []byte("v1")}, nil)
	if v, err := tree.Account(acct); err != nil || string(v) != "v1" {
		t.Fatalf("Account = %q, %v", v, err)
	}
	// A newer layer shadows the older one.
	tree.Update(hash(0xa1), map[rawdb.Hash][]byte{acct: []byte("v2")}, nil)
	if v, _ := tree.Account(acct); string(v) != "v2" {
		t.Fatalf("shadowing failed: %q", v)
	}
	// Deletion marker.
	tree.Update(hash(0xa2), map[rawdb.Hash][]byte{acct: nil}, nil)
	if _, err := tree.Account(acct); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("deleted account: %v", err)
	}
}

func TestFlattenWritesDiskLayer(t *testing.T) {
	db := kv.NewMemStore()
	defer db.Close()
	tree := NewTree(db, 2)

	// Three updates with capacity 2: the first flattens to disk.
	for i := 0; i < 3; i++ {
		acct := hash(byte(i + 1))
		tree.Update(hash(byte(0xb0+i)),
			map[rawdb.Hash][]byte{acct: []byte(fmt.Sprintf("acct-%d", i))},
			map[rawdb.Hash]map[rawdb.Hash][]byte{
				acct: {hash(0x99): []byte(fmt.Sprintf("slot-%d", i))},
			})
	}
	if len(tree.layers) != 2 {
		t.Fatalf("%d diff layers, want 2", len(tree.layers))
	}
	// Account 1 must now be readable from the disk layer.
	if v, err := rawdb.ReadSnapshotAccount(db, hash(1)); err != nil || string(v) != "acct-0" {
		t.Fatalf("disk layer account: %q, %v", v, err)
	}
	if v, err := rawdb.ReadSnapshotStorage(db, hash(1), hash(0x99)); err != nil || string(v) != "slot-0" {
		t.Fatalf("disk layer storage: %q, %v", v, err)
	}
	// And through the tree API.
	if v, err := tree.Account(hash(1)); err != nil || string(v) != "acct-0" {
		t.Fatalf("tree read of flattened account: %q, %v", v, err)
	}
}

func TestFlattenAppliesDeletions(t *testing.T) {
	db := kv.NewMemStore()
	defer db.Close()
	tree := NewTree(db, 4)
	acct := hash(5)
	rawdb.WriteSnapshotAccount(db, acct, []byte("old"))
	tree.Update(hash(0xc0), map[rawdb.Hash][]byte{acct: nil}, nil)
	if err := tree.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := rawdb.ReadSnapshotAccount(db, acct); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("deletion not applied at flatten: %v", err)
	}
}

func TestStorageReadFallsThrough(t *testing.T) {
	db := kv.NewMemStore()
	defer db.Close()
	tree := NewTree(db, 4)
	acct, slot := hash(1), hash(2)
	rawdb.WriteSnapshotStorage(db, acct, slot, []byte("disk"))
	if v, err := tree.Storage(acct, slot); err != nil || string(v) != "disk" {
		t.Fatalf("Storage = %q, %v", v, err)
	}
	// Layered write shadows disk.
	tree.Update(hash(0xd0), nil, map[rawdb.Hash]map[rawdb.Hash][]byte{
		acct: {slot: []byte("mem")},
	})
	if v, _ := tree.Storage(acct, slot); string(v) != "mem" {
		t.Fatal("diff layer did not shadow disk")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	db := kv.NewMemStore()
	defer db.Close()
	tree := NewTree(db, 8)
	acct := hash(7)
	slotOwner := hash(8)
	tree.Update(hash(0xe0), map[rawdb.Hash][]byte{acct: []byte("journaled")},
		map[rawdb.Hash]map[rawdb.Hash][]byte{
			slotOwner: {hash(9): []byte("slotval")},
		})
	if err := tree.Journal(); err != nil {
		t.Fatal(err)
	}
	// The journal singleton must exist now.
	if ok, _ := db.Has(rawdb.SnapshotJournalKey()); !ok {
		t.Fatal("journal key missing")
	}

	// A new tree restores the layers and consumes the journal.
	tree2 := NewTree(db, 8)
	if len(tree2.layers) != 1 {
		t.Fatalf("restored %d layers, want 1", len(tree2.layers))
	}
	if v, err := tree2.Account(acct); err != nil || string(v) != "journaled" {
		t.Fatalf("restored account: %q, %v", v, err)
	}
	if v, err := tree2.Storage(slotOwner, hash(9)); err != nil || string(v) != "slotval" {
		t.Fatalf("restored storage: %q, %v", v, err)
	}
	if ok, _ := db.Has(rawdb.SnapshotJournalKey()); ok {
		t.Fatal("journal not consumed on restore")
	}
}

func TestStorageScan(t *testing.T) {
	db := kv.NewMemStore()
	defer db.Close()
	tree := NewTree(db, 4)
	acct := hash(1)
	for i := 0; i < 10; i++ {
		rawdb.WriteSnapshotStorage(db, acct, hash(byte(i+10)), []byte{byte(i)})
	}
	// Another account's slots must not leak into the scan.
	rawdb.WriteSnapshotStorage(db, hash(2), hash(99), []byte("other"))

	var got [][]byte
	tree.StorageScan(acct, func(slot rawdb.Hash, data []byte) bool {
		got = append(got, append([]byte(nil), data...))
		return true
	})
	if len(got) != 10 {
		t.Fatalf("scan saw %d slots, want 10", len(got))
	}
	// Early termination.
	n := 0
	tree.StorageScan(acct, func(rawdb.Hash, []byte) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("scan did not stop early: %d", n)
	}
}

func TestGeneratorMarkerWritten(t *testing.T) {
	db := kv.NewMemStore()
	defer db.Close()
	NewTree(db, 4)
	if ok, _ := db.Has(rawdb.SnapshotGeneratorKey()); !ok {
		t.Fatal("generator marker missing")
	}
}

func TestLayerEncodeDecode(t *testing.T) {
	layer := &diffLayer{
		root: hash(0xf0),
		accounts: map[rawdb.Hash][]byte{
			hash(1): []byte("a"),
			hash(2): bytes.Repeat([]byte{7}, 100),
		},
		storage: map[rawdb.Hash]map[rawdb.Hash][]byte{
			hash(1): {hash(3): []byte("s")},
		},
	}
	dec, err := decodeLayer(encodeLayer(layer))
	if err != nil {
		t.Fatal(err)
	}
	if dec.root != layer.root {
		t.Fatal("root lost")
	}
	if string(dec.accounts[hash(1)]) != "a" || len(dec.accounts[hash(2)]) != 100 {
		t.Fatal("accounts lost")
	}
	if string(dec.storage[hash(1)][hash(3)]) != "s" {
		t.Fatal("storage lost")
	}
}

func TestDecodeLayerGarbage(t *testing.T) {
	for _, raw := range [][]byte{nil, {0x01}, {0xc0}} {
		if _, err := decodeLayer(raw); err == nil {
			t.Errorf("decodeLayer(%x) accepted garbage", raw)
		}
	}
}

func TestAccountScan(t *testing.T) {
	db := kv.NewMemStore()
	defer db.Close()
	tree := NewTree(db, 4)
	for i := 0; i < 10; i++ {
		rawdb.WriteSnapshotAccount(db, hash(byte(i+1)), []byte{byte(i)})
	}
	var seen []rawdb.Hash
	tree.AccountScan(func(acct rawdb.Hash, data []byte) bool {
		seen = append(seen, acct)
		return true
	})
	if len(seen) != 10 {
		t.Fatalf("scan saw %d accounts, want 10", len(seen))
	}
	// Early stop.
	n := 0
	tree.AccountScan(func(rawdb.Hash, []byte) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("scan did not stop: %d", n)
	}
}
