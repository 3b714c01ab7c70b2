package rawdb

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"ethkv/internal/kv"
)

func h(b byte) Hash {
	var out Hash
	for i := range out {
		out[i] = b
	}
	return out
}

func TestClassifyAllKeyConstructors(t *testing.T) {
	hash := h(0xaa)
	owner := h(0xbb)
	tests := []struct {
		key  []byte
		want Class
	}{
		{HeaderKey(123, hash), ClassBlockHeader},
		{CanonicalHashKey(123), ClassBlockHeader},
		{HeaderNumberKey(hash), ClassHeaderNumber},
		{BlockBodyKey(123, hash), ClassBlockBody},
		{BlockReceiptsKey(123, hash), ClassBlockReceipts},
		{TxLookupKey(hash), ClassTxLookup},
		{BloomBitsKey(7, 3, hash), ClassBloomBits},
		{CodeKey(hash), ClassCode},
		{SkeletonHeaderKey(9), ClassSkeletonHeader},
		{AccountTrieNodeKey([]byte{1, 2, 3}), ClassTrieNodeAccount},
		{AccountTrieNodeKey(nil), ClassTrieNodeAccount},
		{StorageTrieNodeKey(owner, []byte{4, 5}), ClassTrieNodeStorage},
		{SnapshotAccountKey(hash), ClassSnapshotAccount},
		{SnapshotStorageKey(hash, owner), ClassSnapshotStorage},
		{StateIDKey(hash), ClassStateID},
		{BloomBitsIndexKey([]byte("count")), ClassBloomBitsIndex},
		{GenesisKey(hash), ClassEthereumGenesis},
		{ConfigKey(hash), ClassEthereumConfig},
		{SnapshotJournalKey(), ClassSnapshotJournal},
		{LastStateIDKey(), ClassLastStateID},
		{UncleanShutdownKey(), ClassUncleanShutdown},
		{SnapshotGeneratorKey(), ClassSnapshotGenerator},
		{TrieJournalKey(), ClassTrieJournal},
		{DatabaseVersionKey(), ClassDatabaseVersion},
		{LastBlockKey(), ClassLastBlock},
		{SnapshotRootKey(), ClassSnapshotRoot},
		{SkeletonSyncStatusKey(), ClassSkeletonSyncStatus},
		{LastHeaderKey(), ClassLastHeader},
		{SnapshotRecoveryKey(), ClassSnapshotRecovery},
		{TransactionIndexTailKey(), ClassTransactionIndexTail},
		{LastFastKey(), ClassLastFast},
	}
	for _, tc := range tests {
		if got := Classify(tc.key); got != tc.want {
			t.Errorf("Classify(%q) = %v, want %v", tc.key, got, tc.want)
		}
	}
}

// TestClassifyKeySizesMatchPaper pins the key sizes Table I reports for the
// fixed-size classes.
func TestClassifyKeySizesMatchPaper(t *testing.T) {
	hash := h(1)
	sizes := []struct {
		name string
		key  []byte
		want int
	}{
		{"SnapshotStorage", SnapshotStorageKey(hash, hash), 65},
		{"TxLookup", TxLookupKey(hash), 33},
		{"SnapshotAccount", SnapshotAccountKey(hash), 33},
		{"HeaderNumber", HeaderNumberKey(hash), 33},
		{"BloomBits", BloomBitsKey(0, 0, hash), 43},
		{"Code", CodeKey(hash), 33},
		{"SkeletonHeader", SkeletonHeaderKey(1), 9},
		{"BlockReceipts", BlockReceiptsKey(1, hash), 41},
		{"BlockBody", BlockBodyKey(1, hash), 41},
		{"StateID", StateIDKey(hash), 33},
		{"Ethereum-genesis", GenesisKey(hash), 49},
		{"SnapshotJournal", SnapshotJournalKey(), 15},
		{"Ethereum-config", ConfigKey(hash), 48},
		{"LastStateID", LastStateIDKey(), 11},
		{"Unclean-shutdown", UncleanShutdownKey(), 16},
		{"SnapshotGenerator", SnapshotGeneratorKey(), 17},
		{"TrieJournal", TrieJournalKey(), 11},
		{"DatabaseVersion", DatabaseVersionKey(), 15},
		{"LastBlock", LastBlockKey(), 9},
		{"SnapshotRoot", SnapshotRootKey(), 12},
		{"SkeletonSyncStatus", SkeletonSyncStatusKey(), 18},
		{"LastHeader", LastHeaderKey(), 10},
		{"SnapshotRecovery", SnapshotRecoveryKey(), 16},
		{"TransactionIndexTail", TransactionIndexTailKey(), 20},
		{"LastFast", LastFastKey(), 8},
	}
	for _, tc := range sizes {
		if len(tc.key) != tc.want {
			t.Errorf("%s key size = %d, want %d (Table I)", tc.name, len(tc.key), tc.want)
		}
	}
}

func TestClassifyUnknown(t *testing.T) {
	for _, key := range [][]byte{nil, []byte("x"), []byte("zzzz"), make([]byte, 100)} {
		if got := Classify(key); got != ClassUnknown {
			t.Errorf("Classify(%x) = %v, want Unknown", key, got)
		}
	}
	// Prefix bytes with wrong lengths must not misclassify.
	if got := Classify([]byte("H")); got != ClassUnknown {
		t.Errorf("bare H = %v", got)
	}
	if got := Classify(append([]byte("l"), make([]byte, 10)...)); got != ClassUnknown {
		t.Errorf("short l key = %v", got)
	}
}

func TestAllClassesCount(t *testing.T) {
	classes := AllClasses()
	if len(classes) != 29 {
		t.Fatalf("AllClasses returned %d classes, want 29 (Table I)", len(classes))
	}
	if NumClasses != 29 {
		t.Fatalf("NumClasses = %d, want 29", NumClasses)
	}
	seen := map[string]bool{}
	for _, c := range classes {
		name := c.String()
		if name == "Unknown" || name == "Invalid" {
			t.Errorf("class %d has no name", c)
		}
		if seen[name] {
			t.Errorf("duplicate class name %s", name)
		}
		seen[name] = true
	}
}

func TestClassPredicates(t *testing.T) {
	worldState := 0
	for _, c := range AllClasses() {
		if c.IsWorldState() {
			worldState++
		}
	}
	if worldState != 4 {
		t.Errorf("%d world-state classes, want 4", worldState)
	}
}

// TestClassifyTotalityProperty: Classify never panics and constructor keys
// always classify to a real class.
func TestClassifyTotalityProperty(t *testing.T) {
	f := func(key []byte) bool {
		_ = Classify(key) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorsRoundTrip(t *testing.T) {
	store := kv.NewMemStore()
	defer store.Close()
	hash := h(3)

	if err := WriteHeader(store, 7, hash, []byte("header")); err != nil {
		t.Fatal(err)
	}
	if v, err := ReadHeader(store, 7, hash); err != nil || string(v) != "header" {
		t.Fatalf("header: %q, %v", v, err)
	}
	if err := DeleteHeader(store, 7, hash); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHeader(store, 7, hash); !errors.Is(err, kv.ErrNotFound) {
		t.Fatal("header survived delete")
	}

	WriteCanonicalHash(store, 7, hash)
	if got, err := ReadCanonicalHash(store, 7); err != nil || got != hash {
		t.Fatalf("canonical hash: %x, %v", got, err)
	}

	WriteHeaderNumber(store, hash, 7)
	if n, err := ReadHeaderNumber(store, hash); err != nil || n != 7 {
		t.Fatalf("header number: %d, %v", n, err)
	}

	WriteBody(store, 7, hash, []byte("body"))
	if v, _ := ReadBody(store, 7, hash); string(v) != "body" {
		t.Fatal("body")
	}
	WriteReceipts(store, 7, hash, []byte("rcpts"))
	if v, _ := ReadReceipts(store, 7, hash); string(v) != "rcpts" {
		t.Fatal("receipts")
	}

	WriteTxLookup(store, hash, 20500000)
	if n, err := ReadTxLookup(store, hash); err != nil || n != 20500000 {
		t.Fatalf("tx lookup: %d, %v", n, err)
	}
	// Table I: TxLookup values are 4 bytes at current block heights.
	if v, _ := store.Get(TxLookupKey(hash)); len(v) != 4 {
		t.Fatalf("tx lookup value size = %d, want 4", len(v))
	}

	WriteCode(store, hash, []byte{0x60, 0x80})
	if v, _ := ReadCode(store, hash); !bytes.Equal(v, []byte{0x60, 0x80}) {
		t.Fatal("code")
	}

	WriteStateID(store, hash, 99)
	if id, err := ReadStateID(store, hash); err != nil || id != 99 {
		t.Fatalf("state id: %d, %v", id, err)
	}

	WriteSnapshotAccount(store, hash, []byte("acct"))
	if v, _ := ReadSnapshotAccount(store, hash); string(v) != "acct" {
		t.Fatal("snapshot account")
	}
	WriteSnapshotStorage(store, hash, h(4), []byte("slot"))
	if v, _ := ReadSnapshotStorage(store, hash, h(4)); string(v) != "slot" {
		t.Fatal("snapshot storage")
	}

	WriteAccountTrieNode(store, []byte{1, 2}, []byte("anode"))
	if v, _ := ReadAccountTrieNode(store, []byte{1, 2}); string(v) != "anode" {
		t.Fatal("account trie node")
	}
	WriteStorageTrieNode(store, hash, []byte{3}, []byte("snode"))
	if v, _ := ReadStorageTrieNode(store, hash, []byte{3}); string(v) != "snode" {
		t.Fatal("storage trie node")
	}

	WriteHeadBlockHash(store, hash)
	if got, _ := ReadHeadBlockHash(store); got != hash {
		t.Fatal("head block hash")
	}
	WriteLastStateID(store, 12)
	if id, _ := ReadLastStateID(store); id != 12 {
		t.Fatal("last state id")
	}
	WriteTxIndexTail(store, 20000000)
	if n, _ := ReadTxIndexTail(store); n != 20000000 {
		t.Fatal("tx index tail")
	}
}

func TestFreezerAppendRead(t *testing.T) {
	f, err := OpenFreezer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := uint64(0); i < 100; i++ {
		blob := []byte(fmt.Sprintf("header-%d", i))
		if err := f.Append(FreezerHeaders, i, blob); err != nil {
			t.Fatal(err)
		}
	}
	if f.Ancients() != 100 {
		t.Fatalf("Ancients = %d", f.Ancients())
	}
	for i := uint64(0); i < 100; i++ {
		blob, err := f.Ancient(FreezerHeaders, i)
		if err != nil || string(blob) != fmt.Sprintf("header-%d", i) {
			t.Fatalf("Ancient(%d) = %q, %v", i, blob, err)
		}
	}
	if _, err := f.Ancient(FreezerHeaders, 100); !errors.Is(err, ErrAncientNotFound) {
		t.Fatalf("out-of-range read: %v", err)
	}
}

func TestFreezerOutOfOrder(t *testing.T) {
	f, err := OpenFreezer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Append(FreezerHeaders, 5, []byte("five"))
	if err := f.Append(FreezerHeaders, 7, []byte("seven")); err == nil {
		t.Fatal("non-contiguous append accepted")
	}
	if err := f.Append(FreezerHeaders, 6, []byte("six")); err != nil {
		t.Fatalf("contiguous append rejected: %v", err)
	}
	if tail := f.tables[FreezerHeaders].first; tail != 5 {
		t.Fatalf("tail = %d, want 5", tail)
	}
}

func TestFreezerReopen(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFreezer(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(10); i < 20; i++ {
		f.Append(FreezerBodies, i, []byte(fmt.Sprintf("body-%d", i)))
		f.Append(FreezerHeaders, i, []byte(fmt.Sprintf("hdr-%d", i)))
	}
	f.Close()

	f2, err := OpenFreezer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if tail := f2.tables[FreezerHeaders].first; f2.Ancients() != 20 || tail != 10 {
		t.Fatalf("Ancients = %d, tail = %d", f2.Ancients(), tail)
	}
	blob, err := f2.Ancient(FreezerBodies, 15)
	if err != nil || string(blob) != "body-15" {
		t.Fatalf("reopen read: %q, %v", blob, err)
	}
	// Continue appending at the head.
	if err := f2.Append(FreezerBodies, 20, []byte("body-20")); err != nil {
		t.Fatal(err)
	}
	if blob, err := f2.Ancient(FreezerBodies, 20); err != nil || string(blob) != "body-20" {
		t.Fatalf("appended read: %q, %v", blob, err)
	}
}

func TestFreezerUnknownKind(t *testing.T) {
	f, err := OpenFreezer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Append("nonsense", 0, nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := f.Ancient("nonsense", 0); err == nil {
		t.Fatal("unknown kind read accepted")
	}
}
