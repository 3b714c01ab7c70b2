package rawdb

import (
	"encoding/binary"
	"errors"

	"ethkv/internal/kv"
)

// Typed accessors over a kv.Writer/Reader, following Geth's rawdb style:
// one Write/Read/Delete triple per record kind. Accessors take the narrow
// interface they need so both the raw store and write batches work.

// WriteHeader stores an encoded block header.
func WriteHeader(w kv.Writer, number uint64, hash Hash, encoded []byte) error {
	return w.Put(HeaderKey(number, hash), encoded)
}

// ReadHeader retrieves an encoded block header.
func ReadHeader(r kv.Reader, number uint64, hash Hash) ([]byte, error) {
	return r.Get(HeaderKey(number, hash))
}

// DeleteHeader removes a block header.
func DeleteHeader(w kv.Writer, number uint64, hash Hash) error {
	return w.Delete(HeaderKey(number, hash))
}

// WriteCanonicalHash maps a block number to its canonical hash.
func WriteCanonicalHash(w kv.Writer, number uint64, hash Hash) error {
	return w.Put(CanonicalHashKey(number), hash[:])
}

// ReadCanonicalHash returns the canonical hash at the given height.
func ReadCanonicalHash(r kv.Reader, number uint64) (Hash, error) {
	var h Hash
	v, err := r.Get(CanonicalHashKey(number))
	if err != nil {
		return h, err
	}
	copy(h[:], v)
	return h, nil
}

// DeleteCanonicalHash removes a canonical-hash mapping.
func DeleteCanonicalHash(w kv.Writer, number uint64) error {
	return w.Delete(CanonicalHashKey(number))
}

// WriteHeaderNumber stores the hash -> number mapping.
func WriteHeaderNumber(w kv.Writer, hash Hash, number uint64) error {
	var enc [8]byte
	binary.BigEndian.PutUint64(enc[:], number)
	return w.Put(HeaderNumberKey(hash), enc[:])
}

// ReadHeaderNumber returns the block number for a header hash.
func ReadHeaderNumber(r kv.Reader, hash Hash) (uint64, error) {
	v, err := r.Get(HeaderNumberKey(hash))
	if err != nil {
		return 0, err
	}
	if len(v) != 8 {
		return 0, errors.New("rawdb: malformed header number entry")
	}
	return binary.BigEndian.Uint64(v), nil
}

// WriteBody stores an encoded block body.
func WriteBody(w kv.Writer, number uint64, hash Hash, encoded []byte) error {
	return w.Put(BlockBodyKey(number, hash), encoded)
}

// ReadBody retrieves an encoded block body.
func ReadBody(r kv.Reader, number uint64, hash Hash) ([]byte, error) {
	return r.Get(BlockBodyKey(number, hash))
}

// DeleteBody removes a block body.
func DeleteBody(w kv.Writer, number uint64, hash Hash) error {
	return w.Delete(BlockBodyKey(number, hash))
}

// WriteReceipts stores encoded block receipts.
func WriteReceipts(w kv.Writer, number uint64, hash Hash, encoded []byte) error {
	return w.Put(BlockReceiptsKey(number, hash), encoded)
}

// ReadReceipts retrieves encoded block receipts.
func ReadReceipts(r kv.Reader, number uint64, hash Hash) ([]byte, error) {
	return r.Get(BlockReceiptsKey(number, hash))
}

// DeleteReceipts removes block receipts.
func DeleteReceipts(w kv.Writer, number uint64, hash Hash) error {
	return w.Delete(BlockReceiptsKey(number, hash))
}

// WriteTxLookup indexes a transaction hash to its block number.
func WriteTxLookup(w kv.Writer, txHash Hash, number uint64) error {
	// Geth stores the number in minimal big-endian form; the paper's
	// Table I reports the resulting 4-byte values at current heights.
	var enc [8]byte
	binary.BigEndian.PutUint64(enc[:], number)
	i := 0
	for i < 7 && enc[i] == 0 {
		i++
	}
	return w.Put(TxLookupKey(txHash), enc[i:])
}

// ReadTxLookup returns the block number indexed for a transaction.
func ReadTxLookup(r kv.Reader, txHash Hash) (uint64, error) {
	v, err := r.Get(TxLookupKey(txHash))
	if err != nil {
		return 0, err
	}
	if len(v) > 8 {
		return 0, errors.New("rawdb: malformed tx lookup entry")
	}
	var num uint64
	for _, b := range v {
		num = num<<8 | uint64(b)
	}
	return num, nil
}

// DeleteTxLookup removes a transaction index entry.
func DeleteTxLookup(w kv.Writer, txHash Hash) error {
	return w.Delete(TxLookupKey(txHash))
}

// WriteCode stores contract bytecode by its hash.
func WriteCode(w kv.Writer, codeHash Hash, code []byte) error {
	return w.Put(CodeKey(codeHash), code)
}

// ReadCode retrieves contract bytecode.
func ReadCode(r kv.Reader, codeHash Hash) ([]byte, error) {
	return r.Get(CodeKey(codeHash))
}

// WriteBloomBits stores one bloom filter section.
func WriteBloomBits(w kv.Writer, bit uint16, section uint64, head Hash, bits []byte) error {
	return w.Put(BloomBitsKey(bit, section, head), bits)
}

// WriteSkeletonHeader stores a skeleton-sync header.
func WriteSkeletonHeader(w kv.Writer, number uint64, encoded []byte) error {
	return w.Put(SkeletonHeaderKey(number), encoded)
}

// ReadSkeletonHeader retrieves a skeleton-sync header.
func ReadSkeletonHeader(r kv.Reader, number uint64) ([]byte, error) {
	return r.Get(SkeletonHeaderKey(number))
}

// WriteAccountTrieNode stores an account-trie node at a path.
func WriteAccountTrieNode(w kv.Writer, path []byte, blob []byte) error {
	return w.Put(AccountTrieNodeKey(path), blob)
}

// ReadAccountTrieNode retrieves an account-trie node.
func ReadAccountTrieNode(r kv.Reader, path []byte) ([]byte, error) {
	return r.Get(AccountTrieNodeKey(path))
}

// DeleteAccountTrieNode removes an account-trie node.
func DeleteAccountTrieNode(w kv.Writer, path []byte) error {
	return w.Delete(AccountTrieNodeKey(path))
}

// WriteStorageTrieNode stores a storage-trie node.
func WriteStorageTrieNode(w kv.Writer, owner Hash, path []byte, blob []byte) error {
	return w.Put(StorageTrieNodeKey(owner, path), blob)
}

// ReadStorageTrieNode retrieves a storage-trie node.
func ReadStorageTrieNode(r kv.Reader, owner Hash, path []byte) ([]byte, error) {
	return r.Get(StorageTrieNodeKey(owner, path))
}

// DeleteStorageTrieNode removes a storage-trie node.
func DeleteStorageTrieNode(w kv.Writer, owner Hash, path []byte) error {
	return w.Delete(StorageTrieNodeKey(owner, path))
}

// WriteSnapshotAccount stores a flat account snapshot entry.
func WriteSnapshotAccount(w kv.Writer, accountHash Hash, data []byte) error {
	return w.Put(SnapshotAccountKey(accountHash), data)
}

// ReadSnapshotAccount retrieves a flat account snapshot entry.
func ReadSnapshotAccount(r kv.Reader, accountHash Hash) ([]byte, error) {
	return r.Get(SnapshotAccountKey(accountHash))
}

// DeleteSnapshotAccount removes a flat account snapshot entry.
func DeleteSnapshotAccount(w kv.Writer, accountHash Hash) error {
	return w.Delete(SnapshotAccountKey(accountHash))
}

// WriteSnapshotStorage stores a flat storage-slot snapshot entry.
func WriteSnapshotStorage(w kv.Writer, accountHash, slotHash Hash, data []byte) error {
	return w.Put(SnapshotStorageKey(accountHash, slotHash), data)
}

// ReadSnapshotStorage retrieves a flat storage-slot snapshot entry.
func ReadSnapshotStorage(r kv.Reader, accountHash, slotHash Hash) ([]byte, error) {
	return r.Get(SnapshotStorageKey(accountHash, slotHash))
}

// DeleteSnapshotStorage removes a flat storage-slot snapshot entry.
func DeleteSnapshotStorage(w kv.Writer, accountHash, slotHash Hash) error {
	return w.Delete(SnapshotStorageKey(accountHash, slotHash))
}

// WriteStateID maps a state root to its sequential id.
func WriteStateID(w kv.Writer, root Hash, id uint64) error {
	var enc [8]byte
	binary.BigEndian.PutUint64(enc[:], id)
	return w.Put(StateIDKey(root), enc[:])
}

// ReadStateID returns the id of a state root.
func ReadStateID(r kv.Reader, root Hash) (uint64, error) {
	v, err := r.Get(StateIDKey(root))
	if err != nil {
		return 0, err
	}
	if len(v) != 8 {
		return 0, errors.New("rawdb: malformed state id entry")
	}
	return binary.BigEndian.Uint64(v), nil
}

// DeleteStateID removes a state-root id mapping.
func DeleteStateID(w kv.Writer, root Hash) error {
	return w.Delete(StateIDKey(root))
}

// WriteHeadBlockHash updates the LastBlock singleton.
func WriteHeadBlockHash(w kv.Writer, hash Hash) error {
	return w.Put(LastBlockKey(), hash[:])
}

// ReadHeadBlockHash reads the LastBlock singleton.
func ReadHeadBlockHash(r kv.Reader) (Hash, error) {
	var h Hash
	v, err := r.Get(LastBlockKey())
	if err != nil {
		return h, err
	}
	copy(h[:], v)
	return h, nil
}

// WriteHeadHeaderHash updates the LastHeader singleton.
func WriteHeadHeaderHash(w kv.Writer, hash Hash) error {
	return w.Put(LastHeaderKey(), hash[:])
}

// WriteHeadFastBlockHash updates the LastFast singleton.
func WriteHeadFastBlockHash(w kv.Writer, hash Hash) error {
	return w.Put(LastFastKey(), hash[:])
}

// WriteLastStateID updates the LastStateID singleton.
func WriteLastStateID(w kv.Writer, id uint64) error {
	var enc [8]byte
	binary.BigEndian.PutUint64(enc[:], id)
	return w.Put(LastStateIDKey(), enc[:])
}

// ReadLastStateID reads the LastStateID singleton.
func ReadLastStateID(r kv.Reader) (uint64, error) {
	v, err := r.Get(LastStateIDKey())
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(v), nil
}

// WriteTxIndexTail records the oldest block whose transactions are indexed.
func WriteTxIndexTail(w kv.Writer, number uint64) error {
	var enc [8]byte
	binary.BigEndian.PutUint64(enc[:], number)
	return w.Put(TransactionIndexTailKey(), enc[:])
}

// ReadTxIndexTail returns the oldest indexed block.
func ReadTxIndexTail(r kv.Reader) (uint64, error) {
	v, err := r.Get(TransactionIndexTailKey())
	if errors.Is(err, kv.ErrNotFound) {
		return 0, err
	}
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(v), nil
}
