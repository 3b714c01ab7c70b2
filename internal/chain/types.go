// Package chain implements the blockchain substrate: block and transaction
// types, a deterministic synthetic workload generator calibrated to mainnet
// block shape, and the full-synchronization block processor that drives the
// complete Geth-style storage stack (tries, snapshot, caches, freezer,
// indexes) — the machinery whose KV-operation stream the paper traces.
package chain

import (
	"math/big"

	"ethkv/internal/keccak"
	"ethkv/internal/rawdb"
	"ethkv/internal/rlp"
	"ethkv/internal/state"
)

// Header is a block header carrying the fields that matter for storage
// behaviour (hashes link the chain; roots commit to state and receipts).
type Header struct {
	ParentHash  rawdb.Hash
	Coinbase    state.Address
	Root        rawdb.Hash // world-state root after this block
	TxHash      rawdb.Hash // transactions trie root
	ReceiptHash rawdb.Hash // receipts trie root
	Bloom       [256]byte  // log bloom
	Number      uint64
	GasLimit    uint64
	GasUsed     uint64
	Time        uint64
	Extra       []byte
	BaseFee     *big.Int
}

// EncodeRLP serializes the header.
func (h *Header) EncodeRLP() []byte {
	return rlp.EncodeList(
		rlp.EncodeString(h.ParentHash[:]),
		rlp.EncodeString(h.Coinbase[:]),
		rlp.EncodeString(h.Root[:]),
		rlp.EncodeString(h.TxHash[:]),
		rlp.EncodeString(h.ReceiptHash[:]),
		rlp.EncodeString(h.Bloom[:]),
		rlp.EncodeUint(h.Number),
		rlp.EncodeUint(h.GasLimit),
		rlp.EncodeUint(h.GasUsed),
		rlp.EncodeUint(h.Time),
		rlp.EncodeString(h.Extra),
		rlp.AppendBig(nil, h.BaseFee),
	)
}

// DecodeHeader parses an encoded header.
func DecodeHeader(data []byte) (*Header, error) {
	items, err := rlp.SplitList(data)
	if err != nil || len(items) != 12 {
		return nil, errMalformed("header", err)
	}
	h := &Header{}
	fields := [][]byte{nil, nil, nil, nil, nil, nil}
	for i := 0; i < 6; i++ {
		fields[i], err = rlp.DecodeString(items[i])
		if err != nil {
			return nil, err
		}
	}
	copy(h.ParentHash[:], fields[0])
	copy(h.Coinbase[:], fields[1])
	copy(h.Root[:], fields[2])
	copy(h.TxHash[:], fields[3])
	copy(h.ReceiptHash[:], fields[4])
	copy(h.Bloom[:], fields[5])
	if h.Number, err = rlp.DecodeUint(items[6]); err != nil {
		return nil, err
	}
	if h.GasLimit, err = rlp.DecodeUint(items[7]); err != nil {
		return nil, err
	}
	if h.GasUsed, err = rlp.DecodeUint(items[8]); err != nil {
		return nil, err
	}
	if h.Time, err = rlp.DecodeUint(items[9]); err != nil {
		return nil, err
	}
	if h.Extra, err = rlp.DecodeString(items[10]); err != nil {
		return nil, err
	}
	d := rlp.NewDecoder(items[11])
	if h.BaseFee, err = d.Big(); err != nil {
		return nil, err
	}
	return h, nil
}

// Hash returns the keccak256 of the header encoding.
func (h *Header) Hash() rawdb.Hash {
	return keccak.Hash256(h.EncodeRLP())
}

// TxKind distinguishes the synthetic transaction types the generator emits.
type TxKind uint8

// Transaction kinds modelled after mainnet's mix.
const (
	TxTransfer     TxKind = iota // plain value transfer between EOAs
	TxContractCall               // call into a contract: code + slot I/O
	TxDeploy                     // contract creation
)

// Transaction is one synthetic transaction.
type Transaction struct {
	Kind     TxKind
	Nonce    uint64
	From     state.Address
	To       state.Address
	Value    *big.Int
	GasLimit uint64
	Data     []byte
}

// EncodeRLP serializes the transaction.
func (tx *Transaction) EncodeRLP() []byte {
	return rlp.EncodeList(
		rlp.EncodeUint(uint64(tx.Kind)),
		rlp.EncodeUint(tx.Nonce),
		rlp.EncodeString(tx.From[:]),
		rlp.EncodeString(tx.To[:]),
		rlp.AppendBig(nil, tx.Value),
		rlp.EncodeUint(tx.GasLimit),
		rlp.EncodeString(tx.Data),
	)
}

// Hash returns the transaction hash.
func (tx *Transaction) Hash() rawdb.Hash {
	return keccak.Hash256(tx.EncodeRLP())
}

// Body is a block's transaction list.
type Body struct {
	Transactions []*Transaction
}

// EncodeRLP serializes the body.
func (b *Body) EncodeRLP() []byte {
	items := make([][]byte, len(b.Transactions))
	for i, tx := range b.Transactions {
		items[i] = tx.EncodeRLP()
	}
	return rlp.EncodeList(rlp.EncodeList(items...))
}

// DecodeBody parses an encoded body.
func DecodeBody(data []byte) (*Body, error) {
	outer, err := rlp.SplitList(data)
	if err != nil || len(outer) != 1 {
		return nil, errMalformed("body", err)
	}
	txItems, err := rlp.SplitList(outer[0])
	if err != nil {
		return nil, err
	}
	body := &Body{}
	for _, item := range txItems {
		tx, err := decodeTx(item)
		if err != nil {
			return nil, err
		}
		body.Transactions = append(body.Transactions, tx)
	}
	return body, nil
}

func decodeTx(data []byte) (*Transaction, error) {
	items, err := rlp.SplitList(data)
	if err != nil || len(items) != 7 {
		return nil, errMalformed("transaction", err)
	}
	tx := &Transaction{}
	kind, err := rlp.DecodeUint(items[0])
	if err != nil {
		return nil, err
	}
	tx.Kind = TxKind(kind)
	if tx.Nonce, err = rlp.DecodeUint(items[1]); err != nil {
		return nil, err
	}
	from, err := rlp.DecodeString(items[2])
	if err != nil {
		return nil, err
	}
	copy(tx.From[:], from)
	to, err := rlp.DecodeString(items[3])
	if err != nil {
		return nil, err
	}
	copy(tx.To[:], to)
	d := rlp.NewDecoder(items[4])
	if tx.Value, err = d.Big(); err != nil {
		return nil, err
	}
	if tx.GasLimit, err = rlp.DecodeUint(items[5]); err != nil {
		return nil, err
	}
	if tx.Data, err = rlp.DecodeString(items[6]); err != nil {
		return nil, err
	}
	return tx, nil
}

// Receipt records one transaction's execution outcome.
type Receipt struct {
	Status  uint64
	GasUsed uint64
	Logs    []Log
}

// Log is one emitted event.
type Log struct {
	Address state.Address
	Topics  []rawdb.Hash
	Data    []byte
}

// EncodeRLP serializes the receipt.
func (r *Receipt) EncodeRLP() []byte {
	logItems := make([][]byte, len(r.Logs))
	for i, log := range r.Logs {
		topicItems := make([][]byte, len(log.Topics))
		for j, topic := range log.Topics {
			topicItems[j] = rlp.EncodeString(topic[:])
		}
		logItems[i] = rlp.EncodeList(
			rlp.EncodeString(log.Address[:]),
			rlp.EncodeList(topicItems...),
			rlp.EncodeString(log.Data),
		)
	}
	return rlp.EncodeList(
		rlp.EncodeUint(r.Status),
		rlp.EncodeUint(r.GasUsed),
		rlp.EncodeList(logItems...),
	)
}

// EncodeReceipts serializes a block's receipt list.
func EncodeReceipts(receipts []*Receipt) []byte {
	items := make([][]byte, len(receipts))
	for i, r := range receipts {
		items[i] = r.EncodeRLP()
	}
	return rlp.EncodeList(items...)
}

// Block bundles a header with its body and receipts.
type Block struct {
	Header   *Header
	Body     *Body
	Receipts []*Receipt
}

// Hash returns the block (header) hash.
func (b *Block) Hash() rawdb.Hash { return b.Header.Hash() }

// Number returns the block height.
func (b *Block) Number() uint64 { return b.Header.Number }

// listRoot derives a commitment hash over encoded items (stand-in for the
// per-block transaction/receipt tries, which do not touch the KV store).
func listRoot(items [][]byte) rawdb.Hash {
	return keccak.Hash256(items...)
}

func errMalformed(what string, err error) error {
	if err != nil {
		return err
	}
	return &malformedError{what}
}

type malformedError struct{ what string }

func (e *malformedError) Error() string { return "chain: malformed " + e.what }
