package chain

import (
	"encoding/binary"
	"math/big"
	"math/rand"

	"ethkv/internal/rawdb"
	"ethkv/internal/state"
)

// WorkloadConfig tunes the synthetic transaction generator. The defaults
// approximate mainnet's mix at a laptop-runnable scale; the fields are what
// the CLIs, the benchmark rig, the root sweeps and the tests set.
type WorkloadConfig struct {
	// Seed drives the deterministic RNG, so traces are reproducible.
	Seed int64
	// Accounts is the pre-seeded EOA population at genesis.
	Accounts int
	// Contracts is the pre-seeded contract population at genesis.
	Contracts int
	// SlotsPerContract seeds each contract with this many storage slots.
	SlotsPerContract int
	// TxPerBlock is the transaction count per block (mainnet ~150-200).
	TxPerBlock int
	// ZipfS is the skew of account popularity (>1; higher = hotter heads).
	ZipfS float64
	// DestructChance is the per-block probability of one contract
	// self-destructing (drives account/slot deletions).
	DestructChance float64
	// FreshRecipientRatio is the share of transfers that pay a
	// never-seen address, growing the EOA population the way mainnet
	// does (~100k new accounts/day). Without growth, long runs saturate
	// the key space and the never-read majority of Finding 3 vanishes.
	FreshRecipientRatio float64
}

// The transaction mix and per-transaction shape. Deploys and calls take
// these shares of a block; the remainder (0.57) are transfers.
const (
	callRatio   = 0.42
	deployRatio = 0.01
	// slotReadsPerCall / slotWritesPerCall bound contract-slot activity.
	slotReadsPerCall  = 3
	slotWritesPerCall = 2
	// codeSizeMean approximates mainnet's ~6.6 KiB average bytecode.
	codeSizeMean = 6600
)

// DefaultWorkload returns the configuration used by the paper-reproduction
// experiments.
func DefaultWorkload() WorkloadConfig {
	return WorkloadConfig{
		Seed:                42,
		Accounts:            20000,
		Contracts:           1500,
		SlotsPerContract:    40,
		TxPerBlock:          150,
		ZipfS:               1.2,
		DestructChance:      0.02,
		FreshRecipientRatio: 0.15,
	}
}

// Workload deterministically produces the transaction stream. It tracks
// the account/contract population as deploys add contracts, and keeps the
// sender nonce book so generated transactions are self-consistent.
type Workload struct {
	cfg WorkloadConfig
	rng *rand.Rand

	eoaZipf      *rand.Zipf
	contractZipf *rand.Zipf

	eoas      []state.Address
	contracts []state.Address
	nonces    map[state.Address]uint64
}

// NewWorkload builds the generator for a config.
func NewWorkload(cfg WorkloadConfig) *Workload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{
		cfg:    cfg,
		rng:    rng,
		nonces: make(map[state.Address]uint64),
	}
	for i := 0; i < cfg.Accounts; i++ {
		w.eoas = append(w.eoas, accountAddress(uint64(i)))
	}
	for i := 0; i < cfg.Contracts; i++ {
		w.contracts = append(w.contracts, contractAddress(uint64(i)))
	}
	// Zipf over index space; imax is re-derived lazily as populations grow.
	w.rebuildZipf()
	return w
}

// rebuildZipf refreshes the Zipf samplers after population growth.
func (w *Workload) rebuildZipf() {
	w.eoaZipf = rand.NewZipf(w.rng, w.cfg.ZipfS, 1, uint64(len(w.eoas)-1))
	w.contractZipf = rand.NewZipf(w.rng, w.cfg.ZipfS, 1, uint64(len(w.contracts)-1))
}

// accountAddress derives a deterministic EOA address.
func accountAddress(i uint64) state.Address {
	var a state.Address
	a[0] = 0xee
	binary.BigEndian.PutUint64(a[1:9], i)
	return a
}

// contractAddress derives a deterministic contract address.
func contractAddress(i uint64) state.Address {
	var a state.Address
	a[0] = 0xcc
	binary.BigEndian.PutUint64(a[1:9], i)
	return a
}

// pickEOA samples an EOA with Zipf popularity.
func (w *Workload) pickEOA() state.Address {
	return w.eoas[w.eoaZipf.Uint64()]
}

// pickContract samples a contract with Zipf popularity.
func (w *Workload) pickContract() state.Address {
	return w.contracts[w.contractZipf.Uint64()]
}

// ContractSlot derives the i-th canonical slot key of a contract.
func ContractSlot(i uint64) rawdb.Hash {
	var s rawdb.Hash
	binary.BigEndian.PutUint64(s[24:], i)
	return s
}

// GenerateBlockTxs produces the transaction list for one block.
func (w *Workload) GenerateBlockTxs() []*Transaction {
	txs := make([]*Transaction, 0, w.cfg.TxPerBlock)
	for i := 0; i < w.cfg.TxPerBlock; i++ {
		roll := w.rng.Float64()
		switch {
		case roll < deployRatio:
			txs = append(txs, w.deployTx())
		case roll < deployRatio+callRatio:
			txs = append(txs, w.callTx())
		default:
			txs = append(txs, w.transferTx())
		}
	}
	return txs
}

// transferTx moves value between two EOAs. A configurable share of
// transfers pays a brand-new address, growing the population.
func (w *Workload) transferTx() *Transaction {
	from := w.pickEOA()
	var to state.Address
	if w.rng.Float64() < w.cfg.FreshRecipientRatio {
		to = accountAddress(uint64(len(w.eoas)))
		w.eoas = append(w.eoas, to)
		w.rebuildZipf()
	} else {
		to = w.pickEOA()
		for to == from {
			to = w.pickEOA()
		}
	}
	return &Transaction{
		Kind:     TxTransfer,
		Nonce:    w.nextNonce(from),
		From:     from,
		To:       to,
		Value:    big.NewInt(w.rng.Int63n(1e15) + 1),
		GasLimit: 21000,
	}
}

// callTx invokes a contract; Data length models calldata (~196 bytes
// median for token transfers and swaps).
func (w *Workload) callTx() *Transaction {
	from := w.pickEOA()
	to := w.pickContract()
	data := make([]byte, 4+32*(1+w.rng.Intn(6)))
	w.rng.Read(data)
	return &Transaction{
		Kind:     TxContractCall,
		Nonce:    w.nextNonce(from),
		From:     from,
		To:       to,
		Value:    big.NewInt(0),
		GasLimit: uint64(50000 + w.rng.Intn(200000)),
		Data:     data,
	}
}

// deployTx creates a new contract; Data is the init bytecode.
func (w *Workload) deployTx() *Transaction {
	from := w.pickEOA()
	// Code sizes: rough log-normal-ish spread around the mean.
	size := codeSizeMean/4 + w.rng.Intn(codeSizeMean*3/2)
	data := make([]byte, size)
	w.rng.Read(data)
	idx := uint64(len(w.contracts))
	newAddr := contractAddress(idx)
	w.contracts = append(w.contracts, newAddr)
	w.rebuildZipf()
	return &Transaction{
		Kind:     TxDeploy,
		Nonce:    w.nextNonce(from),
		From:     from,
		To:       newAddr,
		Value:    big.NewInt(0),
		GasLimit: 1_500_000,
		Data:     data,
	}
}

// nextNonce assigns the sender's next nonce.
func (w *Workload) nextNonce(from state.Address) uint64 {
	n := w.nonces[from]
	w.nonces[from] = n + 1
	return n
}

// MaybeDestruct returns a contract to self-destruct this block, or ok=false.
func (w *Workload) MaybeDestruct() (state.Address, bool) {
	if len(w.contracts) < 10 || w.rng.Float64() >= w.cfg.DestructChance {
		var zero state.Address
		return zero, false
	}
	// Destruct from the unpopular tail so hot contracts survive.
	idx := len(w.contracts)/2 + w.rng.Intn(len(w.contracts)/2)
	victim := w.contracts[idx]
	w.contracts = append(w.contracts[:idx], w.contracts[idx+1:]...)
	w.rebuildZipf()
	return victim, true
}

// SlotIndexFor samples which slot of a contract a call touches, with
// locality: low-numbered slots (totals, owner fields) are hottest.
func (w *Workload) SlotIndexFor() uint64 {
	if w.rng.Float64() < 0.5 {
		return uint64(w.rng.Intn(4)) // hot fixed slots
	}
	return uint64(w.rng.Intn(w.cfg.SlotsPerContract))
}

// RNG exposes the generator's randomness for processor-side decisions so
// everything stays on one deterministic stream.
func (w *Workload) RNG() *rand.Rand { return w.rng }

// Config returns the active configuration.
func (w *Workload) Config() WorkloadConfig { return w.cfg }

// EOACount and ContractCount report current population sizes.
func (w *Workload) EOACount() int      { return len(w.eoas) }
func (w *Workload) ContractCount() int { return len(w.contracts) }
