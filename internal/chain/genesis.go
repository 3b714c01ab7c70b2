package chain

import (
	"bytes"
	"math/big"
	"math/rand"
	"sort"

	"ethkv/internal/keccak"
	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
	"ethkv/internal/rlp"
	"ethkv/internal/state"
	"ethkv/internal/trie"
)

// Genesis seeds the database with the initial world state: EOAs with
// balances, contracts with code and storage, the genesis block, and the
// system singletons (config, version, genesis spec). In the paper's setting
// this state is what 20.5M blocks of prior synchronization built; here it
// is written directly so traces start from a populated store, mirroring how
// the traces capture only blocks 20.5M-21.5M over pre-existing state.
// GenesisNumber is the chain height the traces start from — the paper's
// window opens at mainnet block 20.5M. Starting there keeps key/value
// encodings realistic (e.g. TxLookup values take 4 bytes, as in Table I).
const GenesisNumber uint64 = 20_500_000

type Genesis struct {
	Config WorkloadConfig
	// SeedSnapshot also populates the flat snapshot disk layer. Set it for
	// cached-mode runs only: a node without snapshot acceleration has no
	// SnapshotAccount/SnapshotStorage pairs at all, which is exactly the
	// storage-overhead delta Finding 7 measures.
	SeedSnapshot bool
}

// Commit writes the genesis state to db and returns the genesis block.
// Writes happen below any tracing wrapper in the callers that want the
// paper's semantics (pre-existing state is not part of the trace).
func (g *Genesis) Commit(db kv.Store) (*Block, error) {
	rng := rand.New(rand.NewSource(g.Config.Seed ^ 0x5eed))

	backend := &state.Backend{DB: db}
	sdb, err := state.New(backend)
	if err != nil {
		return nil, err
	}
	// Seed EOAs.
	for i := 0; i < g.Config.Accounts; i++ {
		addr := accountAddress(uint64(i))
		acct := state.NewAccount(big.NewInt(rng.Int63n(1e18) + 1e15))
		acct.Nonce = uint64(rng.Intn(100))
		sdb.UpdateAccount(addr, acct)
	}
	// Seed contracts with code and storage.
	for i := 0; i < g.Config.Contracts; i++ {
		addr := contractAddress(uint64(i))
		size := codeSizeMean/4 + rng.Intn(codeSizeMean*3/2)
		code := make([]byte, size)
		rng.Read(code)
		hash := sdb.SetCode(addr, code)
		acct := state.NewAccount(big.NewInt(rng.Int63n(1e17)))
		acct.CodeHash = hash
		sdb.UpdateAccount(addr, acct)
		for s := 0; s < g.Config.SlotsPerContract; s++ {
			var val rawdb.Hash
			rng.Read(val[8:]) // slot values with leading zeros, like real data
			sdb.SetState(addr, ContractSlot(uint64(s)), val)
		}
	}
	commit, err := sdb.Commit()
	if err != nil {
		return nil, err
	}
	if err := writeStateCommit(db, commit); err != nil {
		return nil, err
	}
	// Seed the flat snapshot disk layer (cached mode only; the snapshot
	// generator would build this during initial sync).
	if g.SeedSnapshot {
		for acct, data := range commit.SnapAccounts {
			if data != nil {
				if err := rawdb.WriteSnapshotAccount(db, acct, data); err != nil {
					return nil, err
				}
			}
		}
		for acct, slots := range commit.SnapStorage {
			for slot, data := range slots {
				if data != nil {
					if err := rawdb.WriteSnapshotStorage(db, acct, slot, data); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// Genesis block and system singletons.
	header := &Header{
		Root:     commit.Root,
		Number:   GenesisNumber,
		GasLimit: 30_000_000,
		Time:     1723248000, // 2024-08-10, the trace window start
		BaseFee:  big.NewInt(7),
		Extra:    []byte("ethkv-genesis"),
	}
	block := &Block{Header: header, Body: &Body{}}
	hash := block.Hash()

	enc := header.EncodeRLP()
	if err := rawdb.WriteHeader(db, GenesisNumber, hash, enc); err != nil {
		return nil, err
	}
	if err := rawdb.WriteCanonicalHash(db, GenesisNumber, hash); err != nil {
		return nil, err
	}
	if err := rawdb.WriteHeaderNumber(db, hash, GenesisNumber); err != nil {
		return nil, err
	}
	if err := rawdb.WriteBody(db, GenesisNumber, hash, block.Body.EncodeRLP()); err != nil {
		return nil, err
	}
	// The genesis spec singleton: a large JSON-ish blob in real Geth.
	spec := genesisSpec(g.Config, commit.Root)
	if err := db.Put(rawdb.GenesisKey(hash), spec); err != nil {
		return nil, err
	}
	if err := db.Put(rawdb.ConfigKey(hash), chainConfig()); err != nil {
		return nil, err
	}
	if err := db.Put(rawdb.DatabaseVersionKey(), []byte{9}); err != nil {
		return nil, err
	}
	if err := rawdb.WriteHeadBlockHash(db, hash); err != nil {
		return nil, err
	}
	if err := rawdb.WriteHeadHeaderHash(db, hash); err != nil {
		return nil, err
	}
	if err := rawdb.WriteHeadFastBlockHash(db, hash); err != nil {
		return nil, err
	}
	if err := rawdb.WriteStateID(db, commit.Root, 0); err != nil {
		return nil, err
	}
	if err := rawdb.WriteLastStateID(db, 0); err != nil {
		return nil, err
	}
	if err := rawdb.WriteTxIndexTail(db, GenesisNumber); err != nil {
		return nil, err
	}
	if err := db.Put(rawdb.SkeletonSyncStatusKey(), skeletonStatus(GenesisNumber)); err != nil {
		return nil, err
	}
	if err := db.Put(rawdb.UncleanShutdownKey(), rlp.EncodeList(rlp.EncodeUint(header.Time))); err != nil {
		return nil, err
	}
	if err := db.Put(rawdb.SnapshotRootKey(), commit.Root[:]); err != nil {
		return nil, err
	}
	if err := db.Put(rawdb.SnapshotRecoveryKey(), make([]byte, 8)); err != nil {
		return nil, err
	}
	return block, nil
}

// writeStateCommit lands a state commit's trie nodes and code in db. All
// iteration is key-sorted: batches land path-ordered per owner, which both
// keeps runs deterministic and produces the adjacent-update correlations
// of Findings 10-11 (Geth's node sets flush in path order too).
func writeStateCommit(db kv.Store, c *state.Commit) error {
	batch := db.NewBatch()
	for _, path := range sortedKeys(c.AccountNodes.Writes) {
		if err := rawdb.WriteAccountTrieNode(batch, []byte(path), c.AccountNodes.Writes[path]); err != nil {
			return err
		}
	}
	for _, path := range sortedStrings(c.AccountNodes.Deletes) {
		if err := rawdb.DeleteAccountTrieNode(batch, []byte(path)); err != nil {
			return err
		}
	}
	for _, owner := range sortedHashes(c.StorageNodes) {
		set := c.StorageNodes[owner]
		for _, path := range sortedKeys(set.Writes) {
			if err := rawdb.WriteStorageTrieNode(batch, owner, []byte(path), set.Writes[path]); err != nil {
				return err
			}
		}
		for _, path := range sortedStrings(set.Deletes) {
			if err := rawdb.DeleteStorageTrieNode(batch, owner, []byte(path)); err != nil {
				return err
			}
		}
	}
	for _, hash := range sortedCodeHashes(c.Code) {
		if err := rawdb.WriteCode(batch, hash, c.Code[hash]); err != nil {
			return err
		}
	}
	return batch.Write()
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sortedStrings returns a sorted copy of a string slice.
func sortedStrings(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// sortedHashes returns node-set owners in ascending hash order.
func sortedHashes(m map[rawdb.Hash]*trie.NodeSet) []rawdb.Hash {
	out := make([]rawdb.Hash, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// sortedCodeHashes returns code hashes in ascending order.
func sortedCodeHashes(m map[rawdb.Hash][]byte) []rawdb.Hash {
	out := make([]rawdb.Hash, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// genesisSpec renders a genesis-spec blob whose size scales with the
// seeded allocation, like the real 0.68 MiB mainnet genesis value.
func genesisSpec(cfg WorkloadConfig, root rawdb.Hash) []byte {
	// One alloc row per account: address + balance encoding ≈ 30 bytes.
	n := (cfg.Accounts + cfg.Contracts) * 30
	spec := make([]byte, n+64)
	copy(spec, []byte(`{"config":{"chainId":1},"alloc":{`))
	copy(spec[len(spec)-32:], root[:])
	return spec
}

// chainConfig renders the chain-config singleton (~600 bytes on mainnet).
func chainConfig() []byte {
	cfg := make([]byte, 603)
	copy(cfg, []byte(`{"chainId":1,"homesteadBlock":1150000,"eip150Block":2463000}`))
	return cfg
}

// skeletonStatus renders the skeleton sync-status value (146 bytes).
func skeletonStatus(head uint64) []byte {
	payload := make([]byte, 146)
	copy(payload, rlp.EncodeList(rlp.EncodeUint(head)))
	return payload
}

// trieJournalBlob renders a trie-journal payload proportional to the dirty
// node count (the 336 MiB singleton of Table I at mainnet scale).
func trieJournalBlob(dirtyNodes int) []byte {
	n := dirtyNodes*96 + 128
	blob := make([]byte, n)
	h := keccak.Hash256([]byte("trie-journal"))
	copy(blob, h[:])
	return blob
}
