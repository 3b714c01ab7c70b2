package chain

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"ethkv/internal/cache"
	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
	"ethkv/internal/rlp"
	"ethkv/internal/snapshot"
	"ethkv/internal/state"
	"ethkv/internal/trie"
)

// ProcessorConfig tunes the block-import pipeline's storage mechanisms.
type ProcessorConfig struct {
	// CachingEnabled turns on the per-class caches AND snapshot
	// acceleration (coupled in Geth, §III-A): the CacheTrace setup.
	// Disabled reproduces BareTrace.
	CachingEnabled bool
	// CacheBytes is the shared cache budget (Geth default 1 GiB, scaled).
	CacheBytes int
	// AdmitOnWrite admits flushed trie nodes into the clean cache (Geth's
	// behaviour). Finding 6 suggests never-read pairs should not be
	// admitted on the write path; the ablation flips this.
	AdmitOnWrite bool
}

// The lifecycle scales, shrunk proportionally from Geth's (finality 90k
// blocks, tx index 2.35M blocks, bloom sections of 4096) so that the
// lifecycle effects appear within laptop-scale runs.
const (
	// freezerThreshold is how many recent blocks stay in the KV store
	// before migrating to the freezer.
	freezerThreshold = 16
	// txIndexLimit is how many recent blocks keep their tx lookups.
	txIndexLimit = 24
	// bloomSectionSize is the block count per bloom-bits section.
	bloomSectionSize = 32
	// bloomBitsPerSection is how many bit rows each section writes (Geth
	// writes 2048; scaled down).
	bloomBitsPerSection = 16
	// snapshotLayers is the in-memory diff layer capacity.
	snapshotLayers = 32
	// trieFlushInterval is how many blocks of trie dirt accumulate in
	// memory before flushing (cached mode only; Geth's dirty cache).
	trieFlushInterval = 64
	// stateHistory is how many recent StateID entries are retained.
	stateHistory = 32
)

// DefaultProcessorConfig returns the scaled defaults.
func DefaultProcessorConfig(cached bool) ProcessorConfig {
	return ProcessorConfig{
		CachingEnabled: cached,
		CacheBytes:     8 << 20,
	}
}

// nodeBuffer is the in-memory trie dirty buffer (cached mode): committed
// node writes coalesce here across blocks before one batched flush,
// reproducing the write reduction of Finding 7. It also serves reads so the
// unflushed state stays visible.
type nodeBuffer struct {
	nodes map[string][]byte // full rawdb key -> blob; nil = pending delete
}

func newNodeBuffer() *nodeBuffer {
	return &nodeBuffer{nodes: make(map[string][]byte)}
}

// GetNode implements state.NodeBuffer.
func (b *nodeBuffer) GetNode(key []byte) (blob []byte, found bool) {
	blob, found = b.nodes[string(key)]
	return blob, found
}

// Processor imports blocks through the full Geth-shaped storage stack.
type Processor struct {
	db       kv.Store
	freezer  *rawdb.Freezer
	workload *Workload

	backend *state.Backend
	snaps   *snapshot.Tree
	caches  *cache.Manager
	dirty   *nodeBuffer

	head        *Block
	stateID     uint64
	txIndexTail uint64
	frozen      uint64
	// recentRoots ring-buffers the StateID roots for pruning.
	recentRoots []rawdb.Hash

	blocksImported uint64
	txProcessed    uint64
}

// NewProcessor wires the pipeline over db (typically a trace-wrapped
// store) and a freezer directory.
func NewProcessor(db kv.Store, freezer *rawdb.Freezer, genesis *Block,
	w *Workload, cfg ProcessorConfig) (*Processor, error) {
	p := &Processor{
		db:       db,
		freezer:  freezer,
		workload: w,
		head:     genesis,
	}
	if cfg.CachingEnabled {
		p.caches = cache.NewManager(cfg.CacheBytes)
		p.snaps = snapshot.NewTree(db, snapshotLayers)
		p.snaps.SetDiskCache(p.caches)
		p.dirty = newNodeBuffer()
	}
	p.backend = &state.Backend{
		DB:           db,
		Snaps:        p.snaps,
		Caches:       p.caches,
		AdmitOnWrite: cfg.AdmitOnWrite,
	}
	if p.dirty != nil {
		p.backend.DirtyNodes = p.dirty
	}
	// Startup housekeeping Geth performs: version check, config read,
	// crash-marker update (Unclean-shutdown is read and updated 50/50,
	// Table II).
	if _, err := db.Get(rawdb.DatabaseVersionKey()); err != nil && !errors.Is(err, kv.ErrNotFound) {
		return nil, err
	}
	if v, err := db.Get(rawdb.UncleanShutdownKey()); err == nil {
		_ = db.Put(rawdb.UncleanShutdownKey(), v)
	}
	if _, err := rawdb.ReadHeadBlockHash(db); err != nil && !errors.Is(err, kv.ErrNotFound) {
		return nil, err
	}
	p.stateID, _ = rawdb.ReadLastStateID(db)
	p.txIndexTail, _ = rawdb.ReadTxIndexTail(db)
	p.frozen = freezer.Ancients()
	if p.frozen == 0 {
		// An empty freezer means nothing before genesis exists to freeze.
		p.frozen = genesis.Number()
	}
	return p, nil
}

// Caches exposes the cache manager (nil in bare mode).
func (p *Processor) Caches() *cache.Manager { return p.caches }

// ImportBlocks runs full synchronization for n blocks: generate, execute,
// verify, persist — the loop whose KV operations the trace captures.
func (p *Processor) ImportBlocks(n int) error {
	for i := 0; i < n; i++ {
		if err := p.importOne(); err != nil {
			return fmt.Errorf("chain: importing block %d: %w", p.head.Number()+1, err)
		}
	}
	return nil
}

// importOne advances the chain by one block: skeleton bookkeeping,
// transaction execution, the state commit, batched persistence and
// lifecycle management, drawing randomness live from the workload RNG at
// each use site.
func (p *Processor) importOne() error {
	number := p.head.Number() + 1

	// --- Phase 0: skeleton sync bookkeeping. The skeleton downloads the
	// header ahead of the body; it is written, read back during fill and
	// verification, and the status row updates.
	parentHash := p.head.Hash()
	txs := p.workload.GenerateBlockTxs()
	provisional := &Header{
		ParentHash: parentHash,
		Number:     number,
		GasLimit:   30_000_000,
		Time:       p.head.Header.Time + 12,
		BaseFee:    big.NewInt(7),
	}
	if err := rawdb.WriteSkeletonHeader(p.db, number, provisional.EncodeRLP()); err != nil {
		return err
	}
	// Filled and re-verified: skeleton headers are read several times.
	for i := 0; i < 5; i++ {
		if _, err := rawdb.ReadSkeletonHeader(p.db, number); err != nil {
			return err
		}
	}
	if err := p.db.Put(rawdb.SkeletonSyncStatusKey(), skeletonStatus(number)); err != nil {
		return err
	}

	// --- Phase 1: execute transactions against the world state. Reads are
	// on-demand here (the random-read phase of §IV-C).
	sdb, err := state.New(p.backend)
	if err != nil {
		return err
	}
	receipts := make([]*Receipt, 0, len(txs))
	for _, tx := range txs {
		// ~3% of mainnet transactions revert. Their reads already hit the
		// store (and the trace), but the journal unwinds their writes so
		// nothing of theirs commits — Geth's exact failure semantics.
		snap := sdb.Snapshot()
		r, err := p.applyTx(sdb, tx)
		if err != nil {
			return err
		}
		if tx.Kind == TxContractCall && p.workload.RNG().Float64() < 0.03 {
			sdb.RevertToSnapshot(snap)
			r = &Receipt{Status: 0, GasUsed: tx.GasLimit}
		}
		receipts = append(receipts, r)
		p.txProcessed++
	}
	// Occasional contract self-destruction: account + slots die.
	if victim, ok := p.workload.MaybeDestruct(); ok {
		if err := p.destructContract(sdb, victim); err != nil {
			return err
		}
	}

	// --- Phase 2: commit state and build the block. The commit is pure CPU
	// (trie resolution happened during Update/Delete).
	commit, err := sdb.Commit()
	if err != nil {
		return err
	}
	body := &Body{Transactions: txs}
	encTxs := make([][]byte, len(txs))
	for i, tx := range txs {
		encTxs[i] = tx.EncodeRLP()
	}
	encReceipts := make([][]byte, len(receipts))
	for i, r := range receipts {
		encReceipts[i] = r.EncodeRLP()
	}
	header := provisional
	header.Root = commit.Root
	header.TxHash = listRoot(encTxs)
	header.ReceiptHash = listRoot(encReceipts)
	var gasUsed uint64
	for _, r := range receipts {
		gasUsed += r.GasUsed
	}
	header.GasUsed = gasUsed
	block := &Block{Header: header, Body: body, Receipts: receipts}

	// Parent lookup during verification: hash -> number -> header.
	if _, err := rawdb.ReadHeaderNumber(p.db, parentHash); err != nil && !errors.Is(err, kv.ErrNotFound) {
		return err
	}
	if _, err := p.readHeader(p.head.Number(), parentHash); err != nil && !errors.Is(err, kv.ErrNotFound) {
		return err
	}
	hash := block.Hash()

	// --- Phase 3: batched persistence after verification (§IV-C: writes
	// are batched and flushed at the end of each block).
	batch := p.db.NewBatch()
	if err := rawdb.WriteHeader(batch, number, hash, header.EncodeRLP()); err != nil {
		return err
	}
	if err := rawdb.WriteCanonicalHash(batch, number, hash); err != nil {
		return err
	}
	if err := rawdb.WriteHeaderNumber(batch, hash, number); err != nil {
		return err
	}
	if err := rawdb.WriteBody(batch, number, hash, body.EncodeRLP()); err != nil {
		return err
	}
	if err := rawdb.WriteReceipts(batch, number, hash, EncodeReceipts(receipts)); err != nil {
		return err
	}
	for _, tx := range txs {
		if err := rawdb.WriteTxLookup(batch, tx.Hash(), number); err != nil {
			return err
		}
	}
	// State id allocation: read the latest id, then write the new mapping.
	if _, err := rawdb.ReadLastStateID(p.db); err != nil && !errors.Is(err, kv.ErrNotFound) {
		return err
	}
	p.stateID++
	if err := rawdb.WriteStateID(batch, commit.Root, p.stateID); err != nil {
		return err
	}
	if err := rawdb.WriteLastStateID(batch, p.stateID); err != nil {
		return err
	}
	p.recentRoots = append(p.recentRoots, commit.Root)
	if len(p.recentRoots) > stateHistory {
		old := p.recentRoots[0]
		p.recentRoots = p.recentRoots[1:]
		if err := rawdb.DeleteStateID(batch, old); err != nil {
			return err
		}
	}
	// Head markers update with every block, in one batch: the source of
	// the tightly-clustered LastFast/LastHeader/LastBlock update
	// correlations of Finding 10.
	if err := rawdb.WriteHeadHeaderHash(batch, hash); err != nil {
		return err
	}
	if err := rawdb.WriteHeadFastBlockHash(batch, hash); err != nil {
		return err
	}
	if err := rawdb.WriteHeadBlockHash(batch, hash); err != nil {
		return err
	}
	if err := batch.Write(); err != nil {
		return err
	}

	// Trie nodes and code: buffered in cached mode, immediate in bare mode.
	if err := p.persistState(commit); err != nil {
		return err
	}
	// Snapshot acceleration update (cached mode only).
	if p.snaps != nil {
		if err := p.snaps.Update(commit.Root, commit.SnapAccounts, commit.SnapStorage); err != nil {
			return err
		}
	}

	// --- Phase 4: lifecycle management.
	if err := p.freezeOldBlocks(number); err != nil {
		return err
	}
	if err := p.pruneTxIndex(number); err != nil {
		return err
	}
	if err := p.maybeIndexBlooms(number, hash); err != nil {
		return err
	}
	// Snapshot integrity spot-check: very occasionally the snapshot layer
	// range-scans one account's slots — the near-zero SnapshotStorage scan
	// rate of Finding 4 (0.002% of that class's ops on mainnet).
	if p.snaps != nil && number%48 == 0 {
		owner := state.AddressHash(contractAddress(0))
		n := 0
		p.snaps.StorageScan(owner, func(rawdb.Hash, []byte) bool {
			n++
			return n < 16
		})
	}

	p.head = block
	p.blocksImported++
	return nil
}

// applyTx executes one transaction against the state.
func (p *Processor) applyTx(sdb *state.StateDB, tx *Transaction) (*Receipt, error) {
	sender, err := sdb.GetAccount(tx.From)
	if err != nil {
		return nil, err
	}
	if sender == nil {
		sender = state.NewAccount(big.NewInt(1e18))
	}
	sender = sender.Copy()
	sender.Nonce++
	sender.Balance.Sub(sender.Balance, tx.Value)
	sdb.UpdateAccount(tx.From, sender)

	recipient, err := sdb.GetAccount(tx.To)
	if err != nil {
		return nil, err
	}

	receipt := &Receipt{Status: 1, GasUsed: tx.GasLimit / 2}
	switch tx.Kind {
	case TxTransfer:
		if recipient == nil {
			recipient = state.NewAccount(big.NewInt(0))
		}
		recipient = recipient.Copy()
		recipient.Balance.Add(recipient.Balance, tx.Value)
		sdb.UpdateAccount(tx.To, recipient)
		// EIP-158-style churn: a small share of transfers drain the sender
		// completely, removing the empty account; a later transfer to the
		// same address recreates it. This cycle deletes and reinserts the
		// same trie paths and snapshot keys repeatedly (Finding 5).
		if p.workload.RNG().Float64() < 0.03 {
			sdb.DestructAccount(tx.From)
		}

	case TxContractCall:
		if recipient == nil {
			// Calling a destroyed/unknown contract: value transfer only.
			recipient = state.NewAccount(big.NewInt(0))
			sdb.UpdateAccount(tx.To, recipient)
			receipt.Status = 0
			break
		}
		// Execute: read the bytecode, read and write storage slots.
		if recipient.IsContract() {
			if _, err := sdb.GetCode(recipient.CodeHash); err != nil && !errors.Is(err, kv.ErrNotFound) {
				return nil, err
			}
		}
		for i := 0; i < slotReadsPerCall; i++ {
			slot := ContractSlot(p.workload.SlotIndexFor())
			if _, err := sdb.GetState(tx.To, slot); err != nil {
				return nil, err
			}
		}
		for i := 0; i < slotWritesPerCall; i++ {
			slot := ContractSlot(p.workload.SlotIndexFor())
			var val rawdb.Hash
			p.workload.RNG().Read(val[16:])
			sdb.SetState(tx.To, slot, val)
		}
		// Mark the contract account dirty: the storage change will update
		// its storage root at commit.
		sdb.UpdateAccount(tx.To, recipient.Copy())
		receipt.Logs = []Log{{
			Address: tx.To,
			Topics:  []rawdb.Hash{{0xdd}, {0xee}},
			Data:    make([]byte, 32),
		}}

	case TxDeploy:
		acct := state.NewAccount(big.NewInt(0))
		acct.CodeHash = sdb.SetCode(tx.To, tx.Data)
		sdb.UpdateAccount(tx.To, acct)
		// Initialize constructor-written slots.
		for s := 0; s < 4; s++ {
			var val rawdb.Hash
			p.workload.RNG().Read(val[16:])
			sdb.SetState(tx.To, ContractSlot(uint64(s)), val)
		}
		receipt.GasUsed = tx.GasLimit
	}
	return receipt, nil
}

// destructContract removes a contract account and clears its hot slots
// (full storage clearing is deferred in Geth too).
func (p *Processor) destructContract(sdb *state.StateDB, victim state.Address) error {
	acct, err := sdb.GetAccount(victim)
	if err != nil {
		return err
	}
	if acct == nil {
		return nil
	}
	cfg := p.workload.Config()
	for s := 0; s < cfg.SlotsPerContract; s++ {
		sdb.SetState(victim, ContractSlot(uint64(s)), rawdb.Hash{})
	}
	sdb.DestructAccount(victim)
	return nil
}

// readHeader reads a header through the block cache when enabled.
func (p *Processor) readHeader(number uint64, hash rawdb.Hash) ([]byte, error) {
	key := rawdb.HeaderKey(number, hash)
	if p.caches != nil {
		if v, ok := p.caches.Get(rawdb.ClassBlockHeader, key); ok {
			return v, nil
		}
	}
	v, err := p.db.Get(key)
	if err != nil {
		return nil, err
	}
	if p.caches != nil {
		p.caches.Add(rawdb.ClassBlockHeader, key, v)
	}
	return v, nil
}

// persistState writes a block's trie/code delta. In bare mode everything
// lands immediately; in cached mode trie nodes coalesce in the dirty buffer
// and flush every trieFlushInterval blocks.
func (p *Processor) persistState(commit *state.Commit) error {
	if p.dirty == nil {
		if err := writeStateCommit(p.db, commit); err != nil {
			return err
		}
		return nil
	}
	// Coalesce into the dirty buffer.
	for path, blob := range commit.AccountNodes.Writes {
		p.dirty.nodes[string(rawdb.AccountTrieNodeKey([]byte(path)))] = blob
	}
	for _, path := range commit.AccountNodes.Deletes {
		p.dirty.nodes[string(rawdb.AccountTrieNodeKey([]byte(path)))] = nil
	}
	for owner, set := range commit.StorageNodes {
		for path, blob := range set.Writes {
			p.dirty.nodes[string(rawdb.StorageTrieNodeKey(owner, []byte(path)))] = blob
		}
		for _, path := range set.Deletes {
			p.dirty.nodes[string(rawdb.StorageTrieNodeKey(owner, []byte(path)))] = nil
		}
	}
	// Code is content-addressed and immutable: write through immediately,
	// in sorted hash order for deterministic traces.
	for _, hash := range sortedCodeHashes(commit.Code) {
		if err := rawdb.WriteCode(p.db, hash, commit.Code[hash]); err != nil {
			return err
		}
	}
	if p.blocksImported%trieFlushInterval == trieFlushInterval-1 {
		return p.flushDirtyNodes()
	}
	return nil
}

// flushDirtyNodes writes the coalesced trie delta in one batch, in sorted
// key order (trie flushes land path-ordered per owner, which is what makes
// adjacent batched updates correlate — Findings 10-11), and admits the
// written nodes to the clean cache (Geth's write-path admission, which
// Finding 6 critiques).
func (p *Processor) flushDirtyNodes() error {
	if len(p.dirty.nodes) == 0 {
		return nil
	}
	keys := make([]string, 0, len(p.dirty.nodes))
	for key := range p.dirty.nodes {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	batch := p.db.NewBatch()
	for _, key := range keys {
		blob := p.dirty.nodes[key]
		if blob == nil {
			if err := batch.Delete([]byte(key)); err != nil {
				return err
			}
			if p.caches != nil {
				p.caches.Remove(rawdb.Classify([]byte(key)), []byte(key))
			}
			continue
		}
		if err := batch.Put([]byte(key), blob); err != nil {
			return err
		}
		// The clean cache may hold the pre-flush version of this node:
		// refresh it under write-admission, or drop it otherwise. Serving
		// a stale parent after the buffer clears would dangle references
		// to deleted children.
		if p.caches != nil {
			if p.backend.AdmitOnWrite {
				p.caches.Add(rawdb.Classify([]byte(key)), []byte(key), blob)
			} else {
				p.caches.Remove(rawdb.Classify([]byte(key)), []byte(key))
			}
		}
	}
	if err := batch.Write(); err != nil {
		return err
	}
	p.dirty.nodes = make(map[string][]byte)
	return nil
}

// freezeOldBlocks migrates finalized blocks into the freezer: read the KV
// copies, append to flat files, then delete from the KV store — the source
// of BlockHeader/Body/Receipts deletions (Finding 5) and of the rare
// BlockHeader scans (Finding 4, pruning iterates the h-prefix).
func (p *Processor) freezeOldBlocks(head uint64) error {
	for head-p.frozen > freezerThreshold {
		number := p.frozen
		hash, err := rawdb.ReadCanonicalHash(p.db, number)
		if errors.Is(err, kv.ErrNotFound) {
			p.frozen++
			continue
		}
		if err != nil {
			return err
		}
		header, err := rawdb.ReadHeader(p.db, number, hash)
		if err != nil && !errors.Is(err, kv.ErrNotFound) {
			return err
		}
		body, err := rawdb.ReadBody(p.db, number, hash)
		if err != nil && !errors.Is(err, kv.ErrNotFound) {
			return err
		}
		receipts, err := rawdb.ReadReceipts(p.db, number, hash)
		if err != nil && !errors.Is(err, kv.ErrNotFound) {
			return err
		}
		if err := p.freezer.Append(rawdb.FreezerHashes, number, hash[:]); err != nil {
			return err
		}
		if err := p.freezer.Append(rawdb.FreezerHeaders, number, header); err != nil {
			return err
		}
		if err := p.freezer.Append(rawdb.FreezerBodies, number, body); err != nil {
			return err
		}
		if err := p.freezer.Append(rawdb.FreezerReceipts, number, receipts); err != nil {
			return err
		}
		// Delete the migrated block from the KV store.
		batch := p.db.NewBatch()
		if err := rawdb.DeleteHeader(batch, number, hash); err != nil {
			return err
		}
		if err := rawdb.DeleteCanonicalHash(batch, number); err != nil {
			return err
		}
		if err := rawdb.DeleteBody(batch, number, hash); err != nil {
			return err
		}
		if err := rawdb.DeleteReceipts(batch, number, hash); err != nil {
			return err
		}
		if err := batch.Write(); err != nil {
			return err
		}
		// Pruning sweeps the h-prefix for stray (non-canonical) headers at
		// this height: one of the only scans in the workload.
		it := p.db.NewIterator(headerScanPrefix(number), nil)
		for it.Next() {
			// Stray forks would be deleted here; the simulator has none.
			_ = it.Key()
		}
		it.Release()
		p.frozen++
	}
	return nil
}

// headerScanPrefix is the h+num prefix the pruner iterates.
func headerScanPrefix(number uint64) []byte {
	key := rawdb.HeaderKey(number, rawdb.Hash{})
	return key[:9]
}

// pruneTxIndex unindexes transactions of blocks older than txIndexLimit:
// the body is read from the freezer (no KV read) and every lookup entry is
// deleted — why TxLookup shows 48% deletes and zero reads (Tables II/III).
func (p *Processor) pruneTxIndex(head uint64) error {
	if head <= txIndexLimit {
		return nil
	}
	target := head - txIndexLimit
	for p.txIndexTail < target {
		number := p.txIndexTail
		blob, err := p.freezer.Ancient(rawdb.FreezerBodies, number)
		if errors.Is(err, rawdb.ErrAncientNotFound) {
			// Still in the KV store: index not yet prunable.
			break
		}
		if err != nil {
			return err
		}
		if len(blob) > 0 {
			body, err := DecodeBody(blob)
			if err != nil {
				return err
			}
			batch := p.db.NewBatch()
			for _, tx := range body.Transactions {
				if err := rawdb.DeleteTxLookup(batch, tx.Hash()); err != nil {
					return err
				}
			}
			if err := batch.Write(); err != nil {
				return err
			}
		}
		p.txIndexTail++
	}
	return rawdb.WriteTxIndexTail(p.db, p.txIndexTail)
}

// maybeIndexBlooms runs the chain indexer: its progress row is read every
// block (BloomBitsIndex is 99% reads) and each completed section writes its
// bloom-bit rows (BloomBits is ~98% writes).
func (p *Processor) maybeIndexBlooms(head uint64, headHash rawdb.Hash) error {
	progressKey := rawdb.BloomBitsIndexKey([]byte("sectionCount0"))
	if _, err := p.db.Get(progressKey); err != nil && !errors.Is(err, kv.ErrNotFound) {
		return err
	}
	if head%bloomSectionSize != 0 {
		return nil
	}
	section := head / bloomSectionSize
	batch := p.db.NewBatch()
	for bit := 0; bit < bloomBitsPerSection; bit++ {
		row := make([]byte, 8+bloomSectionSize/2)
		p.workload.RNG().Read(row)
		if err := rawdb.WriteBloomBits(batch, uint16(bit), section, headHash, row); err != nil {
			return err
		}
	}
	if err := batch.Write(); err != nil {
		return err
	}
	return p.db.Put(progressKey, rlp.EncodeUint(section))
}

// Shutdown journals in-memory state the way Geth does on clean exit:
// snapshot diff layers into SnapshotJournal, the trie dirty buffer into
// TrieJournal, and final head markers.
func (p *Processor) Shutdown() error {
	if p.dirty != nil {
		if err := p.db.Put(rawdb.TrieJournalKey(), trieJournalBlob(len(p.dirty.nodes))); err != nil {
			return err
		}
		if err := p.flushDirtyNodes(); err != nil {
			return err
		}
	}
	if p.snaps != nil {
		// One account-range sample before journaling: the source of the
		// paper's two-in-2.86B SnapshotAccount scans.
		n := 0
		p.snaps.AccountScan(func(rawdb.Hash, []byte) bool {
			n++
			return n < 16
		})
		if err := p.snaps.Journal(); err != nil {
			return err
		}
	}
	// Clean-shutdown marker read+update.
	if v, err := p.db.Get(rawdb.UncleanShutdownKey()); err == nil {
		if err := p.db.Put(rawdb.UncleanShutdownKey(), v); err != nil {
			return err
		}
	}
	return rawdb.WriteHeadBlockHash(p.db, p.head.Hash())
}

// Stats summarizes the import run.
type Stats struct {
	Blocks      uint64
	Txs         uint64
	Frozen      uint64
	TxIndexTail uint64
	EOAs        int
	Contracts   int
}

// Stats returns run counters.
func (p *Processor) Stats() Stats {
	return Stats{
		Blocks:      p.blocksImported,
		Txs:         p.txProcessed,
		Frozen:      p.frozen,
		TxIndexTail: p.txIndexTail,
		EOAs:        p.workload.EOACount(),
		Contracts:   p.workload.ContractCount(),
	}
}

// EmptyRoot re-exports the empty trie root for callers.
var EmptyRoot = trie.EmptyRoot
