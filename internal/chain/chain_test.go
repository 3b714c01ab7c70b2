package chain

import (
	"bytes"
	"math/big"
	"testing"

	"ethkv/internal/kv"
	"ethkv/internal/rawdb"
	"ethkv/internal/state"
	"ethkv/internal/trace"
)

// smallWorkload shrinks the population so tests run fast.
func smallWorkload() WorkloadConfig {
	cfg := DefaultWorkload()
	cfg.Accounts = 500
	cfg.Contracts = 50
	cfg.SlotsPerContract = 10
	cfg.TxPerBlock = 20
	return cfg
}

// buildPipeline creates a traced processor over a fresh genesis.
func buildPipeline(t *testing.T, cached bool) (*Processor, *trace.SliceSink) {
	t.Helper()
	cfg := smallWorkload()
	inner := kv.NewMemStore()
	t.Cleanup(func() { inner.Close() })

	genesis, err := (&Genesis{Config: cfg}).Commit(inner)
	if err != nil {
		t.Fatal(err)
	}
	sink := &trace.SliceSink{}
	traced := trace.WrapStore(inner, sink)
	freezer, err := rawdb.OpenFreezer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { freezer.Close() })

	proc, err := NewProcessor(traced, freezer, genesis, NewWorkload(cfg), DefaultProcessorConfig(cached))
	if err != nil {
		t.Fatal(err)
	}
	return proc, sink
}

func TestHeaderRLPRoundTrip(t *testing.T) {
	h := &Header{
		ParentHash: rawdb.Hash{1},
		Number:     20500000,
		GasLimit:   30_000_000,
		GasUsed:    12_345_678,
		Time:       1723248000,
		Extra:      []byte("test"),
		BaseFee:    big.NewInt(7_000_000_000),
	}
	dec, err := DecodeHeader(h.EncodeRLP())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Number != h.Number || dec.ParentHash != h.ParentHash ||
		dec.GasUsed != h.GasUsed || dec.BaseFee.Cmp(h.BaseFee) != 0 ||
		string(dec.Extra) != "test" {
		t.Fatalf("round-trip mismatch: %+v", dec)
	}
	if h.Hash() != dec.Hash() {
		t.Fatal("hash not stable across round-trip")
	}
}

func TestBodyRLPRoundTrip(t *testing.T) {
	w := NewWorkload(smallWorkload())
	body := &Body{Transactions: w.GenerateBlockTxs()}
	dec, err := DecodeBody(body.EncodeRLP())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Transactions) != len(body.Transactions) {
		t.Fatalf("tx count %d != %d", len(dec.Transactions), len(body.Transactions))
	}
	for i, tx := range body.Transactions {
		got := dec.Transactions[i]
		if got.Hash() != tx.Hash() {
			t.Fatalf("tx %d hash mismatch", i)
		}
		if got.Kind != tx.Kind || got.Nonce != tx.Nonce || got.From != tx.From {
			t.Fatalf("tx %d fields mismatch", i)
		}
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	cfg := smallWorkload()
	a := NewWorkload(cfg)
	b := NewWorkload(cfg)
	for round := 0; round < 3; round++ {
		txa := a.GenerateBlockTxs()
		txb := b.GenerateBlockTxs()
		if len(txa) != len(txb) {
			t.Fatal("tx count diverged")
		}
		for i := range txa {
			if txa[i].Hash() != txb[i].Hash() {
				t.Fatalf("round %d tx %d diverged", round, i)
			}
		}
	}
}

func TestWorkloadMixRatios(t *testing.T) {
	cfg := smallWorkload()
	cfg.TxPerBlock = 10000
	w := NewWorkload(cfg)
	txs := w.GenerateBlockTxs()
	var transfers, calls, deploys int
	for _, tx := range txs {
		switch tx.Kind {
		case TxTransfer:
			transfers++
		case TxContractCall:
			calls++
		case TxDeploy:
			deploys++
		}
	}
	frac := func(n int) float64 { return float64(n) / float64(len(txs)) }
	if f := frac(calls); f < 0.35 || f > 0.50 {
		t.Errorf("call fraction %.3f outside [0.35, 0.50]", f)
	}
	if f := frac(deploys); f < 0.003 || f > 0.03 {
		t.Errorf("deploy fraction %.3f outside [0.003, 0.03]", f)
	}
	if transfers == 0 {
		t.Error("no transfers")
	}
}

func TestWorkloadZipfSkew(t *testing.T) {
	cfg := smallWorkload()
	w := NewWorkload(cfg)
	counts := map[Address]int{}
	for i := 0; i < 20000; i++ {
		counts[w.pickEOA()]++
	}
	// The most popular account must dominate: Zipf heads are hot.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/20000 < 0.05 {
		t.Errorf("head account only %.3f of picks; Zipf skew too weak", float64(max)/20000)
	}
	if len(counts) < 20 {
		t.Errorf("only %d distinct accounts picked", len(counts))
	}
}

type Address = [20]byte

func TestImportBlocksBare(t *testing.T) {
	proc, sink := buildPipeline(t, false)
	if err := proc.ImportBlocks(20); err != nil {
		t.Fatal(err)
	}
	st := proc.Stats()
	if st.Blocks != 20 || st.Txs != 20*20 {
		t.Fatalf("stats: %+v", st)
	}
	if len(sink.Ops) == 0 {
		t.Fatal("no ops traced")
	}
	// Bare mode must not use snapshot or caches.
	if proc.snaps != nil || proc.Caches() != nil {
		t.Fatal("bare mode has acceleration structures")
	}
	// The trace must contain reads of account trie nodes (MPT traversals).
	var trieReads, snapReads int
	for _, op := range sink.Ops {
		if op.Type == trace.OpRead {
			switch op.Class {
			case rawdb.ClassTrieNodeAccount, rawdb.ClassTrieNodeStorage:
				trieReads++
			case rawdb.ClassSnapshotAccount, rawdb.ClassSnapshotStorage:
				snapReads++
			}
		}
	}
	if trieReads == 0 {
		t.Fatal("bare mode produced no trie node reads")
	}
	if snapReads != 0 {
		t.Fatalf("bare mode produced %d snapshot reads", snapReads)
	}
}

func TestImportBlocksCached(t *testing.T) {
	proc, sink := buildPipeline(t, true)
	// 40 blocks overflow the snapshotLayers (32) diff layers.
	if err := proc.ImportBlocks(40); err != nil {
		t.Fatal(err)
	}
	imported := len(sink.Ops)
	if err := proc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Snapshot reads must appear; trie node reads should be much rarer
	// than in bare mode.
	counts := map[rawdb.Class]map[trace.OpType]int{}
	for i, op := range sink.Ops {
		if i == imported {
			break // the journal pass below counts the shutdown's ops
		}
		if counts[op.Class] == nil {
			counts[op.Class] = map[trace.OpType]int{}
		}
		counts[op.Class][op.Type]++
	}
	snapOps := counts[rawdb.ClassSnapshotAccount][trace.OpRead] +
		counts[rawdb.ClassSnapshotStorage][trace.OpRead]
	if snapOps == 0 {
		t.Fatal("cached mode produced no snapshot reads")
	}
	// Snapshot flattening writes must appear as the diff layers age out.
	snapWrites := counts[rawdb.ClassSnapshotAccount][trace.OpWrite] +
		counts[rawdb.ClassSnapshotAccount][trace.OpUpdate] +
		counts[rawdb.ClassSnapshotStorage][trace.OpWrite] +
		counts[rawdb.ClassSnapshotStorage][trace.OpUpdate]
	if snapWrites == 0 {
		t.Fatal("cached mode never flattened snapshot layers")
	}
	// TrieJournal must have been written at shutdown.
	journaled := false
	for _, op := range sink.Ops[imported:] {
		journaled = journaled || op.Class == rawdb.ClassTrieJournal
	}
	if !journaled {
		t.Fatal("shutdown did not journal the trie buffer")
	}
}

// TestBareVsCachedReadReduction is Finding 7 in miniature: cached mode must
// issue far fewer world-state reads than bare mode on the same workload.
func TestBareVsCachedReadReduction(t *testing.T) {
	count := func(cached bool) (worldReads int) {
		proc, sink := buildPipeline(t, cached)
		if err := proc.ImportBlocks(30); err != nil {
			t.Fatal(err)
		}
		for _, op := range sink.Ops {
			if op.Type == trace.OpRead && op.Class.IsWorldState() {
				worldReads++
			}
		}
		return worldReads
	}
	bare := count(false)
	cached := count(true)
	if cached >= bare {
		t.Fatalf("cached world-state reads (%d) not below bare (%d)", cached, bare)
	}
	reduction := 1 - float64(cached)/float64(bare)
	t.Logf("world-state read reduction: %.1f%% (bare %d -> cached %d)", reduction*100, bare, cached)
	if reduction < 0.3 {
		t.Errorf("read reduction %.2f below 30%%; snapshot acceleration ineffective", reduction)
	}
}

func TestFreezerMigration(t *testing.T) {
	proc, sink := buildPipeline(t, false)
	if err := proc.ImportBlocks(30); err != nil {
		t.Fatal(err)
	}
	// The freezer starts at genesis and keeps the last freezerThreshold
	// (16) blocks in the KV store.
	st := proc.Stats()
	if st.Frozen <= GenesisNumber {
		t.Fatalf("no blocks migrated to the freezer (frozen up to %d)", st.Frozen)
	}
	// Deletions of headers/bodies/receipts must appear in the trace.
	var headerDeletes, bodyDeletes, scans int
	for _, op := range sink.Ops {
		if op.Class == rawdb.ClassBlockHeader {
			if op.Type == trace.OpDelete {
				headerDeletes++
			}
			if op.Type == trace.OpScan {
				scans++
			}
		}
		if op.Class == rawdb.ClassBlockBody && op.Type == trace.OpDelete {
			bodyDeletes++
		}
	}
	if headerDeletes == 0 || bodyDeletes == 0 {
		t.Fatalf("freezer migration produced no deletes (h=%d b=%d)", headerDeletes, bodyDeletes)
	}
	if scans == 0 {
		t.Fatal("pruning produced no BlockHeader scans")
	}
}

func TestTxLookupLifecycle(t *testing.T) {
	proc, sink := buildPipeline(t, false)
	// 40 blocks run past txIndexLimit (24), so the oldest are unindexed.
	if err := proc.ImportBlocks(40); err != nil {
		t.Fatal(err)
	}
	if tail := proc.Stats().TxIndexTail; tail <= GenesisNumber {
		t.Fatalf("tx index never pruned (tail %d)", tail)
	}
	var writes, deletes, reads int
	for _, op := range sink.Ops {
		if op.Class != rawdb.ClassTxLookup {
			continue
		}
		switch op.Type {
		case trace.OpWrite:
			writes++
		case trace.OpDelete:
			deletes++
		case trace.OpRead:
			reads++
		}
	}
	if writes == 0 || deletes == 0 {
		t.Fatalf("TxLookup lifecycle broken: %d writes, %d deletes", writes, deletes)
	}
	if reads != 0 {
		t.Fatalf("TxLookup had %d reads; the paper's traces show zero", reads)
	}
	// With pruning active, deletes approach writes (48% vs 52% in Table II).
	ratio := float64(deletes) / float64(writes)
	if ratio < 0.3 {
		t.Errorf("delete/write ratio %.2f too low for index pruning", ratio)
	}
}

func TestStateIDChurn(t *testing.T) {
	proc, sink := buildPipeline(t, false)
	// 40 blocks run past stateHistory (32), so the oldest ids are deleted.
	if err := proc.ImportBlocks(40); err != nil {
		t.Fatal(err)
	}
	var writes, deletes int
	for _, op := range sink.Ops {
		if op.Class != rawdb.ClassStateID {
			continue
		}
		if op.Type == trace.OpWrite || op.Type == trace.OpUpdate {
			writes++
		}
		if op.Type == trace.OpDelete {
			deletes++
		}
	}
	if writes == 0 || deletes == 0 {
		t.Fatalf("StateID churn broken: %d writes, %d deletes", writes, deletes)
	}
}

func TestChainContinuity(t *testing.T) {
	proc, _ := buildPipeline(t, false)
	if err := proc.ImportBlocks(5); err != nil {
		t.Fatal(err)
	}
	// Each imported head must link to its parent.
	head := proc.head
	if head.Number() != GenesisNumber+5 {
		t.Fatalf("head at %d", head.Number())
	}
	if head.Header.ParentHash == (rawdb.Hash{}) {
		t.Fatal("head has empty parent hash")
	}
}

// importOps runs an n-block import over a traced store and returns the full
// op stream plus the head hash.
func importOps(t *testing.T, cached bool, n int) ([]trace.Op, [32]byte) {
	t.Helper()
	proc, sink := buildPipeline(t, cached)
	if err := proc.ImportBlocks(n); err != nil {
		t.Fatal(err)
	}
	if err := proc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	return sink.Ops, proc.head.Hash()
}

// TestImportResume: import is resumable — a second ImportBlocks call over
// the same processor continues the chain exactly where one run of the
// combined length would be, op for op. 66 blocks crosses freezer, tx-index,
// state-history, bloom-section, snapshot-layer and trie-flush boundaries.
func TestImportResume(t *testing.T) {
	wantOps, wantHead := importOps(t, true, 66)

	proc, sink := buildPipeline(t, true)
	if err := proc.ImportBlocks(18); err != nil {
		t.Fatal(err)
	}
	if err := proc.ImportBlocks(48); err != nil {
		t.Fatal(err)
	}
	if err := proc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if proc.head.Hash() != wantHead {
		t.Fatalf("resumed head %x != one-run head %x", proc.head.Hash(), wantHead)
	}
	if len(sink.Ops) != len(wantOps) {
		t.Fatalf("resumed import %d ops != one-run %d", len(sink.Ops), len(wantOps))
	}
	for i, want := range wantOps {
		got := sink.Ops[i]
		if got.Type != want.Type || got.Class != want.Class || !bytes.Equal(got.Key, want.Key) ||
			got.ValueSize != want.ValueSize || got.Hit != want.Hit {
			t.Fatalf("op %d diverged after resume:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
}

// trieNodeWrites counts the trie-node writes in ops. In cached mode only a
// flush of the dirty buffer writes trie nodes.
func trieNodeWrites(ops []trace.Op) (n int) {
	for _, op := range ops {
		if (op.Type == trace.OpWrite || op.Type == trace.OpUpdate) &&
			(op.Class == rawdb.ClassTrieNodeAccount || op.Class == rawdb.ClassTrieNodeStorage) {
			n++
		}
	}
	return n
}

func TestMetaSingletonsUpdateEveryBlock(t *testing.T) {
	proc, sink := buildPipeline(t, false)
	if err := proc.ImportBlocks(10); err != nil {
		t.Fatal(err)
	}
	counts := map[rawdb.Class]int{}
	for _, op := range sink.Ops {
		if op.Type == trace.OpUpdate || op.Type == trace.OpWrite {
			counts[op.Class]++
		}
	}
	for _, class := range []rawdb.Class{
		rawdb.ClassLastBlock, rawdb.ClassLastHeader, rawdb.ClassLastFast,
		rawdb.ClassLastStateID, rawdb.ClassSkeletonSyncStatus,
	} {
		if counts[class] < 10 {
			t.Errorf("%v updated %d times over 10 blocks", class, counts[class])
		}
	}
}

func TestWorkloadDestruct(t *testing.T) {
	cfg := smallWorkload()
	cfg.DestructChance = 1.0 // force
	w := NewWorkload(cfg)
	before := w.ContractCount()
	victim, ok := w.MaybeDestruct()
	if !ok {
		t.Fatal("forced destruct did not fire")
	}
	if w.ContractCount() != before-1 {
		t.Fatalf("population %d, want %d", w.ContractCount(), before-1)
	}
	if victim == (Address{}) {
		t.Fatal("zero victim")
	}
	// Zero chance never destructs.
	cfg.DestructChance = 0
	w2 := NewWorkload(cfg)
	if _, ok := w2.MaybeDestruct(); ok {
		t.Fatal("zero-chance destruct fired")
	}
}

func TestContractSlotDerivation(t *testing.T) {
	if ContractSlot(0) == ContractSlot(1) {
		t.Fatal("slot collision")
	}
	s := ContractSlot(0x1234)
	if s[30] != 0x12 || s[31] != 0x34 {
		t.Fatalf("slot layout: %x", s[24:])
	}
}

func TestSlotIndexLocality(t *testing.T) {
	w := NewWorkload(smallWorkload())
	hot := 0
	for i := 0; i < 10000; i++ {
		if w.SlotIndexFor() < 4 {
			hot++
		}
	}
	// At least half the accesses land on the hot fixed slots.
	if float64(hot)/10000 < 0.45 {
		t.Fatalf("hot-slot share %.2f too low", float64(hot)/10000)
	}
}

func TestReceiptEncoding(t *testing.T) {
	r := &Receipt{
		Status:  1,
		GasUsed: 21000,
		Logs: []Log{{
			Address: Address{0xcc},
			Topics:  []rawdb.Hash{{0xdd}, {0xee}},
			Data:    make([]byte, 64),
		}},
	}
	enc := r.EncodeRLP()
	if len(enc) < 100 {
		t.Fatalf("receipt encoding suspiciously small: %d bytes", len(enc))
	}
	// A block's receipt list encodes deterministically.
	list1 := EncodeReceipts([]*Receipt{r, r})
	list2 := EncodeReceipts([]*Receipt{r, r})
	if string(list1) != string(list2) {
		t.Fatal("receipt list not deterministic")
	}
}

// TestFailedTxRevertsState: a reverted call leaves nothing behind. A sender
// whose only transaction in a block was a reverted call ends the block with
// the nonce and balance it began it with, and the imported blocks hold at
// least one such revert.
func TestFailedTxRevertsState(t *testing.T) {
	proc, sink := buildPipeline(t, false)
	type account struct {
		nonce   uint64
		balance string
	}
	read := func(addrs []state.Address) map[state.Address]account {
		t.Helper()
		sdb, err := state.New(proc.backend)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[state.Address]account, len(addrs))
		for _, a := range addrs {
			acct, err := sdb.GetAccount(a)
			if err != nil {
				t.Fatal(err)
			}
			if acct != nil {
				out[a] = account{acct.Nonce, acct.Balance.String()}
			}
		}
		return out
	}
	reverted := 0
	for block := 0; block < 30; block++ {
		before := read(proc.workload.eoas)
		if err := proc.ImportBlocks(1); err != nil {
			t.Fatal(err)
		}
		head := proc.head
		txs := head.Body.Transactions
		touched := make(map[state.Address]int)
		for _, tx := range txs {
			touched[tx.From]++
			touched[tx.To]++
		}
		var senders []state.Address
		for i, tx := range txs {
			// A revert charges the whole gas limit; a call to a missing
			// contract fails without reverting and charges half.
			r := head.Receipts[i]
			if tx.Kind == TxContractCall && r.Status == 0 && r.GasUsed == tx.GasLimit && touched[tx.From] == 1 {
				senders = append(senders, tx.From)
			}
		}
		after := read(senders)
		for _, a := range senders {
			if after[a] != before[a] {
				t.Fatalf("block %d: sender %x of a reverted call went from %+v to %+v",
					head.Number(), a, before[a], after[a])
			}
			reverted++
		}
	}
	if reverted == 0 {
		t.Fatal("30 blocks held no reverted call from a sender with no other transaction")
	}
	if len(sink.Ops) == 0 {
		t.Fatal("no ops traced")
	}
}

func TestShutdownIdempotentAndJournals(t *testing.T) {
	proc, sink := buildPipeline(t, true)
	if err := proc.ImportBlocks(5); err != nil {
		t.Fatal(err)
	}
	if err := proc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Second shutdown must not fail (idempotent bookkeeping).
	if err := proc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// SnapshotJournal written; account scan traced.
	var journal, acctScans int
	for _, op := range sink.Ops {
		if op.Class == rawdb.ClassSnapshotJournal {
			journal++
		}
		if op.Class == rawdb.ClassSnapshotAccount && op.Type == trace.OpScan {
			acctScans++
		}
	}
	if journal == 0 {
		t.Fatal("no SnapshotJournal ops at shutdown")
	}
	if acctScans == 0 {
		t.Fatal("no SnapshotAccount scan at shutdown")
	}
}

func TestBareShutdownNoSnapshotOps(t *testing.T) {
	proc, sink := buildPipeline(t, false)
	if err := proc.ImportBlocks(3); err != nil {
		t.Fatal(err)
	}
	if err := proc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for _, op := range sink.Ops {
		if op.Class == rawdb.ClassSnapshotJournal || op.Class == rawdb.ClassTrieJournal {
			t.Fatalf("bare shutdown journaled: %+v", op)
		}
	}
}

func TestBloomIndexerEmitsSections(t *testing.T) {
	proc, sink := buildPipeline(t, false)
	// Sections are bloomSectionSize (32) blocks; 35 blocks = 1 section.
	if err := proc.ImportBlocks(35); err != nil {
		t.Fatal(err)
	}
	var bloomWrites, indexReads int
	for _, op := range sink.Ops {
		if op.Class == rawdb.ClassBloomBits && op.Type == trace.OpWrite {
			bloomWrites++
		}
		if op.Class == rawdb.ClassBloomBitsIndex && op.Type == trace.OpRead {
			indexReads++
		}
	}
	if bloomWrites != bloomBitsPerSection {
		t.Fatalf("BloomBits writes = %d, want one section's %d rows", bloomWrites, bloomBitsPerSection)
	}
	if indexReads < 35 {
		t.Fatalf("indexer progress reads = %d, want >= blocks", indexReads)
	}
	// Index is read-dominated (Table II: 98.9% reads).
	if bloomWrites >= indexReads {
		t.Fatalf("BloomBits writes (%d) exceed index reads (%d)", bloomWrites, indexReads)
	}
}

// TestSnapshotTrieConsistency is the §V storage-consistency invariant: at
// any flush point, the flat snapshot must equal the state derivable from
// the tries. We run the cached pipeline, force full flushes, regenerate a
// snapshot from the tries, and compare entry-for-entry.
func TestSnapshotTrieConsistency(t *testing.T) {
	cfg := smallWorkload()
	inner := kv.NewMemStore()
	t.Cleanup(func() { inner.Close() })
	genesis, err := (&Genesis{Config: cfg, SeedSnapshot: true}).Commit(inner)
	if err != nil {
		t.Fatal(err)
	}
	freezer, err := rawdb.OpenFreezer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { freezer.Close() })
	sink := &trace.SliceSink{}
	proc, err := NewProcessor(trace.WrapStore(inner, sink), freezer, genesis, NewWorkload(cfg), DefaultProcessorConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	// 70 blocks run past one trieFlushInterval (64), so the comparison
	// covers state that reached the store through a periodic flush.
	if err := proc.ImportBlocks(70); err != nil {
		t.Fatal(err)
	}
	if trieNodeWrites(sink.Ops) == 0 {
		t.Fatal("no periodic trie flush in 70 blocks")
	}
	// Flush everything: trie dirty buffer and snapshot diff layers.
	if err := proc.flushDirtyNodes(); err != nil {
		t.Fatal(err)
	}
	if err := proc.snaps.FlattenAll(); err != nil {
		t.Fatal(err)
	}

	// Regenerate a snapshot from the tries into a fresh store.
	regen := kv.NewMemStore()
	t.Cleanup(func() { regen.Close() })
	accounts, slots, err := state.GenerateSnapshot(&state.Backend{DB: inner}, regen)
	if err != nil {
		t.Fatal(err)
	}
	if accounts == 0 || slots == 0 {
		t.Fatalf("regeneration produced %d accounts, %d slots", accounts, slots)
	}

	// Every regenerated entry must match the live snapshot, and vice versa.
	compare := func(src, dst kv.Store, direction string) {
		for _, prefix := range [][]byte{[]byte("a"), []byte("o")} {
			it := src.NewIterator(prefix, nil)
			defer it.Release()
			for it.Next() {
				if rawdb.Classify(it.Key()) == rawdb.ClassUnknown {
					continue // skip non-snapshot 'a'/'o' collisions (none expected)
				}
				got, err := dst.Get(it.Key())
				if err != nil {
					t.Fatalf("%s: key %x missing: %v", direction, it.Key()[:8], err)
				}
				if string(got) != string(it.Value()) {
					t.Fatalf("%s: key %x differs", direction, it.Key()[:8])
				}
			}
		}
	}
	compare(regen, inner, "regen->live")
	compare(inner, regen, "live->regen")
}

func TestDecodeErrors(t *testing.T) {
	// Malformed headers and bodies must error, not panic.
	for _, blob := range [][]byte{nil, {0xc0}, {0x80}, {0xc2, 0x80, 0x80}} {
		if _, err := DecodeHeader(blob); err == nil {
			t.Errorf("DecodeHeader(%x) accepted garbage", blob)
		}
		if _, err := DecodeBody(blob); err == nil && blob != nil && len(blob) > 0 && blob[0] == 0xc0 {
			// An empty outer list is also malformed (body wraps one list).
			t.Errorf("DecodeBody(%x) accepted garbage", blob)
		}
	}
	if err := errMalformed("thing", nil); err == nil || err.Error() != "chain: malformed thing" {
		t.Errorf("errMalformed: %v", err)
	}
}

// TestHeaderCacheHitPath: repeated parent-header reads in cached mode must
// be served by the block-header cache after the first miss.
func TestHeaderCacheHitPath(t *testing.T) {
	proc, sink := buildPipeline(t, true)
	if err := proc.ImportBlocks(10); err != nil {
		t.Fatal(err)
	}
	// Each block reads its parent header once. With the cache, only the
	// store-missing (uncached) reads appear in the trace; the count must
	// be well below one per block... parents differ per block, so each is
	// a first-touch miss. Instead verify a direct double read hits.
	head := proc.head
	first := len(sink.Ops)
	if _, err := proc.readHeader(head.Number(), head.Hash()); err != nil {
		t.Fatal(err)
	}
	afterMiss := len(sink.Ops)
	if _, err := proc.readHeader(head.Number(), head.Hash()); err != nil {
		t.Fatal(err)
	}
	afterHit := len(sink.Ops)
	if afterMiss == first {
		t.Fatal("first read should reach the store")
	}
	if afterHit != afterMiss {
		t.Fatal("second read bypassed the cache")
	}
}

func TestWorkloadPopulationGrowth(t *testing.T) {
	cfg := smallWorkload()
	cfg.FreshRecipientRatio = 0.5
	w := NewWorkload(cfg)
	before := w.EOACount()
	for i := 0; i < 20; i++ {
		w.GenerateBlockTxs()
	}
	grown := w.EOACount() - before
	if grown == 0 {
		t.Fatal("population never grew")
	}
	// Roughly transfers * ratio new accounts (tx mix ~57% transfers).
	txs := 20 * cfg.TxPerBlock
	if float64(grown) < float64(txs)*0.1 {
		t.Fatalf("grew only %d accounts over %d txs", grown, txs)
	}
	// Zero ratio: population is static.
	cfg.FreshRecipientRatio = 0
	w2 := NewWorkload(cfg)
	base := w2.EOACount()
	for i := 0; i < 10; i++ {
		w2.GenerateBlockTxs()
	}
	if w2.EOACount() != base {
		t.Fatal("population grew with zero ratio")
	}
}

// TestAdmitOnWriteRefreshesCleanCache: with write-admission on, flushed
// trie nodes must be resident in the clean cache (no store read on next
// resolve); with it off, the flush must invalidate instead of refresh.
func TestAdmitOnWriteRefreshesCleanCache(t *testing.T) {
	run := func(admit bool) (storeReads int) {
		cfg := smallWorkload()
		inner := kv.NewMemStore()
		defer inner.Close()
		genesis, err := (&Genesis{Config: cfg, SeedSnapshot: true}).Commit(inner)
		if err != nil {
			t.Fatal(err)
		}
		sink := &trace.SliceSink{}
		traced := trace.WrapStore(inner, sink)
		freezer, err := rawdb.OpenFreezer(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer freezer.Close()
		pcfg := DefaultProcessorConfig(true)
		pcfg.AdmitOnWrite = admit
		proc, err := NewProcessor(traced, freezer, genesis, NewWorkload(cfg), pcfg)
		if err != nil {
			t.Fatal(err)
		}
		// 140 blocks hold two trie flushes (every trieFlushInterval = 64
		// blocks), so reads after each one resolve freshly flushed nodes.
		if err := proc.ImportBlocks(140); err != nil {
			t.Fatal(err)
		}
		if trieNodeWrites(sink.Ops) == 0 {
			t.Fatal("no trie flush in 140 blocks")
		}
		for _, op := range sink.Ops {
			if op.Type == trace.OpRead &&
				(op.Class == rawdb.ClassTrieNodeAccount || op.Class == rawdb.ClassTrieNodeStorage) {
				storeReads++
			}
		}
		return storeReads
	}
	withAdmit := run(true)
	withoutAdmit := run(false)
	// Write admission keeps freshly flushed nodes hot, so the store sees
	// fewer trie reads. (This is the knob Finding 6 debates; here we only
	// assert the mechanism works, not which policy wins.)
	if withAdmit >= withoutAdmit {
		t.Fatalf("admit-on-write did not reduce store reads: %d vs %d", withAdmit, withoutAdmit)
	}
}
