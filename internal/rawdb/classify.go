package rawdb

import "bytes"

// Classify assigns a database key to its storage class. The decision mirrors
// the schema's prefix layout. Classification runs on every dispatched op
// (hybrid routing, class sharding, tracing), so the whole decision is one
// switch on the first byte: exact-match singleton keys only need comparing
// inside their own first-byte case — "LastBlock" can only collide with the
// 'L'-prefixed StateID space, never with 'h' headers — which leaves the hot
// prefix bytes ('A', 'O', 'a', 'o', 'h', ...) at a length check and no byte
// comparisons at all.
func Classify(key []byte) Class {
	if len(key) == 0 {
		return ClassUnknown
	}
	switch key[0] {
	case 'h':
		// h+num+hash (41), h+num+'n' (10), or the h+num scan prefix (9).
		if len(key) == 41 || (len(key) == 10 && key[9] == 'n') || len(key) == 9 {
			return ClassBlockHeader
		}
	case 'H':
		if len(key) == 33 {
			return ClassHeaderNumber
		}
	case 'b':
		if len(key) == 41 {
			return ClassBlockBody
		}
	case 'r':
		if len(key) == 41 {
			return ClassBlockReceipts
		}
	case 'l':
		if len(key) == 33 {
			return ClassTxLookup
		}
	case 'B':
		if len(key) == 43 {
			return ClassBloomBits
		}
	case 'c':
		if len(key) == 33 {
			return ClassCode
		}
	case 'A':
		// A + path; paths are at most 64 nibbles + terminator.
		if len(key) >= 1 && len(key) <= 66 {
			return ClassTrieNodeAccount
		}
	case 'O':
		if len(key) >= 33 && len(key) <= 98 {
			return ClassTrieNodeStorage
		}
	case 'a':
		// Full key (33) or the bare 'a' scan prefix over all accounts.
		if len(key) == 33 || len(key) == 1 {
			return ClassSnapshotAccount
		}
	case 'o':
		// Full key (65) or the o+accountHash scan prefix (33).
		if len(key) == 65 || len(key) == 33 {
			return ClassSnapshotStorage
		}
	case 'S':
		// Singletons before the skeleton-header prefix space.
		switch {
		case bytes.Equal(key, snapshotJournalKey):
			return ClassSnapshotJournal
		case bytes.Equal(key, snapshotGeneratorKey):
			return ClassSnapshotGenerator
		case bytes.Equal(key, snapshotRootKey):
			return ClassSnapshotRoot
		case bytes.Equal(key, skeletonSyncStatusKey):
			return ClassSkeletonSyncStatus
		case bytes.Equal(key, snapshotRecoveryKey):
			return ClassSnapshotRecovery
		}
		if len(key) == 9 {
			return ClassSkeletonHeader
		}
	case 'L':
		// Singletons before the state-id prefix space.
		switch {
		case bytes.Equal(key, lastStateIDKey):
			return ClassLastStateID
		case bytes.Equal(key, lastBlockKey):
			return ClassLastBlock
		case bytes.Equal(key, lastHeaderKey):
			return ClassLastHeader
		case bytes.Equal(key, lastFastKey):
			return ClassLastFast
		}
		if len(key) == 33 {
			return ClassStateID
		}
	case 'T':
		switch {
		case bytes.Equal(key, trieJournalKey):
			return ClassTrieJournal
		case bytes.Equal(key, transactionIndexTailKey):
			return ClassTransactionIndexTail
		}
	case 'D':
		if bytes.Equal(key, databaseVersionKey) {
			return ClassDatabaseVersion
		}
	case 'u':
		if bytes.Equal(key, uncleanShutdownKey) {
			return ClassUncleanShutdown
		}
	case 'e':
		switch {
		case bytes.HasPrefix(key, genesisPrefix):
			return ClassEthereumGenesis
		case bytes.HasPrefix(key, configPrefix):
			return ClassEthereumConfig
		}
	case 'i':
		if bytes.HasPrefix(key, bloomBitsIndexPrefix) {
			return ClassBloomBitsIndex
		}
	}
	return ClassUnknown
}

// IsWorldState reports whether the class holds world-state data (the four
// classes Findings 3, 6 and 7 track).
func (c Class) IsWorldState() bool {
	switch c {
	case ClassTrieNodeAccount, ClassTrieNodeStorage,
		ClassSnapshotAccount, ClassSnapshotStorage:
		return true
	}
	return false
}
