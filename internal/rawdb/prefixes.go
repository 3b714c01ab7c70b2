package rawdb

import "bytes"

// classKeyPrefixes maps each class to the byte prefix all of its keys share.
// For prefix-schema classes this is the schema prefix; for singleton classes
// it is the exact key (a key is trivially a prefix of itself).
var classKeyPrefixes = map[Class][]byte{
	ClassTrieNodeStorage:      trieNodeStoragePrefix,
	ClassSnapshotStorage:      snapshotStoragePrefix,
	ClassTxLookup:             txLookupPrefix,
	ClassTrieNodeAccount:      trieNodeAccountPrefix,
	ClassSnapshotAccount:      snapshotAccountPrefix,
	ClassHeaderNumber:         headerNumberPrefix,
	ClassBloomBits:            bloomBitsPrefix,
	ClassCode:                 codePrefix,
	ClassSkeletonHeader:       skeletonHeaderPrefix,
	ClassBlockHeader:          headerPrefix,
	ClassBlockReceipts:        blockReceiptsPrefix,
	ClassBlockBody:            blockBodyPrefix,
	ClassStateID:              stateIDPrefix,
	ClassBloomBitsIndex:       bloomBitsIndexPrefix,
	ClassEthereumGenesis:      genesisPrefix,
	ClassSnapshotJournal:      snapshotJournalKey,
	ClassEthereumConfig:       configPrefix,
	ClassLastStateID:          lastStateIDKey,
	ClassUncleanShutdown:      uncleanShutdownKey,
	ClassSnapshotGenerator:    snapshotGeneratorKey,
	ClassTrieJournal:          trieJournalKey,
	ClassDatabaseVersion:      databaseVersionKey,
	ClassLastBlock:            lastBlockKey,
	ClassSnapshotRoot:         snapshotRootKey,
	ClassSkeletonSyncStatus:   skeletonSyncStatusKey,
	ClassLastHeader:           lastHeaderKey,
	ClassSnapshotRecovery:     snapshotRecoveryKey,
	ClassTransactionIndexTail: transactionIndexTailKey,
	ClassLastFast:             lastFastKey,
}

// MatchesScanPrefix reports whether a key of this class could start with
// scan prefix p — i.e. whether an iterator over p may need to visit this
// class. True iff one of p and the class prefix is a byte-prefix of the
// other; ClassUnknown always matches, since unknown keys can look like
// anything. The test is deliberately conservative: over-inclusion only
// widens a scan, never corrupts it.
func (c Class) MatchesScanPrefix(p []byte) bool {
	kp, ok := classKeyPrefixes[c]
	if !ok {
		return true // ClassUnknown (or an invalid class): assume it matches
	}
	if len(p) <= len(kp) {
		return bytes.HasPrefix(kp, p)
	}
	return bytes.HasPrefix(p, kp)
}

// ParseClass resolves a paper-table class name (as produced by
// Class.String) back to its Class. The second result is false for names
// that do not match any real class; "Unknown" is not parseable.
func ParseClass(name string) (Class, bool) {
	for c := ClassTrieNodeStorage; c <= ClassLastFast; c++ {
		if classNames[c] == name {
			return c, true
		}
	}
	return ClassUnknown, false
}
