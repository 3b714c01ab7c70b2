package trie

import (
	"fmt"

	"ethkv/internal/keccak"
	"ethkv/internal/rlp"
)

// node is one trie node. Concrete types:
//
//   - *branchNode: 16 children indexed by nibble plus a value slot.
//   - *shortNode: a key segment leading to one child (extension) or to a
//     value (leaf, key has terminator).
//   - valueNode: raw stored bytes.
//   - refNode: an unresolved child persisted in the database, remembered by
//     hash; traversal resolves it by path.
type node interface{}

// nodeFlag carries the bookkeeping every interior node needs.
type nodeFlag struct {
	hash []byte // cached hash of the node's encoding (nil if dirty)
	enc  []byte // cached encoding (nil if dirty) — keeps commit
	// O(dirty nodes): without it, encoding a parent re-encodes every
	// clean descendant subtree recursively.
	dirty     bool // node differs from its persisted form
	persisted bool // a node at this path exists in the database
}

// branchNode is a 17-slot full node.
type branchNode struct {
	children [17]node // index 16 is the value slot
	flags    nodeFlag
}

// shortNode is an extension (child is interior) or a leaf (key has the
// terminator and child is a valueNode).
type shortNode struct {
	key   []byte // HEX encoding
	child node
	flags nodeFlag
}

// valueNode holds stored bytes at a leaf or in a branch's value slot.
type valueNode []byte

// refNode is a lazy child reference: its content lives in the database at
// the path where it is encountered.
type refNode struct {
	hash []byte // 32-byte keccak of the persisted encoding
}

// encodeNode RLP-encodes n, replacing large children by their hashes
// (standard MPT node composition rule: children under 32 bytes embed).
// Interior-node encodings are memoized on the node; mutation clears them
// via markDirty.
func encodeNode(n node) []byte {
	switch n := n.(type) {
	case *shortNode:
		if n.flags.enc != nil {
			return n.flags.enc
		}
		enc := rlp.EncodeList(
			rlp.EncodeString(hexToCompact(n.key)),
			encodeChild(n.child),
		)
		n.flags.enc = enc
		return enc
	case *branchNode:
		if n.flags.enc != nil {
			return n.flags.enc
		}
		items := make([][]byte, 17)
		for i := 0; i < 16; i++ {
			if n.children[i] == nil {
				items[i] = rlp.EncodeString(nil)
			} else {
				items[i] = encodeChild(n.children[i])
			}
		}
		if v, ok := n.children[16].(valueNode); ok {
			items[16] = rlp.EncodeString(v)
		} else {
			items[16] = rlp.EncodeString(nil)
		}
		enc := rlp.EncodeList(items...)
		n.flags.enc = enc
		return enc
	case valueNode:
		return rlp.EncodeString(n)
	default:
		panic(fmt.Sprintf("trie: cannot encode %T", n))
	}
}

// encodeChild produces the reference encoding of a child: the embedded
// encoding if it is under 32 bytes, else the RLP string of its hash.
func encodeChild(child node) []byte {
	switch c := child.(type) {
	case refNode:
		return rlp.EncodeString(c.hash)
	case valueNode:
		return rlp.EncodeString(c)
	default:
		enc := encodeNode(child)
		if len(enc) < 32 {
			return enc
		}
		return rlp.EncodeString(cachedHash(child))
	}
}

// hashNode returns the canonical 32-byte hash of a node's encoding.
func hashNode(n node) [32]byte {
	return keccak.Hash256(encodeNode(n))
}

// cachedHash returns (computing and caching if needed) the node's hash.
func cachedHash(n node) []byte {
	switch n := n.(type) {
	case *shortNode:
		if n.flags.hash == nil {
			h := hashNode(n)
			n.flags.hash = h[:]
		}
		return n.flags.hash
	case *branchNode:
		if n.flags.hash == nil {
			h := hashNode(n)
			n.flags.hash = h[:]
		}
		return n.flags.hash
	case refNode:
		return n.hash
	default:
		h := hashNode(n)
		return h[:]
	}
}

// decodeNode parses a persisted node encoding. Embedded children decode
// inline; hashed children become refNodes.
func decodeNode(blob []byte) (node, error) {
	items, err := rlp.SplitList(blob)
	if err != nil {
		return nil, fmt.Errorf("trie: undecodable node: %w", err)
	}
	switch len(items) {
	case 2:
		compact, err := rlp.DecodeString(items[0])
		if err != nil {
			return nil, fmt.Errorf("trie: short node key: %w", err)
		}
		key := compactToHex(compact)
		var child node
		if hasTerm(key) {
			v, err := rlp.DecodeString(items[1])
			if err != nil {
				return nil, fmt.Errorf("trie: leaf value: %w", err)
			}
			child = valueNode(append([]byte(nil), v...))
		} else {
			child, err = decodeChild(items[1])
			if err != nil {
				return nil, err
			}
			if child == nil {
				return nil, fmt.Errorf("trie: extension node with empty child")
			}
		}
		return &shortNode{
			key:   key,
			child: child,
			flags: nodeFlag{persisted: true},
		}, nil
	case 17:
		bn := &branchNode{flags: nodeFlag{persisted: true}}
		for i := 0; i < 16; i++ {
			child, err := decodeChild(items[i])
			if err != nil {
				return nil, err
			}
			bn.children[i] = child
		}
		v, err := rlp.DecodeString(items[16])
		if err != nil {
			return nil, fmt.Errorf("trie: branch value: %w", err)
		}
		if len(v) > 0 {
			bn.children[16] = valueNode(append([]byte(nil), v...))
		}
		return bn, nil
	default:
		return nil, fmt.Errorf("trie: invalid node arity %d", len(items))
	}
}

// decodeChild parses one child reference inside a persisted node.
func decodeChild(raw []byte) (node, error) {
	d := rlp.NewDecoder(raw)
	kind, err := d.Kind()
	if err != nil {
		return nil, err
	}
	if kind == rlp.KindList {
		// Embedded small node.
		return decodeNode(raw)
	}
	s, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	switch len(s) {
	case 0:
		return nil, nil
	case 32:
		return refNode{hash: append([]byte(nil), s...)}, nil
	default:
		return nil, fmt.Errorf("trie: child reference of %d bytes", len(s))
	}
}
