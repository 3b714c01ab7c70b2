package trie

import "fmt"

// Leaves walks every leaf of the trie in ascending (hashed-key) order,
// resolving nodes from the reader as needed, and calls fn with each leaf's
// full hex path (without terminator) and value. fn returning false stops
// the walk early. This is the traversal Geth's snapshot generator performs
// when it builds the flat layer from the trie.
func (t *Trie) Leaves(fn func(hexPath []byte, value []byte) bool) error {
	if t.root == nil {
		return nil
	}
	_, err := t.walkLeaves(t.root, nil, fn)
	return err
}

// walkLeaves recursively visits leaves under n at the given path prefix.
// It returns false when the walk should stop.
func (t *Trie) walkLeaves(n node, prefix []byte, fn func([]byte, []byte) bool) (bool, error) {
	switch n := n.(type) {
	case nil:
		return true, nil
	case valueNode:
		return fn(append([]byte(nil), prefix...), n), nil
	case *shortNode:
		childPrefix := append(append([]byte(nil), prefix...), n.key...)
		if hasTerm(n.key) {
			v, ok := n.child.(valueNode)
			if !ok {
				return false, fmt.Errorf("trie: leaf without value at %x", childPrefix)
			}
			// Strip the terminator from the reported path.
			return fn(childPrefix[:len(childPrefix)-1], v), nil
		}
		return t.walkLeaves(n.child, childPrefix, fn)
	case *branchNode:
		for i := 0; i < 16; i++ {
			if n.children[i] == nil {
				continue
			}
			cont, err := t.walkLeaves(n.children[i], append(append([]byte(nil), prefix...), byte(i)), fn)
			if err != nil || !cont {
				return cont, err
			}
		}
		if v, ok := n.children[16].(valueNode); ok {
			return fn(append([]byte(nil), prefix...), v), nil
		}
		return true, nil
	case refNode:
		resolved, err := t.resolve(n, prefix)
		if err != nil {
			return false, err
		}
		return t.walkLeaves(resolved, prefix, fn)
	default:
		return false, fmt.Errorf("trie: walk on %T", n)
	}
}
