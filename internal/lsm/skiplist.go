package lsm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// maxHeight bounds skiplist tower height; 2^12 entries per memtable is
// typical at our flush sizes, so 12 levels keeps searches O(log n).
const maxHeight = 12

// slabNodes is how many nodes one slab chunk holds (40 KiB of nodes).
const slabNodes = 256

// skipNode is one skiplist entry. A nil value paired with tombstone=true
// records a deletion marker. head and the tower come first, so a search step
// — load the successor, compare its head — touches one cache line of it and
// reaches the key only when the heads tie.
type skipNode struct {
	head      uint64 // keyHead(key)
	next      [maxHeight]*skipNode
	key       []byte
	value     []byte
	tombstone bool
}

// keyHead is key's first 8 bytes as a big-endian integer, zero-padded. It is
// monotone in key order: if two keys' heads differ, the first byte where
// their padded heads differ is either a byte both keys have — so the keys
// differ there the same way — or a pad byte of the shorter key, which is then
// a proper prefix of the longer one and sorts first. Equal heads decide
// nothing ("a" and "a\x00" share one), so they fall through to bytes.Compare.
func keyHead(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// skiplist is a sorted map from keys to (value, tombstone) pairs.
// It is not safe for concurrent use; the memtable wraps it with a lock.
//
// Nodes come from fixed-size chunks the list allocates and owns: a chunk is
// garbage when its list is, and nothing is pooled or reused.
type skiplist struct {
	root   skipNode // sentinel before the first entry; only its tower is used
	height int
	length int
	bytes  int // approximate memory footprint of keys+values
	rng    *rand.Rand
	slab   []skipNode // the current chunk's unused nodes
}

// newSkiplist returns an empty skiplist with a deterministic height source
// seeded per-list (determinism matters for reproducible traces).
func newSkiplist(seed int64) *skiplist {
	return &skiplist{
		height: 1,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// newNode takes the next node from the current chunk, starting a chunk when
// it is used up.
func (s *skiplist) newNode() *skipNode {
	if len(s.slab) == 0 {
		s.slab = make([]skipNode, slabNodes)
	}
	n := &s.slab[0]
	s.slab = s.slab[1:]
	return n
}

// randomHeight draws a tower height with P(h >= k) = 4^-(k-1), the
// LevelDB-style branching factor of 4.
func (s *skiplist) randomHeight() int {
	h := 1
	for h < maxHeight && s.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual locates the first node with key >= target (whose head
// is head), filling prev with the rightmost node before the target at every
// level. A successor is passed on its head alone unless the heads tie.
func (s *skiplist) findGreaterOrEqual(key []byte, head uint64, prev *[maxHeight]*skipNode) *skipNode {
	x := &s.root
	for level := s.height - 1; level >= 0; level-- {
		for {
			n := x.next[level]
			if n == nil || n.head > head || n.head == head && bytes.Compare(n.key, key) >= 0 {
				break
			}
			x = n
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// set inserts or overwrites key. tombstone=true records a delete marker. An
// overwrite keeps the new key slice too, so a node holds on to the buffer of
// its newest write only.
func (s *skiplist) set(key, value []byte, tombstone bool) {
	var prev [maxHeight]*skipNode
	head := keyHead(key)
	if node := s.findGreaterOrEqual(key, head, &prev); node != nil && node.head == head && bytes.Equal(node.key, key) {
		s.bytes += len(value) - len(node.value)
		node.key = key
		node.value = value
		node.tombstone = tombstone
		return
	}
	h := s.randomHeight()
	if h > s.height {
		for level := s.height; level < h; level++ {
			prev[level] = &s.root
		}
		s.height = h
	}
	node := s.newNode()
	node.head, node.key, node.value, node.tombstone = head, key, value, tombstone
	for level := 0; level < h; level++ {
		node.next[level] = prev[level].next[level]
		prev[level].next[level] = node
	}
	s.length++
	s.bytes += len(key) + len(value)
}

// get returns the value for key. found reports presence of any entry
// (including tombstones); deleted reports the entry is a tombstone.
func (s *skiplist) get(key []byte) (value []byte, found, deleted bool) {
	head := keyHead(key)
	node := s.findGreaterOrEqual(key, head, nil)
	if node == nil || node.head != head || !bytes.Equal(node.key, key) {
		return nil, false, false
	}
	return node.value, true, node.tombstone
}

// first returns the first node at level 0 (nil if empty).
func (s *skiplist) first() *skipNode { return s.root.next[0] }

// seek returns the first node with key >= target.
func (s *skiplist) seek(key []byte) *skipNode {
	return s.findGreaterOrEqual(key, keyHead(key), nil)
}

// skipIterator walks skiplist entries in key order, including tombstones.
type skipIterator struct {
	node *skipNode
	list *skiplist
	init bool
}

func (s *skiplist) iterator() *skipIterator { return &skipIterator{list: s} }

// seekGE positions the iterator at the first key >= target.
func (it *skipIterator) seekGE(key []byte) {
	it.node = it.list.seek(key)
	it.init = true
}

// next advances the iterator; the first call positions at the first entry
// unless seekGE was used.
func (it *skipIterator) next() bool {
	if !it.init {
		it.node = it.list.first()
		it.init = true
	} else if it.node != nil {
		it.node = it.node.next[0]
	}
	return it.node != nil
}

// valid reports whether the iterator is positioned on an entry.
func (it *skipIterator) valid() bool { return it.node != nil }

func (it *skipIterator) key() []byte     { return it.node.key }
func (it *skipIterator) value() []byte   { return it.node.value }
func (it *skipIterator) tombstone() bool { return it.node.tombstone }
