// Package radix implements the sparse radix tree the DoubleDecker
// indexing module uses to map file block offsets to cache objects —
// the same structure (6 bits per level, grow-on-demand height) the Linux
// page cache and the paper's per-file block index are built on.
package radix

// fanout is 2^bits children per node.
const (
	bits   = 6
	fanout = 1 << bits
	mask   = fanout - 1
)

// maxLevels is the deepest a tree can grow: 63 key bits in 6-bit digits.
const maxLevels = (63 + bits - 1) / bits

type node struct {
	slots [fanout]any // *node at interior levels, user values at leaves
	count int         // occupied slots
}

// Tree maps non-negative int64 keys to values. The zero value is not
// usable; construct with New or Arena.New.
type Tree struct {
	root   *node
	height int // levels below root; key space = fanout^(height+1)
	size   int

	arena *Arena // nil for a tree from New: nodes come from and go to the heap
	next  *Tree  // arena free-list link
}

// New returns an empty tree whose nodes are heap-allocated and left to
// the garbage collector.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Arena recycles the nodes and headers of the trees drawn from it, so a
// population of trees that grow, shrink and empty at a steady rate stops
// allocating: a pruned node or a released tree is kept and handed to the
// next Insert or New. Like its trees, an Arena is single-owner — the
// caller serializes every use of the arena and of all trees drawn from it.
// The zero value is ready to use.
type Arena struct {
	nodes *node // empty nodes, chained through slots[0]
	trees *Tree // released trees (empty root attached), chained through next
}

// New returns an empty tree drawing its nodes from a.
func (a *Arena) New() *Tree {
	if t := a.trees; t != nil {
		a.trees, t.next = t.next, nil
		return t
	}
	return &Tree{root: a.node(), arena: a}
}

// Release empties t — which must have been drawn from a — and keeps it,
// and every node it held, for reuse. The caller must drop its reference.
func (a *Arena) Release(t *Tree) {
	if t.size > 0 {
		a.clear(t.root, t.height)
	}
	t.height, t.size = 0, 0
	t.next, a.trees = a.trees, t
}

// clear empties n's subtree, freeing every node below n.
func (a *Arena) clear(n *node, level int) {
	if level > 0 {
		for _, s := range n.slots {
			if child, ok := s.(*node); ok {
				a.clear(child, level-1)
				a.free(child)
			}
		}
	}
	*n = node{}
}

// node returns an empty node. Nil-safe: without an arena it allocates.
func (a *Arena) node() *node {
	if a == nil || a.nodes == nil {
		return &node{}
	}
	n := a.nodes
	a.nodes, _ = n.slots[0].(*node)
	n.slots[0] = nil
	return n
}

// free keeps the empty node n for reuse. Nil-safe: without an arena the
// node is left to the garbage collector.
func (a *Arena) free(n *node) {
	if a == nil {
		return
	}
	if a.nodes != nil { // a nil *node in the slot would read as occupied
		n.slots[0] = a.nodes
	}
	a.nodes = n
}

// Len reports the number of stored keys.
func (t *Tree) Len() int { return t.size }

// maxKey returns the largest key representable at the current height.
func (t *Tree) maxKey() int64 {
	k := int64(1)
	for i := 0; i <= t.height; i++ {
		k *= fanout
		if k < 0 { // overflow: whole int64 space covered
			return int64(^uint64(0) >> 1)
		}
	}
	return k - 1
}

// grow raises the tree height until key fits.
func (t *Tree) grow(key int64) {
	for key > t.maxKey() {
		if t.root.count == 0 {
			t.height++
			continue
		}
		n := t.arena.node()
		n.slots[0] = t.root
		n.count = 1
		t.root = n
		t.height++
	}
}

func slotIndex(key int64, level int) int {
	return int(key>>(uint(level)*bits)) & mask
}

// Insert stores v under key, returning the previous value if any. Negative
// keys are not supported and are ignored (returns nil).
func (t *Tree) Insert(key int64, v any) any {
	if key < 0 || v == nil {
		return nil
	}
	t.grow(key)
	n := t.root
	for level := t.height; level > 0; level-- {
		idx := slotIndex(key, level)
		child, ok := n.slots[idx].(*node)
		if !ok {
			child = t.arena.node()
			n.slots[idx] = child
			n.count++
		}
		n = child
	}
	idx := slotIndex(key, 0)
	prev := n.slots[idx]
	n.slots[idx] = v
	if prev == nil {
		n.count++
		t.size++
	}
	return prev
}

// Get returns the value stored under key, or nil.
func (t *Tree) Get(key int64) any {
	if key < 0 || key > t.maxKey() {
		return nil
	}
	n := t.root
	for level := t.height; level > 0; level-- {
		child, ok := n.slots[slotIndex(key, level)].(*node)
		if !ok {
			return nil
		}
		n = child
	}
	return n.slots[slotIndex(key, 0)]
}

// Delete removes key, returning the value that was stored, or nil. Interior
// nodes left empty are pruned.
func (t *Tree) Delete(key int64) any {
	if key < 0 || key > t.maxKey() {
		return nil
	}
	// Record the path for pruning.
	var path [maxLevels]*node
	n := t.root
	for level := t.height; level > 0; level-- {
		path[t.height-level] = n
		child, ok := n.slots[slotIndex(key, level)].(*node)
		if !ok {
			return nil
		}
		n = child
	}
	idx := slotIndex(key, 0)
	v := n.slots[idx]
	if v == nil {
		return nil
	}
	n.slots[idx] = nil
	n.count--
	t.size--
	// Prune empty nodes bottom-up.
	for i := t.height - 1; i >= 0 && n.count == 0; i-- {
		parent := path[i]
		level := t.height - i
		parent.slots[slotIndex(key, level)] = nil
		parent.count--
		t.arena.free(n)
		n = parent
	}
	return v
}

// ForEach visits all (key, value) pairs in ascending key order. Returning
// false from fn stops the walk early.
func (t *Tree) ForEach(fn func(key int64, v any) bool) {
	t.walk(t.root, t.height, 0, fn)
}

func (t *Tree) walk(n *node, level int, prefix int64, fn func(int64, any) bool) bool {
	for i := 0; i < fanout; i++ {
		if n.slots[i] == nil {
			continue
		}
		key := prefix | int64(i)<<(uint(level)*bits)
		if level == 0 {
			if !fn(key, n.slots[i]) {
				return false
			}
			continue
		}
		child, ok := n.slots[i].(*node)
		if !ok {
			continue
		}
		if !t.walk(child, level-1, key, fn) {
			return false
		}
	}
	return true
}
