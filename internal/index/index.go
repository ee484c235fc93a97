// Package index implements the DoubleDecker indexing module: it maps the
// (pool-id, inode-num, block-offset) keys arriving from guest VMs to
// storage objects through a per-pool hierarchy — an inode hash table whose
// entries are per-file radix trees — and keeps the per-pool FIFO order
// (the paper's LRU-equivalent for exclusive caches) that eviction follows.
//
// Concurrency contract: a Pool does NOT self-lock. All structural
// operations (Lookup, Insert, Remove, Oldest, RemoveInode, DrainAll,
// Inodes) must be serialized by the caller — the cache manager
// (internal/ddcache) does so under its per-VM lock or its store-level
// write lock. The byte and object accounting (UsedBytes, TotalBytes,
// Count) is atomic, so those read-only queries are safe from any
// goroutine without holding the caller's locks; this is what keeps the
// manager's stat paths off the data path's locks.
package index

import (
	"sync/atomic"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ilist"
	"doubledecker/internal/radix"
)

// Object is one cached block owned by a pool and resident in a store.
type Object struct {
	Pool  cleancache.PoolID
	Inode uint64
	Block int64
	Size  int64
	Store cgroup.StoreType
	// Seq is the manager-assigned insertion sequence number, used by the
	// Global baseline to evict in strict cross-pool FIFO order.
	Seq uint64
	// Pending marks a write-behind demotion in flight: the object has
	// been re-homed to Store in the index but its bytes still sit in the
	// demotion queue's buffer, charged to no backend until the drain
	// stores (or drops) them.
	Pending bool
	// Queued marks an object a write-behind ring slot points at. The slot
	// outlives a cancelled demotion until the next drain pops it, so
	// Recycle leaves a Queued object alone; the drain clears the mark when
	// it pops the slot and recycles the object itself if it died meanwhile.
	Queued bool

	fifo ilist.Elem[Object] // position in its store's FIFO; the free-list link once recycled
}

// storeSlots bounds the per-store accounting array: store types are
// small consecutive constants (mem, SSD, hybrid, remote).
const storeSlots = 5

// Accounting is a pool's byte and object accounting, held apart from the
// structural index so lock-free observers can share the pointer without
// ever touching the caller-serialized structures. All fields are atomic:
// writes happen on the structural paths (which the caller serializes),
// reads are safe from any goroutine. The cache manager's stat paths and
// its eviction victim selection read entirely through this view.
type Accounting struct {
	used  [storeSlots]atomic.Int64
	count atomic.Int64
}

// UsedBytes reports bytes held in the given store.
func (a *Accounting) UsedBytes(st cgroup.StoreType) int64 {
	return a.used[storeSlot(st)].Load()
}

// TotalBytes reports bytes held across all stores.
func (a *Accounting) TotalBytes() int64 {
	var t int64
	for i := range a.used {
		t += a.used[i].Load()
	}
	return t
}

// Count reports the number of objects accounted.
func (a *Accounting) Count() int64 { return a.count.Load() }

// Pool indexes the objects of one container.
type Pool struct {
	ID   cleancache.PoolID
	VM   cleancache.VMID
	Name string

	files map[uint64]*radix.Tree
	trees radix.Arena // nodes and emptied per-file trees, reused
	fifo  [storeSlots]ilist.List[Object]
	// free holds recycled objects for NewObject; removed holds the result
	// of the last RemoveInode/DrainAll.
	free    ilist.List[Object]
	removed []*Object
	// acct is atomic only for lock-free reads; writes happen on the
	// caller-serialized structural paths.
	acct Accounting
}

// NewPool returns an empty pool index.
func NewPool(id cleancache.PoolID, vm cleancache.VMID, name string) *Pool {
	return &Pool{
		ID:    id,
		VM:    vm,
		Name:  name,
		files: make(map[uint64]*radix.Tree),
	}
}

// NewObject returns a zeroed object for the caller to fill and Insert,
// reusing a recycled one when there is one.
func (p *Pool) NewObject() *Object {
	obj := p.free.PopFront()
	if obj == nil {
		return &Object{}
	}
	*obj = Object{}
	return obj
}

// Recycle hands a dead object — removed from the index (or never
// inserted) and referenced by nobody but the caller — back for reuse by
// NewObject. Its fields stay readable until then: the caller-serialized
// contract means nothing can reuse it before the caller's own next
// NewObject. A Queued object is left alone (see Object.Queued).
func (p *Pool) Recycle(obj *Object) {
	if obj.Queued || obj.fifo.Linked() {
		return
	}
	p.free.PushFront(&obj.fifo, obj)
}

// Lookup returns the object for (inode, block), or nil.
func (p *Pool) Lookup(inode uint64, block int64) *Object {
	tree, ok := p.files[inode]
	if !ok {
		return nil
	}
	obj, _ := tree.Get(block).(*Object)
	return obj
}

// Insert adds obj to the index, replacing (and returning) any previous
// object under the same key. The caller owns releasing the replaced
// object's storage.
func (p *Pool) Insert(obj *Object) *Object {
	obj.Pool = p.ID
	tree, ok := p.files[obj.Inode]
	if !ok {
		tree = p.trees.New()
		p.files[obj.Inode] = tree
	}
	var replaced *Object
	if prev := tree.Insert(obj.Block, obj); prev != nil {
		replaced, _ = prev.(*Object)
		if replaced != nil {
			p.unlink(replaced)
		}
	}
	p.fifo[storeSlot(obj.Store)].PushBack(&obj.fifo, obj)
	p.acct.used[storeSlot(obj.Store)].Add(obj.Size)
	p.acct.count.Add(1)
	return replaced
}

// storeSlot maps a store type onto the accounting array, folding
// out-of-range values onto slot 0.
func storeSlot(st cgroup.StoreType) int {
	if st < 0 || int(st) >= storeSlots {
		return 0
	}
	return int(st)
}

// Remove deletes obj from the index. It reports whether the object was
// present.
func (p *Pool) Remove(obj *Object) bool {
	tree, ok := p.files[obj.Inode]
	if !ok {
		return false
	}
	got, _ := tree.Delete(obj.Block).(*Object)
	if got == nil {
		return false
	}
	if got != obj {
		// Key collision with a different object: put it back.
		tree.Insert(obj.Block, got)
		return false
	}
	if tree.Len() == 0 {
		delete(p.files, obj.Inode)
		p.trees.Release(tree)
	}
	p.unlink(obj)
	return true
}

// unlink detaches obj from FIFO and accounting (index entry handled by
// the caller).
func (p *Pool) unlink(obj *Object) {
	slot := storeSlot(obj.Store)
	p.fifo[slot].Remove(&obj.fifo)
	if n := p.acct.used[slot].Add(-obj.Size); n < 0 {
		// Defensive clamp, as before the atomics: structural mutations
		// are caller-serialized, so no concurrent writer can interleave.
		p.acct.used[slot].Store(0)
	}
	p.acct.count.Add(-1)
}

// Oldest returns the pool's oldest object in the given store, or nil.
func (p *Pool) Oldest(st cgroup.StoreType) *Object {
	return p.fifo[storeSlot(st)].Front()
}

// RemoveInode removes and returns all objects of a file, in block order
// (FlushInode, migration). The slice is the pool's own scratch buffer:
// it is valid until the pool's next RemoveInode or DrainAll, and
// recycling or re-inserting the objects it lists does not disturb it.
func (p *Pool) RemoveInode(inode uint64) []*Object {
	tree, ok := p.files[inode]
	if !ok {
		return nil
	}
	p.removed = p.removed[:0]
	p.removeTree(inode, tree)
	return p.removed
}

// removeTree appends the objects of inode's tree to p.removed, unlinks
// them and drops the tree.
func (p *Pool) removeTree(inode uint64, tree *radix.Tree) {
	first := len(p.removed)
	tree.ForEach(func(_ int64, v any) bool {
		if obj, ok := v.(*Object); ok {
			p.removed = append(p.removed, obj)
		}
		return true
	})
	for _, obj := range p.removed[first:] {
		p.unlink(obj)
	}
	delete(p.files, inode)
	p.trees.Release(tree)
}

// DrainAll removes and returns every object in the pool (DestroyPool),
// in the same scratch buffer and under the same rule as RemoveInode.
func (p *Pool) DrainAll() []*Object {
	p.removed = p.removed[:0]
	for inode, tree := range p.files {
		p.removeTree(inode, tree)
	}
	return p.removed
}

// Inodes returns the inode numbers currently indexed (order unspecified).
func (p *Pool) Inodes() []uint64 {
	out := make([]uint64, 0, len(p.files))
	for ino := range p.files {
		out = append(out, ino)
	}
	return out
}

// Acct exposes the pool's lock-free accounting view. The returned
// pointer stays valid for the pool's lifetime; callers that must read
// occupancy without serializing against structural operations (the cache
// manager's stat and victim-selection paths) hold this pointer instead of
// the pool itself.
func (p *Pool) Acct() *Accounting { return &p.acct }

// UsedBytes reports bytes held in the given store. Safe without the
// caller's locks.
func (p *Pool) UsedBytes(st cgroup.StoreType) int64 { return p.acct.UsedBytes(st) }

// TotalBytes reports bytes held across all stores. Safe without the
// caller's locks.
func (p *Pool) TotalBytes() int64 { return p.acct.TotalBytes() }

// Count reports the number of objects in the pool. Safe without the
// caller's locks.
func (p *Pool) Count() int64 { return p.acct.Count() }
