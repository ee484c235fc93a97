package index

import (
	"testing"
	"testing/quick"

	"doubledecker/internal/cgroup"
)

func obj(inode uint64, block int64, st cgroup.StoreType) *Object {
	return &Object{Inode: inode, Block: block, Size: 4096, Store: st}
}

func TestInsertLookupRemove(t *testing.T) {
	p := NewPool(1, 1, "c1")
	o := obj(10, 5, cgroup.StoreMem)
	if replaced := p.Insert(o); replaced != nil {
		t.Fatalf("Insert returned %v", replaced)
	}
	if got := p.Lookup(10, 5); got != o {
		t.Fatal("Lookup missed inserted object")
	}
	if p.Count() != 1 || p.UsedBytes(cgroup.StoreMem) != 4096 {
		t.Fatalf("count/used = %d/%d", p.Count(), p.UsedBytes(cgroup.StoreMem))
	}
	if !p.Remove(o) {
		t.Fatal("Remove failed")
	}
	if p.Lookup(10, 5) != nil || p.Count() != 0 || p.UsedBytes(cgroup.StoreMem) != 0 {
		t.Fatal("Remove left state behind")
	}
}

func TestInsertReplacesSameKey(t *testing.T) {
	p := NewPool(1, 1, "c1")
	o1 := obj(10, 5, cgroup.StoreMem)
	o2 := obj(10, 5, cgroup.StoreMem)
	p.Insert(o1)
	replaced := p.Insert(o2)
	if replaced != o1 {
		t.Fatalf("replaced = %v, want o1", replaced)
	}
	if p.Count() != 1 {
		t.Fatalf("Count = %d, want 1", p.Count())
	}
	if p.Lookup(10, 5) != o2 {
		t.Fatal("lookup should find the new object")
	}
}

func TestFIFOOrderPerStore(t *testing.T) {
	p := NewPool(1, 1, "c1")
	m1 := obj(1, 0, cgroup.StoreMem)
	s1 := obj(2, 0, cgroup.StoreSSD)
	m2 := obj(1, 1, cgroup.StoreMem)
	p.Insert(m1)
	p.Insert(s1)
	p.Insert(m2)
	if got := p.Oldest(cgroup.StoreMem); got != m1 {
		t.Fatalf("Oldest(mem) = %v, want m1", got)
	}
	if got := p.Oldest(cgroup.StoreSSD); got != s1 {
		t.Fatalf("Oldest(ssd) = %v, want s1", got)
	}
	p.Remove(m1)
	if got := p.Oldest(cgroup.StoreMem); got != m2 {
		t.Fatalf("Oldest after removal = %v, want m2", got)
	}
}

func TestReinsertMovesToBack(t *testing.T) {
	p := NewPool(1, 1, "c1")
	a := obj(1, 0, cgroup.StoreMem)
	b := obj(1, 1, cgroup.StoreMem)
	p.Insert(a)
	p.Insert(b)
	// Re-put of the same key: fresh object, same key as a.
	a2 := obj(1, 0, cgroup.StoreMem)
	p.Insert(a2)
	if got := p.Oldest(cgroup.StoreMem); got != b {
		t.Fatal("re-inserted key should move to FIFO back")
	}
}

func TestRemoveInode(t *testing.T) {
	p := NewPool(1, 1, "c1")
	for b := int64(0); b < 10; b++ {
		p.Insert(obj(7, b, cgroup.StoreMem))
	}
	p.Insert(obj(8, 0, cgroup.StoreMem))
	objs := p.RemoveInode(7)
	if len(objs) != 10 {
		t.Fatalf("RemoveInode returned %d objects, want 10", len(objs))
	}
	if p.Count() != 1 {
		t.Fatalf("Count = %d, want 1", p.Count())
	}
	if p.Lookup(7, 3) != nil {
		t.Fatal("inode 7 blocks still indexed")
	}
	if p.RemoveInode(99) != nil {
		t.Fatal("RemoveInode of absent inode should return nil")
	}
}

func TestDrainAll(t *testing.T) {
	p := NewPool(1, 1, "c1")
	p.Insert(obj(1, 0, cgroup.StoreMem))
	p.Insert(obj(2, 0, cgroup.StoreSSD))
	p.Insert(obj(2, 1, cgroup.StoreSSD))
	objs := p.DrainAll()
	if len(objs) != 3 {
		t.Fatalf("DrainAll returned %d, want 3", len(objs))
	}
	if p.Count() != 0 || p.TotalBytes() != 0 {
		t.Fatal("pool not empty after drain")
	}
}

func TestRemoveForeignObject(t *testing.T) {
	p := NewPool(1, 1, "c1")
	in := obj(1, 0, cgroup.StoreMem)
	p.Insert(in)
	ghost := obj(1, 0, cgroup.StoreMem) // same key, never inserted
	if p.Remove(ghost) {
		t.Fatal("Remove of foreign object succeeded")
	}
	if p.Lookup(1, 0) != in {
		t.Fatal("original object lost")
	}
}

func TestInodes(t *testing.T) {
	p := NewPool(1, 1, "c1")
	p.Insert(obj(3, 0, cgroup.StoreMem))
	p.Insert(obj(9, 0, cgroup.StoreMem))
	inos := p.Inodes()
	if len(inos) != 2 {
		t.Fatalf("Inodes = %v", inos)
	}
}

// Property: accounting (count, used bytes, FIFO membership) stays
// consistent under random insert/remove sequences.
func TestPropertyAccountingConsistent(t *testing.T) {
	prop := func(ops []struct {
		Inode uint8
		Block uint8
		SSD   bool
		Del   bool
	}) bool {
		p := NewPool(1, 1, "p")
		live := make(map[[2]uint64]*Object)
		for _, op := range ops {
			key := [2]uint64{uint64(op.Inode), uint64(op.Block)}
			st := cgroup.StoreMem
			if op.SSD {
				st = cgroup.StoreSSD
			}
			if op.Del {
				if o, ok := live[key]; ok {
					if !p.Remove(o) {
						return false
					}
					delete(live, key)
				}
				continue
			}
			o := obj(uint64(op.Inode), int64(op.Block), st)
			p.Insert(o)
			live[key] = o
		}
		if int(p.Count()) != len(live) {
			return false
		}
		var wantMem, wantSSD int64
		for _, o := range live {
			if o.Store == cgroup.StoreMem {
				wantMem += o.Size
			} else {
				wantSSD += o.Size
			}
		}
		return p.UsedBytes(cgroup.StoreMem) == wantMem &&
			p.UsedBytes(cgroup.StoreSSD) == wantSSD &&
			p.TotalBytes() == wantMem+wantSSD
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAcctViewTracksPool pins the lock-free accounting split: the
// pointer returned by Acct observes every structural mutation without
// going through the pool itself.
func TestAcctViewTracksPool(t *testing.T) {
	p := NewPool(1, 1, "acct")
	acct := p.Acct()
	if acct.TotalBytes() != 0 || acct.Count() != 0 {
		t.Fatalf("fresh pool not empty: %d bytes, %d objects", acct.TotalBytes(), acct.Count())
	}
	a := &Object{Inode: 1, Block: 0, Size: 4096, Store: cgroup.StoreMem}
	b := &Object{Inode: 1, Block: 1, Size: 4096, Store: cgroup.StoreSSD}
	p.Insert(a)
	p.Insert(b)
	if got := acct.UsedBytes(cgroup.StoreMem); got != 4096 {
		t.Errorf("mem used = %d, want 4096", got)
	}
	if got := acct.UsedBytes(cgroup.StoreSSD); got != 4096 {
		t.Errorf("ssd used = %d, want 4096", got)
	}
	if got, want := acct.TotalBytes(), p.TotalBytes(); got != want {
		t.Errorf("acct total %d != pool total %d", got, want)
	}
	p.Remove(a)
	if got := acct.Count(); got != 1 {
		t.Errorf("count after remove = %d, want 1", got)
	}
}

func TestRecycledObjectComesBackZeroed(t *testing.T) {
	p := NewPool(1, 1, "c1")
	o := p.NewObject()
	o.Inode, o.Block, o.Size, o.Store = 10, 5, 4096, cgroup.StoreSSD
	o.Seq, o.Pending = 99, true
	p.Insert(o)
	p.Recycle(o) // still indexed: must be refused
	if fresh := p.NewObject(); fresh == o {
		t.Fatal("Recycle took an object that is still in the index")
	}
	p.Remove(o)
	p.Recycle(o)
	p.Recycle(o) // twice is once
	if o.Size != 4096 || o.Seq != 99 {
		t.Fatalf("a recycled object must stay readable until it is reused: %+v", o)
	}
	again := p.NewObject()
	if again != o {
		t.Fatal("NewObject did not reuse the recycled object")
	}
	if *again != (Object{}) {
		t.Fatalf("reused object carries state from its last life: %+v", again)
	}
	if third := p.NewObject(); third == o {
		t.Fatal("one recycled object was handed out twice")
	}
}

func TestQueuedObjectIsNotRecycled(t *testing.T) {
	p := NewPool(1, 1, "c1")
	o := p.NewObject()
	o.Inode, o.Size, o.Store = 1, 4096, cgroup.StoreRemote
	o.Queued = true // a write-behind ring slot points at it
	p.Insert(o)
	p.Remove(o)
	p.Recycle(o)
	if fresh := p.NewObject(); fresh == o {
		t.Fatal("an object was reused while a ring slot still points at it")
	}
	o.Queued = false // the drain popped the slot
	p.Recycle(o)
	if p.NewObject() != o {
		t.Fatal("the object was not reusable once its ring slot was popped")
	}
}

func TestRemovedSliceSurvivesRecycleAndReinsert(t *testing.T) {
	// Callers walk the RemoveInode result releasing (recycling) some
	// objects and moving others to a different pool as they go.
	src, dst := NewPool(1, 1, "src"), NewPool(2, 1, "dst")
	for b := int64(0); b < 8; b++ {
		o := src.NewObject()
		o.Inode, o.Block, o.Size, o.Store = 7, b, 4096, cgroup.StoreMem
		src.Insert(o)
	}
	objs := src.RemoveInode(7)
	for i, o := range objs {
		if o.Block != int64(i) {
			t.Fatalf("objs[%d] is block %d, want block order", i, o.Block)
		}
		if i%2 == 0 {
			src.Recycle(o)
		} else {
			dst.Insert(o)
		}
	}
	if dst.Count() != 4 || src.Count() != 0 || dst.Lookup(7, 3) == nil || dst.Lookup(7, 3).Pool != 2 {
		t.Fatalf("src %d dst %d after the move, want 0/4", src.Count(), dst.Count())
	}
	// The emptied tree and the recycled objects serve the next file.
	for b := int64(0); b < 4; b++ {
		o := src.NewObject()
		o.Inode, o.Block, o.Size, o.Store = 9, b, 4096, cgroup.StoreMem
		src.Insert(o)
		if dst.Lookup(7, 1) == o || dst.Lookup(7, 3) == o || dst.Lookup(7, 5) == o || dst.Lookup(7, 7) == o {
			t.Fatal("src reused an object that now lives in dst")
		}
	}
	if got := src.Oldest(cgroup.StoreMem); got == nil || got.Inode != 9 || got.Block != 0 {
		t.Fatalf("FIFO head after reuse = %+v, want (9,0)", got)
	}
}
