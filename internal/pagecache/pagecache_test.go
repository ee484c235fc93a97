package pagecache

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/fsmodel"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/store"
)

const mib = 1 << 20

type rig struct {
	root  *cgroup.Root
	cache *Cache
	front *cleancache.Front
	mgr   *ddcache.Manager
	disk  *blockdev.HDD
	alloc *fsmodel.Allocator
	rng   *rand.Rand
}

// newRig builds a single-VM stack: cgroup root, page cache, cleancache
// front wired to a DoubleDecker manager with a memory store.
func newRig(vmMemBytes, hcacheBytes int64) *rig {
	r := &rig{
		root:  cgroup.NewRoot(vmMemBytes, 0),
		disk:  blockdev.NewHDD("vdisk"),
		alloc: fsmodel.NewAllocator(),
		rng:   rand.New(rand.NewSource(1)),
	}
	if hcacheBytes > 0 {
		r.mgr = ddcache.NewManager(ddcache.Config{
			Mode: ddcache.ModeDD,
			Mem:  store.NewMem(blockdev.NewRAM("hostram"), hcacheBytes),
		})
		r.mgr.RegisterVM(1, 100)
		// Unbatched: these tests inspect manager state right after puts,
		// so deliveries must not sit in a transport ring.
		r.front = cleancache.NewFront(1, hypercall.NewTransport(r.mgr, hypercall.Options{Unbatched: true}))
	}
	r.cache = New(r.root, r.front, r.disk)
	return r
}

func (r *rig) newGroup(name string, limitBytes int64) *cgroup.Group {
	g := r.root.NewGroup(name, limitBytes, r.disk)
	if r.front != nil {
		r.front.RegisterGroup(0, g)
	}
	return g
}

func (r *rig) newFile(blocks int64) *fsmodel.File {
	return r.alloc.Alloc(blocks)
}

func TestReadMissThenHit(t *testing.T) {
	r := newRig(64*mib, 0)
	g := r.newGroup("c1", 0)
	f := r.newFile(10)
	lat1 := r.cache.Read(0, g, f, 0, 10)
	if lat1 < 8*time.Millisecond {
		t.Fatalf("cold read latency %v should include a disk seek", lat1)
	}
	st := r.cache.Stats(g)
	if st.Misses != 10 || st.DiskReads != 10 {
		t.Fatalf("stats = %+v", st)
	}
	lat2 := r.cache.Read(time.Second, g, f, 0, 10)
	if lat2 != 10*PageHitCost {
		t.Fatalf("warm read latency %v, want %v", lat2, 10*PageHitCost)
	}
	if got := r.cache.Stats(g).Hits; got != 10 {
		t.Fatalf("hits = %d", got)
	}
	if g.FilePages() != 10 {
		t.Fatalf("charged pages = %d", g.FilePages())
	}
}

func TestReadBeyondEOFClamped(t *testing.T) {
	r := newRig(64*mib, 0)
	g := r.newGroup("c1", 0)
	f := r.newFile(4)
	r.cache.Read(0, g, f, 2, 100)
	if g.FilePages() != 2 {
		t.Fatalf("pages = %d, want 2 (blocks 2,3)", g.FilePages())
	}
}

func TestEvictionPutsToSecondChance(t *testing.T) {
	r := newRig(64*mib, 32*mib)
	g := r.newGroup("c1", 1*mib) // 256 pages
	f := r.newFile(400)
	r.cache.Read(0, g, f, 0, 400) // overflows the cgroup limit
	if g.FilePages() > g.LimitPages() {
		t.Fatalf("group over limit: %d > %d", g.FilePages(), g.LimitPages())
	}
	ccStats := r.front.Stats()
	if ccStats.Puts == 0 {
		t.Fatal("evictions did not reach the second-chance cache")
	}
	if used := r.mgr.PoolUsedBytes(cleancache.PoolID(g.PoolID()), cgroup.StoreMem); used == 0 {
		t.Fatal("hypervisor cache holds nothing after evictions")
	}
}

func TestSecondChanceHitAvoidsDisk(t *testing.T) {
	r := newRig(64*mib, 32*mib)
	g := r.newGroup("c1", 1*mib)
	f := r.newFile(400)
	r.cache.Read(0, g, f, 0, 400)
	// Early blocks were evicted to the hypervisor cache; re-read them.
	before := r.cache.Stats(g).DiskReads
	lat := r.cache.Read(time.Second, g, f, 0, 32)
	st := r.cache.Stats(g)
	if st.CCHits == 0 {
		t.Fatal("no second-chance hits")
	}
	if st.DiskReads != before {
		t.Fatalf("re-read went to disk (%d → %d reads)", before, st.DiskReads)
	}
	if lat > 5*time.Millisecond {
		t.Fatalf("second-chance read cost %v, suspiciously like disk", lat)
	}
	// Exclusivity: objects moved back to the page cache.
	ccBefore := r.front.Stats().GetHits
	if ccBefore == 0 {
		t.Fatal("no get hits recorded")
	}
}

func TestWriteDirtiesAndFsyncCleans(t *testing.T) {
	r := newRig(64*mib, 0)
	g := r.newGroup("c1", 0)
	f := r.newFile(20)
	r.cache.Write(0, g, f, 0, 20)
	if r.cache.DirtyPages() != 20 {
		t.Fatalf("dirty = %d, want 20", r.cache.DirtyPages())
	}
	lat := r.cache.Fsync(0, g, f)
	if lat < 8*time.Millisecond {
		t.Fatalf("fsync latency %v should include disk write", lat)
	}
	if r.cache.DirtyPages() != 0 {
		t.Fatal("fsync left dirty pages")
	}
	if got := r.cache.Stats(g).DiskWrites; got != 20 {
		t.Fatalf("disk writes = %d", got)
	}
	// Second fsync is free.
	if l2 := r.cache.Fsync(0, g, f); l2 != 0 {
		t.Fatalf("clean fsync cost %v", l2)
	}
}

func TestFsyncCoalescesContiguousRuns(t *testing.T) {
	r := newRig(64*mib, 0)
	g := r.newGroup("c1", 0)
	f := r.newFile(64)
	r.cache.Write(0, g, f, 0, 64)
	writesBefore := r.disk.Stats().Writes
	r.cache.Fsync(0, g, f)
	delta := r.disk.Stats().Writes - writesBefore
	if delta != 1 {
		t.Fatalf("contiguous fsync issued %d device writes, want 1", delta)
	}
}

// writeLog records each device write as a [first, end) block range of f.
type writeLog struct {
	blockdev.Device
	f      *fsmodel.File
	writes [][2]int64
}

func (w *writeLog) Write(now time.Duration, offset, size int64) (time.Duration, error) {
	first := (offset - w.f.BlockOffset(0)) / fsmodel.BlockSize
	w.writes = append(w.writes, [2]int64{first, first + size/fsmodel.BlockSize})
	return w.Device.Write(now, offset, size)
}

// TestFsyncCoalescesScatteredDirtyBlocks dirties blocks out of order, so
// Fsync must sort them before it can coalesce runs: one device write
// per contiguous run, issued in ascending block order.
func TestFsyncCoalescesScatteredDirtyBlocks(t *testing.T) {
	f := fsmodel.NewAllocator().Alloc(16)
	disk := &writeLog{Device: blockdev.NewHDD("vdisk"), f: f}
	root := cgroup.NewRoot(64*mib, 0)
	cache := New(root, nil, disk)
	g := root.NewGroup("c1", 0, disk)
	for _, b := range []int64{9, 1, 2, 5, 3} {
		cache.Write(0, g, f, b, 1)
	}
	disk.writes = nil
	cache.Fsync(0, g, f)
	want := [][2]int64{{1, 4}, {5, 6}, {9, 10}}
	if !slices.Equal(disk.writes, want) {
		t.Fatalf("fsync device writes (block ranges) = %v, want %v", disk.writes, want)
	}
}

func TestBackgroundFlusher(t *testing.T) {
	r := newRig(64*mib, 0)
	g := r.newGroup("c1", 0)
	f := r.newFile(100)
	r.cache.Write(0, g, f, 0, 100)
	n := r.cache.FlushDirty(0, 30)
	if n != 30 {
		t.Fatalf("FlushDirty cleaned %d, want 30", n)
	}
	if r.cache.DirtyPages() != 70 {
		t.Fatalf("dirty = %d, want 70", r.cache.DirtyPages())
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	r := newRig(64*mib, 32*mib)
	g := r.newGroup("c1", 1*mib)
	f := r.newFile(400)
	r.cache.Write(0, g, f, 0, 400) // dirty overflow forces writeback+evict
	if g.FilePages() > g.LimitPages() {
		t.Fatal("group over limit")
	}
	if r.disk.Stats().Writes == 0 {
		t.Fatal("dirty eviction never wrote to disk")
	}
}

func TestInvalidateDropsAndFlushes(t *testing.T) {
	r := newRig(64*mib, 32*mib)
	g := r.newGroup("c1", 1*mib)
	f := r.newFile(400)
	r.cache.Read(0, g, f, 0, 400) // spills into hcache
	pool := cleancache.PoolID(g.PoolID())
	if r.mgr.PoolUsedBytes(pool, cgroup.StoreMem) == 0 {
		t.Fatal("setup: nothing in hypervisor cache")
	}
	r.cache.Invalidate(0, g, f)
	if g.FilePages() != 0 {
		t.Fatalf("pages after invalidate = %d", g.FilePages())
	}
	if used := r.mgr.PoolUsedBytes(pool, cgroup.StoreMem); used != 0 {
		t.Fatalf("hypervisor cache retains %d bytes after inode flush", used)
	}
}

func TestWriteMissFlushesStaleSecondChanceCopy(t *testing.T) {
	r := newRig(64*mib, 32*mib)
	g := r.newGroup("c1", 1*mib)
	f := r.newFile(400)
	r.cache.Read(0, g, f, 0, 400) // block 0 evicted into hcache
	ccFlushes := r.front.Stats().Flushes
	r.cache.Write(time.Second, g, f, 0, 1) // write miss on block 0
	if r.front.Stats().Flushes != ccFlushes+1 {
		t.Fatal("write miss did not invalidate second-chance copy")
	}
	// The stale copy must be gone: a later read misses in the hcache.
	r.cache.Fsync(time.Second, g, f)
	hitsBefore := r.front.Stats().GetHits
	r.cache.Invalidate(2*time.Second, g, f)
	_ = hitsBefore
}

func TestReclaimFileLRUOrder(t *testing.T) {
	r := newRig(64*mib, 0)
	g := r.newGroup("c1", 0)
	f := r.newFile(10)
	r.cache.Read(0, g, f, 0, 10)
	// Touch blocks 5..9 later so 0..4 are coldest.
	r.cache.Read(time.Second, g, f, 5, 5)
	freed, _ := r.cache.ReclaimFile(2*time.Second, g, 5)
	if freed != 5 {
		t.Fatalf("freed = %d, want 5", freed)
	}
	// Blocks 5..9 must still be resident (hits), 0..4 gone.
	st0 := r.cache.Stats(g)
	r.cache.Read(3*time.Second, g, f, 5, 5)
	if got := r.cache.Stats(g).Hits - st0.Hits; got != 5 {
		t.Fatalf("warm blocks lost: %d hits, want 5", got)
	}
}

func TestOldestFilePage(t *testing.T) {
	r := newRig(64*mib, 0)
	g := r.newGroup("c1", 0)
	if _, ok := r.cache.OldestFilePage(g); ok {
		t.Fatal("empty group reported an oldest page")
	}
	f := r.newFile(2)
	r.cache.Read(5*time.Second, g, f, 0, 1)
	r.cache.Read(9*time.Second, g, f, 1, 1)
	at, ok := r.cache.OldestFilePage(g)
	if !ok {
		t.Fatal("no oldest page")
	}
	if at < 5*time.Second || at >= 9*time.Second {
		t.Fatalf("oldest = %v, want ~5s", at)
	}
}

func TestTotalPages(t *testing.T) {
	r := newRig(64*mib, 0)
	g1 := r.newGroup("a", 0)
	g2 := r.newGroup("b", 0)
	f1, f2 := r.newFile(5), r.newFile(7)
	r.cache.Read(0, g1, f1, 0, 5)
	r.cache.Read(0, g2, f2, 0, 7)
	if got := r.cache.TotalPages(); got != 12 {
		t.Fatalf("TotalPages = %d, want 12", got)
	}
}

func TestNoFrontWorks(t *testing.T) {
	r := newRig(8*mib, 0)
	g := r.newGroup("c1", 1*mib)
	f := r.newFile(400)
	lat := r.cache.Read(0, g, f, 0, 400)
	if lat == 0 {
		t.Fatal("zero latency for cold reads")
	}
	if g.FilePages() > g.LimitPages() {
		t.Fatal("limit not enforced without front")
	}
}
