package pagecache

import (
	"math/rand"
	"testing"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/fsmodel"
)

// checkStructure walks every structure of the cache and fails on any
// disagreement between them: a page struct that is resident and free at
// once, on two lists, on another group's dirty FIFO, charged to the
// wrong group, or counted wrongly.
func checkStructure(t *testing.T, c *Cache, groups []*cgroup.Group, step int, op string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): "+format, append([]any{step, op}, args...)...)
	}
	resident := make(map[*page]bool)
	dirty := 0
	for inode, blocks := range c.pages {
		if len(blocks) == 0 {
			fail("inode %d keeps an empty block map", inode)
		}
		for block, p := range blocks {
			if p.inode != inode || p.block != block {
				fail("page (%d,%d) is filed under (%d,%d)", p.inode, p.block, inode, block)
			}
			if resident[p] {
				fail("page struct of (%d,%d) is resident twice", inode, block)
			}
			resident[p] = true
			if !p.lru.Linked() {
				fail("resident page (%d,%d) is on no LRU", inode, block)
			}
			if p.dirty() {
				dirty++
			}
		}
	}
	if dirty != c.dirtyTotal || dirty != c.DirtyPages() {
		fail("%d dirty pages, dirtyTotal says %d", dirty, c.dirtyTotal)
	}
	onLRU, onDirty := 0, 0
	for _, g := range groups {
		if l := c.lrus[g]; l != nil {
			n := 0
			for p := l.Front(); p != nil; p = p.lru.Next() {
				if !resident[p] || p.g != g {
					fail("group %s LRU holds page (%d,%d) that is not its resident page", g.Name(), p.inode, p.block)
				}
				n++
			}
			if n != l.Len() || int64(n) != g.FilePages() {
				fail("group %s: %d pages on the LRU, Len %d, %d charged", g.Name(), n, l.Len(), g.FilePages())
			}
			onLRU += n
		}
		if l := c.dirty[g]; l != nil {
			for p := l.Front(); p != nil; p = p.dirtyQ.Next() {
				if !resident[p] || p.g != g {
					fail("group %s dirty FIFO holds page (%d,%d): resident=%v, group %s", g.Name(), p.inode, p.block, resident[p], p.g.Name())
				}
				onDirty++
			}
		}
	}
	if onLRU != len(resident) || int64(onLRU) != c.TotalPages() || onDirty != dirty {
		fail("%d resident pages, %d on LRUs (TotalPages %d); %d dirty, %d on dirty FIFOs", len(resident), onLRU, c.TotalPages(), dirty, onDirty)
	}
	for p := c.free.Front(); p != nil; p = p.lru.Next() {
		if resident[p] {
			fail("page struct of (%d,%d) is resident and on the free list", p.inode, p.block)
		}
		if p.dirtyQ.Linked() {
			fail("free page struct is still on a dirty FIFO")
		}
	}
}

// churn drives a seeded interleaving of reads, writes, fsyncs, flusher
// ticks and deletions through two containers far smaller than their files,
// so pages are dropped — by reclaim, mid-writeback-run, and by deletion —
// and their structs reused on nearly every step. It returns what the
// guest could observe.
func churn(t *testing.T, seed int64, check bool) (time.Duration, []IOStats, int) {
	r := newRig(64*mib, 1*mib)
	groups := []*cgroup.Group{r.newGroup("a", 24*fsmodel.BlockSize), r.newGroup("b", 40*fsmodel.BlockSize)}
	files := make([]*fsmodel.File, 6)
	for i := range files {
		files[i] = r.newFile(48)
	}
	rng := rand.New(rand.NewSource(seed))
	var now time.Duration
	for step := 0; step < 4000; step++ {
		g := groups[rng.Intn(len(groups))]
		f := files[rng.Intn(len(files))]
		start, n := rng.Int63n(f.Blocks), 1+rng.Int63n(16)
		var op string
		switch k := rng.Intn(100); {
		case k < 40:
			op = "write"
			now += r.cache.Write(now, g, f, start, n)
		case k < 75:
			op = "read"
			now += r.cache.Read(now, g, f, start, n)
		case k < 85:
			op = "fsync"
			now += r.cache.Fsync(now, g, f)
		case k < 93:
			op = "flusher"
			r.cache.FlushDirty(now, 1+rng.Intn(32))
		case k < 97:
			op = "reclaim"
			_, lat := r.cache.ReclaimFile(now, g, 1+rng.Int63n(8))
			now += lat
		default:
			op = "delete"
			now += r.cache.Invalidate(now, g, f)
		}
		if check {
			checkStructure(t, r.cache, groups, step, op)
		}
	}
	return now, []IOStats{r.cache.Stats(groups[0]), r.cache.Stats(groups[1])}, r.cache.free.Len()
}

func TestPageStructReuseKeepsEveryStructureConsistent(t *testing.T) {
	// Writeback collects a run of pages, cleans it, and drops its head;
	// reclaim loops over the rest while inserts behind it take the dropped
	// structs straight back. No structure may ever see a struct in two
	// roles, and nothing the guest observes may depend on which struct a
	// page happens to get (deletion frees them in map order, i.e. random).
	elapsed, stats, free := churn(t, 1, true)
	if free == 0 {
		t.Fatal("no page struct was ever recycled: the scenario does not exercise reuse")
	}
	if stats[0].DiskWrites == 0 || stats[0].CCHits == 0 || stats[1].DiskReads == 0 {
		t.Fatalf("scenario too tame: %+v", stats)
	}
	for i := 0; i < 3; i++ {
		again, statsAgain, _ := churn(t, 1, false)
		if again != elapsed || statsAgain[0] != stats[0] || statsAgain[1] != stats[1] {
			t.Fatalf("run %d diverged: %v %+v, first run %v %+v", i, again, statsAgain, elapsed, stats)
		}
	}
}
