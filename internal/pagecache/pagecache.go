// Package pagecache models the guest OS disk page cache with the
// DoubleDecker extensions: pages are charged to the cgroup of the process
// that faulted them, reclaim runs per-cgroup LRU lists (it implements
// cgroup.FileReclaimer), clean evictions are offered to the second-chance
// cache (cleancache put), lookup misses consult it (cleancache get), and
// invalidations flush it — the exclusive-caching protocol of the paper's
// Figure 1/2.
package pagecache

import (
	"slices"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/fsmodel"
	"doubledecker/internal/ilist"
)

// PageHitCost is the CPU cost of serving one page from the page cache.
const PageHitCost = 700 * time.Nanosecond

// dirtyRatioDivisor caps the dirty-page backlog at 1/this of VM memory;
// writers exceeding it are throttled into foreground writeback, as the
// kernel's dirty_ratio mechanism does. Without this, writers outrun the
// disk for free and starve every reader behind the unbounded async queue.
const dirtyRatioDivisor = 10

// page is one resident page-cache page.
type page struct {
	inode   uint64
	block   int64
	diskOff int64
	g       *cgroup.Group
	touched time.Duration

	lru    ilist.Elem[page] // position in the group LRU; the free-list link once dropped
	dirtyQ ilist.Elem[page] // position in the group's dirty FIFO: linked is what dirty means
}

func (p *page) dirty() bool { return p.dirtyQ.Linked() }

// IOStats aggregates one group's page cache activity.
type IOStats struct {
	Hits       int64 // page cache hits
	Misses     int64 // page cache misses (any source)
	DiskReads  int64 // blocks read from the virtual disk
	DiskWrites int64 // blocks written back
	CCHits     int64 // misses served by the second-chance cache
	// DeadlineFallbacks counts misses caused by a second-chance probe
	// blowing its latency budget: the transport failed the get to a miss
	// and the read fell back to disk instead of blocking past budget.
	DeadlineFallbacks int64
}

// Cache is one VM's page cache.
type Cache struct {
	root  *cgroup.Root
	front *cleancache.Front // may be nil: no second-chance cache
	disk  blockdev.Device

	pages map[uint64]map[int64]*page // inode → block → page
	lrus  map[*cgroup.Group]*ilist.List[page]
	// dirty pages are tracked per group (as the kernel's per-bdi/task
	// dirty accounting does) so one container's write flood throttles
	// only itself.
	dirty      map[*cgroup.Group]*ilist.List[page]
	dirtyTotal int
	stats      map[*cgroup.Group]*IOStats

	// free holds dropped page structs for insert to reuse. A dropped
	// page keeps its fields until then, so a writeback run collected
	// before a drop stays readable up to the next insert. spareBlocks
	// holds the emptied per-inode maps of files with no resident page.
	free        ilist.List[page]
	spareBlocks []map[int64]*page
	// Scratch buffers, each owned by one non-reentrant path: the handles
	// of the miss-run window in flight, the writeback run being cleaned,
	// the dirty blocks of the file being fsynced.
	window      []cleancache.PendingRead
	run         []*page
	fsyncBlocks []int64

	// accessHook, when set, observes every read access (hit or miss) —
	// the feed for MRC/WSS estimators driving adaptive policies.
	accessHook func(g *cgroup.Group, inode uint64, block int64)

	// readWindow (≥ 1) is the number of in-flight second-chance probes
	// Read keeps outstanding across a miss-run (Front.GetAsync handles).
	readWindow int
}

var _ cgroup.FileReclaimer = (*Cache)(nil)

// New wires a page cache to its VM's memory controller, second-chance
// front (nil to disable) and virtual disk. It installs itself as the
// root's file reclaimer.
func New(root *cgroup.Root, front *cleancache.Front, disk blockdev.Device) *Cache {
	c := &Cache{
		root:  root,
		front: front,
		disk:  disk,
		pages: make(map[uint64]map[int64]*page),
		lrus:  make(map[*cgroup.Group]*ilist.List[page]),
		dirty: make(map[*cgroup.Group]*ilist.List[page]),
		stats: make(map[*cgroup.Group]*IOStats),
	}
	c.SetReadWindow(1)
	root.SetReclaimer(c)
	return c
}

// SetAccessHook installs an observer for read accesses. Pass nil to
// remove it.
func (c *Cache) SetAccessHook(fn func(g *cgroup.Group, inode uint64, block int64)) {
	c.accessHook = fn
}

// SetReadWindow sets how many second-chance probes Read keeps in flight
// across a miss-run; values below 1 select 1, one probe outstanding at a
// time. A miss-run issues up to a window of GetAsync handles up front —
// overlapping the hypercall crossings with the run scan and consuming
// the transport's readahead staging buffer — and resolves them in access
// order. Window 1 over a transport without async gets is the
// pre-pipeline baseline: each probe pays its own crossing and is
// answered before the next is issued.
func (c *Cache) SetReadWindow(n int) {
	if n < 1 {
		n = 1
	}
	c.readWindow = n
	c.window = make([]cleancache.PendingRead, 0, n)
}

// Stats returns the accumulated counters for g.
func (c *Cache) Stats(g *cgroup.Group) IOStats {
	if s, ok := c.stats[g]; ok {
		return *s
	}
	return IOStats{}
}

func (c *Cache) statsFor(g *cgroup.Group) *IOStats {
	s, ok := c.stats[g]
	if !ok {
		s = &IOStats{}
		c.stats[g] = s
	}
	return s
}

func (c *Cache) lruFor(g *cgroup.Group) *ilist.List[page] {
	l, ok := c.lrus[g]
	if !ok {
		l = new(ilist.List[page])
		c.lrus[g] = l
	}
	return l
}

func (c *Cache) dirtyFor(g *cgroup.Group) *ilist.List[page] {
	l, ok := c.dirty[g]
	if !ok {
		l = new(ilist.List[page])
		c.dirty[g] = l
	}
	return l
}

func (c *Cache) markDirty(p *page) {
	c.dirtyFor(p.g).PushBack(&p.dirtyQ, p)
	c.dirtyTotal++
}

// markClean takes a page off its group's dirty FIFO, if it is on it.
func (c *Cache) markClean(p *page) {
	if p.dirty() {
		c.dirtyFor(p.g).Remove(&p.dirtyQ)
		c.dirtyTotal--
	}
}

func (c *Cache) lookup(inode uint64, block int64) *page {
	blocks, ok := c.pages[inode]
	if !ok {
		return nil
	}
	return blocks[block]
}

// insert adds a page for g, making room under the cgroup and VM limits
// first. Returns the reclaim latency incurred.
func (c *Cache) insert(now time.Duration, g *cgroup.Group, inode uint64, block, diskOff int64, dirty bool) (*page, time.Duration) {
	lat := g.EnsureRoom(now, 1)
	p := c.free.PopFront()
	if p == nil {
		p = new(page)
	}
	*p = page{inode: inode, block: block, diskOff: diskOff, g: g, touched: now + lat}
	blocks, ok := c.pages[inode]
	if !ok {
		if n := len(c.spareBlocks); n > 0 {
			blocks, c.spareBlocks = c.spareBlocks[n-1], c.spareBlocks[:n-1]
		} else {
			blocks = make(map[int64]*page)
		}
		c.pages[inode] = blocks
	}
	blocks[block] = p
	c.lruFor(g).PushFront(&p.lru, p)
	if dirty {
		c.markDirty(p)
	}
	g.ChargeFile(1)
	return p, lat
}

// touch refreshes a page's LRU position.
func (c *Cache) touch(now time.Duration, p *page) {
	p.touched = now
	c.lruFor(p.g).MoveToFront(&p.lru)
}

// drop removes a page from all structures without writeback and keeps
// the struct for reuse.
func (c *Cache) drop(p *page) {
	blocks := c.pages[p.inode]
	delete(blocks, p.block)
	if len(blocks) == 0 {
		delete(c.pages, p.inode)
		c.spareBlocks = append(c.spareBlocks, blocks)
	}
	c.lruFor(p.g).Remove(&p.lru)
	c.markClean(p)
	p.g.UnchargeFile(1)
	c.free.PushFront(&p.lru, p)
}

// Read serves n blocks of f starting at start on behalf of g, returning
// the total latency: page cache hits at memory cost, second-chance hits at
// hypercall+store cost, the rest from the virtual disk.
func (c *Cache) Read(now time.Duration, g *cgroup.Group, f *fsmodel.File, start, n int64) time.Duration {
	st := c.statsFor(g)
	var lat time.Duration
	end := start + n
	if end > f.Blocks {
		end = f.Blocks
	}
	for b := start; b < end; b++ {
		at := now + lat
		if c.accessHook != nil {
			c.accessHook(g, uint64(f.Inode), b)
		}
		if p := c.lookup(uint64(f.Inode), b); p != nil {
			c.touch(at, p)
			lat += PageHitCost
			st.Hits++
			continue
		}
		next, ml := c.readMissRun(at, g, f, b, end)
		lat += ml
		b = next - 1
	}
	return lat
}

// readMissRun serves the miss-run starting at block b — every
// non-resident block until the first resident page or the request end —
// through the async read contract: it issues up to readWindow
// Front.GetAsync probes at a time — the submissions overlap their
// hypercall crossings and feed the sequential-stream detector before any
// handle is awaited, so the transport's readahead staging runs ahead of
// consumption — then resolves the handles in access order. Second-chance
// hits are inserted as they resolve; contiguous miss verdicts coalesce
// into single disk run reads, spanning window boundaries (the run is
// flushed only at a second-chance hit, a resident page, or the end of
// the request), so one seek serves the whole run whatever the window.
// Without a front every probe is a miss and the run is one disk read.
// Returns the first block not consumed and the latency charged.
func (c *Cache) readMissRun(base time.Duration, g *cgroup.Group, f *fsmodel.File, b, end int64) (int64, time.Duration) {
	st := c.statsFor(g)
	inode := uint64(f.Inode)
	var (
		lat              time.Duration
		runStart, runLen int64
	)
	flushRun := func() {
		if runLen == 0 {
			return
		}
		// Guest virtual-disk errors are outside the cleancache failure
		// model (the guest would retry or surface EIO to the app); the
		// simulation charges the latency and carries on.
		dl, _ := c.disk.Read(base+lat, f.BlockOffset(runStart), runLen*fsmodel.BlockSize) // ddlint:err-ok guest disk errors are outside the cleancache failure model
		lat += dl
		st.DiskReads += runLen
		for rb := runStart; rb < runStart+runLen; rb++ {
			_, il := c.insert(base+lat, g, inode, rb, f.BlockOffset(rb), false)
			lat += il + PageHitCost
		}
		runLen = 0
	}
	wb := b
	for wb < end && c.lookup(inode, wb) == nil {
		we := wb
		for we < end && we-wb < int64(c.readWindow) && c.lookup(inode, we) == nil {
			we++
		}
		// The window is fully awaited below before the next one is
		// issued, so its handles live in the cache's scratch buffer.
		handles := c.window[:0]
		for pb := wb; pb < we; pb++ {
			if c.accessHook != nil && pb > b {
				c.accessHook(g, inode, pb)
			}
			if c.front != nil {
				pr, sl := c.front.GetAsync(base+lat, g, inode, pb)
				lat += sl
				handles = append(handles, pr)
			}
		}
		st.Misses += we - wb
		for pb := wb; pb < we; pb++ {
			hit := false
			var pr *cleancache.PendingRead // stays nil without a front
			if c.front != nil {
				pr = &handles[pb-wb]
				var wl time.Duration
				hit, wl = c.front.AwaitRead(base+lat, pr)
				lat += wl
			}
			if !hit {
				if pr != nil && pr.Expired() {
					st.DeadlineFallbacks++
				}
				if runLen == 0 {
					runStart = pb
				}
				runLen++
				continue
			}
			flushRun()
			st.CCHits++
			_, il := c.insert(base+lat, g, inode, pb, f.BlockOffset(pb), false)
			lat += il + PageHitCost
		}
		wb = we
	}
	flushRun()
	return wb, lat
}

// Write dirties n blocks of f starting at start (whole-block writes, no
// read-modify-write). Stale second-chance copies are invalidated.
func (c *Cache) Write(now time.Duration, g *cgroup.Group, f *fsmodel.File, start, n int64) time.Duration {
	st := c.statsFor(g)
	lat := c.throttleDirty(now, g)
	end := start + n
	if end > f.Blocks {
		end = f.Blocks
	}
	for b := start; b < end; b++ {
		at := now + lat
		if p := c.lookup(uint64(f.Inode), b); p != nil {
			c.touch(at, p)
			if !p.dirty() {
				c.markDirty(p)
			}
			lat += PageHitCost
			st.Hits++
			continue
		}
		st.Misses++
		// A stale copy may live in the second-chance cache; invalidate.
		if c.front != nil {
			lat += c.front.FlushPage(at, g, uint64(f.Inode), b)
		}
		_, il := c.insert(now+lat, g, uint64(f.Inode), b, f.BlockOffset(b), true)
		lat += il + PageHitCost
	}
	return lat
}

// Fsync synchronously writes back every dirty page of f, coalescing
// contiguous runs into single disk writes.
func (c *Cache) Fsync(now time.Duration, g *cgroup.Group, f *fsmodel.File) time.Duration {
	blocks, ok := c.pages[uint64(f.Inode)]
	if !ok {
		return 0
	}
	// Collect dirty blocks in ascending order for run coalescing.
	dirtyBlocks := c.fsyncBlocks[:0]
	for b, p := range blocks {
		if p.dirty() {
			dirtyBlocks = append(dirtyBlocks, b)
		}
	}
	c.fsyncBlocks = dirtyBlocks
	if len(dirtyBlocks) == 0 {
		return 0
	}
	slices.Sort(dirtyBlocks)
	st := c.statsFor(g)
	var lat time.Duration
	runStart := dirtyBlocks[0]
	runLen := int64(1)
	flushRun := func(startBlock, length int64) {
		wl, _ := c.disk.Write(now+lat, f.BlockOffset(startBlock), length*fsmodel.BlockSize) // ddlint:err-ok guest disk errors are outside the cleancache failure model
		lat += wl
		st.DiskWrites += length
	}
	for _, b := range dirtyBlocks[1:] {
		if b == runStart+runLen {
			runLen++
			continue
		}
		flushRun(runStart, runLen)
		runStart, runLen = b, 1
	}
	flushRun(runStart, runLen)
	for _, b := range dirtyBlocks {
		c.markClean(blocks[b])
	}
	return lat
}

// Invalidate drops all pages of f (file deletion/truncation) without
// writeback and flushes the file from the second-chance cache.
func (c *Cache) Invalidate(now time.Duration, g *cgroup.Group, f *fsmodel.File) time.Duration {
	for _, p := range c.pages[uint64(f.Inode)] {
		c.drop(p) // deletes from the map being ranged over, which Go permits
	}
	if c.front != nil {
		return c.front.FlushInode(now, g, uint64(f.Inode))
	}
	return 0
}

// dirtyRun collects the oldest dirty page of l plus following entries
// that are disk-contiguous with it (writeback clustering). It does not
// mutate list state; the run lives in the cache's scratch buffer, valid
// until the next dirtyRun or reclaim.
func (c *Cache) dirtyRun(l *ilist.List[page], max int) []*page {
	first := l.Front()
	if first == nil {
		return nil
	}
	run := append(c.run[:0], first)
	for q := first.dirtyQ.Next(); q != nil && len(run) < max; q = q.dirtyQ.Next() {
		if q.inode != first.inode ||
			q.diskOff != run[len(run)-1].diskOff+fsmodel.BlockSize {
			break
		}
		run = append(run, q)
	}
	c.run = run
	return run
}

// clean marks a writeback run clean.
func (c *Cache) clean(run []*page) {
	for _, p := range run {
		c.statsFor(p.g).DiskWrites++
		c.markClean(p)
	}
}

// dirtyLimit returns the dirty-page threshold for this VM.
func (c *Cache) dirtyLimit() int {
	limit := int(c.root.LimitPages() / dirtyRatioDivisor)
	if limit < 256 {
		limit = 256
	}
	return limit
}

// throttleDirty blocks a writer in foreground writeback of its own dirty
// pages until its backlog is back under its share of the threshold,
// returning the stall time. Other groups' dirt never stalls this writer.
func (c *Cache) throttleDirty(now time.Duration, g *cgroup.Group) time.Duration {
	limit := c.dirtyLimit() / 2
	var lat time.Duration
	l := c.dirty[g]
	for l != nil && l.Len() > limit {
		run := c.dirtyRun(l, 256)
		if len(run) == 0 {
			break
		}
		wl, _ := c.disk.Write(now+lat, run[0].diskOff, int64(len(run))*fsmodel.BlockSize) // ddlint:err-ok guest disk errors are outside the cleancache failure model
		lat += wl
		c.clean(run)
	}
	return lat
}

// FlushDirty writes back up to max dirty pages (oldest first),
// asynchronously — the background flusher thread. Contiguous dirty runs
// (files written in order dirty adjacent pages back-to-back) are issued as
// single device writes, as the kernel's writeback clustering does.
// Returns pages cleaned.
func (c *Cache) FlushDirty(now time.Duration, max int) int {
	n := 0
	// Drain every group each round so one container's write flood cannot
	// starve another's few dirty pages (which would otherwise stall that
	// container in reclaim-time writeback). Each round splits the budget
	// across the groups that have dirt.
	for n < max && c.dirtyTotal > 0 {
		dirtyGroups := 0
		for _, l := range c.dirty {
			if l.Len() > 0 {
				dirtyGroups++
			}
		}
		if dirtyGroups == 0 {
			break
		}
		quota := (max - n) / dirtyGroups
		if quota < 1 {
			quota = 1
		}
		progressed := false
		for _, g := range c.root.Groups() {
			l := c.dirty[g]
			if l == nil || l.Len() == 0 || n >= max {
				continue
			}
			limit := quota
			if rem := max - n; limit > rem {
				limit = rem
			}
			run := c.dirtyRun(l, limit)
			if len(run) == 0 {
				continue
			}
			_ = c.disk.WriteAsync(now, run[0].diskOff, int64(len(run))*fsmodel.BlockSize) // ddlint:err-ok background writeback; errors surface on the next sync write
			c.clean(run)
			n += len(run)
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return n
}

// DirtyPages reports the number of dirty pages pending writeback.
func (c *Cache) DirtyPages() int { return c.dirtyTotal }

// Resident reports whether a block is currently in the page cache,
// without touching LRU state — an inspection hook for tests and tooling.
func (c *Cache) Resident(inode uint64, block int64) bool {
	return c.lookup(inode, block) != nil
}

// TotalPages reports resident file pages across all groups.
func (c *Cache) TotalPages() int64 {
	var n int64
	for _, l := range c.lrus {
		n += int64(l.Len())
	}
	return n
}

// --- cgroup.FileReclaimer ---------------------------------------------------

// ReclaimFile implements cgroup.FileReclaimer: it evicts up to want of
// g's coldest file pages. Dirty pages are written back synchronously
// first (direct reclaim stalls on dirty pages, which keeps writers from
// outrunning the disk through the reclaim path); clean pages are offered
// to the second-chance cache (the paper's put on clean evict).
func (c *Cache) ReclaimFile(now time.Duration, g *cgroup.Group, want int64) (int64, time.Duration) {
	l, ok := c.lrus[g]
	if !ok {
		return 0, 0
	}
	var (
		freed int64
		lat   time.Duration
	)
	for freed < want {
		p := l.Back()
		if p == nil {
			break
		}
		if p.dirty() {
			// Cluster the writeback: walk up the LRU for contiguous
			// dirty pages of the same file (they aged together) and
			// clean them with one device write.
			run := append(c.run[:0], p)
			for q := p.lru.Prev(); q != nil; q = q.lru.Prev() {
				if !q.dirty() || q.inode != p.inode ||
					q.diskOff != run[len(run)-1].diskOff+fsmodel.BlockSize {
					break
				}
				run = append(run, q)
			}
			c.run = run
			wl, _ := c.disk.Write(now+lat, p.diskOff, int64(len(run))*fsmodel.BlockSize) // ddlint:err-ok guest disk errors are outside the cleancache failure model
			lat += wl
			c.clean(run)
		}
		if c.front != nil {
			_, pl := c.front.Put(now+lat, g, p.inode, p.block)
			lat += pl
		}
		c.drop(p)
		freed++
	}
	return freed, lat
}

// OldestFilePage implements cgroup.FileReclaimer.
func (c *Cache) OldestFilePage(g *cgroup.Group) (time.Duration, bool) {
	l, ok := c.lrus[g]
	if !ok || l.Len() == 0 {
		return 0, false
	}
	return l.Back().touched, true
}
