package ddcache

import (
	"testing"
	"testing/quick"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/store"
)

const mib = 1 << 20

func newMgr(mode Mode, memCap, ssdCap int64) *Manager {
	cfg := Config{Mode: mode}
	if memCap > 0 {
		cfg.Mem = store.NewMem(blockdev.NewRAM("hostram"), memCap)
	}
	if ssdCap > 0 {
		cfg.SSD = store.NewSSD(blockdev.NewSSD("hostssd"), ssdCap)
	}
	return NewManager(cfg)
}

func key(pool cleancache.PoolID, inode uint64, block int64) cleancache.Key {
	return cleancache.Key{Pool: pool, Inode: inode, Block: block}
}

// fillPool puts n objects into pool p using distinct keys from base.
func fillPool(t *testing.T, m *Manager, p cleancache.PoolID, base uint64, n int) int {
	t.Helper()
	stored := 0
	for i := 0; i < n; i++ {
		ok, _ := m.Put(0, 1, key(p, base, int64(i)))
		if ok {
			stored++
		}
	}
	return stored
}

func TestPutGetExclusive(t *testing.T) {
	m := newMgr(ModeDD, 16*mib, 0)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c1", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	if ok, _ := m.Put(0, 1, key(p, 1, 0)); !ok {
		t.Fatal("put rejected")
	}
	hit, lat := m.Get(0, 1, key(p, 1, 0))
	if !hit || lat <= 0 {
		t.Fatalf("get hit=%v lat=%v", hit, lat)
	}
	if hit, _ := m.Get(0, 1, key(p, 1, 0)); hit {
		t.Fatal("exclusive cache returned object twice")
	}
	if m.PoolTotalBytes(p) != 0 {
		t.Fatal("bytes left after exclusive get")
	}
}

func TestInclusiveModeKeepsObjectOnGet(t *testing.T) {
	m := NewManager(Config{
		Mode:      ModeDD,
		Mem:       store.NewMem(blockdev.NewRAM("r"), 16*mib),
		Inclusive: true,
	})
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	m.Put(0, 1, key(p, 1, 0))
	if hit, _ := m.Get(0, 1, key(p, 1, 0)); !hit {
		t.Fatal("get missed")
	}
	// Inclusive: the copy survives the get.
	if hit, _ := m.Get(0, 1, key(p, 1, 0)); !hit {
		t.Fatal("inclusive cache dropped the object on get")
	}
	if got := m.StoreUsedBytes(cgroup.StoreMem); got != ObjectSize {
		t.Fatalf("used = %d", got)
	}
}

func TestCapacityEnforced(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 0)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c1", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	fillPool(t, m, p, 1, 2000) // ~8 MiB offered into 4 MiB
	if used := m.StoreUsedBytes(cgroup.StoreMem); used > 4*mib {
		t.Fatalf("store used %d exceeds capacity", used)
	}
	if m.TotalEvictions() == 0 {
		t.Fatal("no evictions under pressure")
	}
}

func TestResourceConservativeOvershoot(t *testing.T) {
	// Two pools with equal weights; only one active. It may use the whole
	// store (no hard cap at entitlement).
	m := newMgr(ModeDD, 4*mib, 0)
	m.RegisterVM(1, 100)
	p1, _ := m.CreatePool(0, 1, "busy", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	m.CreatePool(0, 1, "idle", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	fillPool(t, m, p1, 1, 1024) // exactly 4 MiB
	if got := m.PoolUsedBytes(p1, cgroup.StoreMem); got != 4*mib {
		t.Fatalf("busy pool used %d, want full store %d", got, 4*mib)
	}
}

func TestWeightedVictimSelection(t *testing.T) {
	// Equal weights, both active: the overuser gets evicted when the
	// second pool starts claiming its share.
	m := newMgr(ModeDD, 4*mib, 0)
	m.RegisterVM(1, 100)
	hog, _ := m.CreatePool(0, 1, "hog", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	meek, _ := m.CreatePool(0, 1, "meek", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	fillPool(t, m, hog, 1, 1024) // hog fills the store
	fillPool(t, m, meek, 2, 256) // meek claims 1 MiB, under its 2 MiB share
	hogStats := m.PoolStats(1, hog)
	meekStats := m.PoolStats(1, meek)
	if hogStats.Evictions == 0 {
		t.Fatal("hog was not victimized")
	}
	if meekStats.Evictions != 0 {
		t.Fatalf("meek suffered %d evictions while under entitlement", meekStats.Evictions)
	}
	if got := m.PoolUsedBytes(meek, cgroup.StoreMem); got != mib {
		t.Fatalf("meek retained %d, want %d", got, mib)
	}
}

func TestGlobalModeNoContainerFairness(t *testing.T) {
	m := newMgr(ModeGlobal, 4*mib, 0)
	m.RegisterVM(1, 100)
	pa, _ := m.CreatePool(0, 1, "a", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	pb, _ := m.CreatePool(0, 1, "b", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	if pa == pb {
		t.Fatal("global mode must still track pools per container for observability")
	}
	// Container a's objects inserted first are evicted first (global
	// FIFO), even though with equal weights container fairness would
	// have protected a's 2 MiB share.
	fillPool(t, m, pa, 1, 512) // a: 2 MiB, oldest
	fillPool(t, m, pb, 2, 768) // b: 3 MiB → displaces a's oldest
	if hit, _ := m.Get(0, 1, key(pa, 1, 0)); hit {
		t.Fatal("global FIFO should have evicted the oldest objects")
	}
	if hit, _ := m.Get(0, 1, key(pb, 2, 767)); !hit {
		t.Fatal("newest object missing")
	}
	sa := m.PoolStats(1, pa)
	if sa.Evictions == 0 {
		t.Fatal("oldest container saw no evictions under global FIFO")
	}
	// In DD mode the same sequence protects container a's share. The
	// store here is tiny relative to the paper's 2 MiB batch, so scale
	// the eviction batch down with it.
	dd := NewManager(Config{
		Mode:            ModeDD,
		Mem:             store.NewMem(blockdev.NewRAM("r"), 4*mib),
		EvictBatchBytes: 64 << 10,
	})
	dd.RegisterVM(1, 100)
	da, _ := dd.CreatePool(0, 1, "a", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	db, _ := dd.CreatePool(0, 1, "b", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	fillPool(t, dd, da, 1, 512)
	fillPool(t, dd, db, 2, 768)
	// Algorithm 1 may take one boundary batch from a (the
	// used+evictionSize test), but a's share stays within a batch of its
	// 2 MiB entitlement rather than draining FIFO-style.
	if got := dd.PoolUsedBytes(da, cgroup.StoreMem); got < 2*mib-(64<<10) {
		t.Fatalf("DD mode should protect a's ~2 MiB share, got %d", got)
	}
}

func TestGlobalModePlacementForcesMemory(t *testing.T) {
	m := newMgr(ModeGlobal, 4*mib, 64*mib)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})
	m.Put(0, 1, key(p, 1, 0))
	if m.PoolUsedBytes(p, cgroup.StoreMem) != ObjectSize {
		t.Fatal("global baseline should place objects in memory")
	}
}

func TestZeroWeightPoolAlwaysVictim(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 0)
	m.RegisterVM(1, 100)
	pz, _ := m.CreatePool(0, 1, "zero", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 0})
	pw, _ := m.CreatePool(0, 1, "weighted", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	fillPool(t, m, pz, 1, 1024) // zero-weight pool fills the store
	fillPool(t, m, pw, 2, 1024) // weighted pool claims everything
	if got := m.PoolStats(1, pw).Evictions; got != 0 {
		t.Fatalf("weighted pool evicted %d times", got)
	}
	if got := m.PoolUsedBytes(pw, cgroup.StoreMem); got != 4*mib {
		t.Fatalf("weighted pool should own the whole store, has %d", got)
	}
}

func TestVMLevelPartitioning(t *testing.T) {
	m := newMgr(ModeDD, 3*mib, 0)
	m.RegisterVM(1, 33)
	m.RegisterVM(2, 67)
	p1, _ := m.CreatePool(0, 1, "vm1c1", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	p2, _ := m.CreatePool(0, 2, "vm2c1", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	// VM1 fills the whole store; then VM2 claims. VM1 is over its ~1 MiB
	// entitlement and must be the eviction victim.
	for i := 0; i < 768; i++ {
		m.Put(0, 1, key(p1, 1, int64(i)))
	}
	for i := 0; i < 400; i++ {
		m.Put(0, 2, key(p2, 1, int64(i)))
	}
	s1 := m.PoolStats(1, p1)
	s2 := m.PoolStats(2, p2)
	if s1.Evictions == 0 {
		t.Fatal("over-entitlement VM1 not victimized")
	}
	if s2.Evictions != 0 {
		t.Fatalf("VM2 evicted %d while under entitlement", s2.Evictions)
	}
	if got := m.VMUsedBytes(2, cgroup.StoreMem); got != 400*ObjectSize {
		t.Fatalf("VM2 usage = %d", got)
	}
}

func TestSSDPoolPlacement(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 64*mib)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "video", cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})
	m.Put(0, 1, key(p, 1, 0))
	if m.PoolUsedBytes(p, cgroup.StoreSSD) != ObjectSize {
		t.Fatal("object not placed on SSD")
	}
	if m.PoolUsedBytes(p, cgroup.StoreMem) != 0 {
		t.Fatal("object leaked into memory store")
	}
}

func TestHybridSpillsToSSD(t *testing.T) {
	m := newMgr(ModeDD, 2*mib, 64*mib)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "hy", cgroup.HCacheSpec{Store: cgroup.StoreHybrid, Weight: 100})
	fillPool(t, m, p, 1, 1024) // 4 MiB into 2 MiB mem entitlement
	memUsed := m.PoolUsedBytes(p, cgroup.StoreMem)
	ssdUsed := m.PoolUsedBytes(p, cgroup.StoreSSD)
	if memUsed != 2*mib {
		t.Fatalf("hybrid mem used %d, want full 2 MiB entitlement", memUsed)
	}
	if ssdUsed != 2*mib {
		t.Fatalf("hybrid ssd spill %d, want 2 MiB", ssdUsed)
	}
}

func TestSetSpecStoreChangeFlushesStranded(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 64*mib)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	fillPool(t, m, p, 1, 100)
	m.SetSpec(0, 1, p, cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})
	if m.PoolUsedBytes(p, cgroup.StoreMem) != 0 {
		t.Fatal("mem objects not flushed after store change")
	}
	if m.StoreUsedBytes(cgroup.StoreMem) != 0 {
		t.Fatal("mem store accounting leaked")
	}
	m.Put(0, 1, key(p, 2, 0))
	if m.PoolUsedBytes(p, cgroup.StoreSSD) != ObjectSize {
		t.Fatal("new puts should land on SSD")
	}
}

func TestDestroyPoolReleases(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 0)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	fillPool(t, m, p, 1, 100)
	m.DestroyPool(0, 1, p)
	if m.StoreUsedBytes(cgroup.StoreMem) != 0 {
		t.Fatal("destroy did not release store bytes")
	}
	if ok, _ := m.Put(0, 1, key(p, 1, 0)); ok {
		t.Fatal("put into destroyed pool succeeded")
	}
}

func TestUnregisterVMDropsPools(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 0)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	fillPool(t, m, p, 1, 10)
	m.UnregisterVM(1)
	if m.StoreUsedBytes(cgroup.StoreMem) != 0 {
		t.Fatal("unregister leaked store bytes")
	}
}

func TestMigrateInode(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 0)
	m.RegisterVM(1, 100)
	pa, _ := m.CreatePool(0, 1, "a", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	pb, _ := m.CreatePool(0, 1, "b", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	m.Put(0, 1, key(pa, 9, 0))
	m.Put(0, 1, key(pa, 9, 1))
	m.MigrateInode(0, 1, pa, pb, 9)
	if m.PoolUsedBytes(pa, cgroup.StoreMem) != 0 {
		t.Fatal("source pool retained bytes")
	}
	if hit, _ := m.Get(0, 1, key(pb, 9, 1)); !hit {
		t.Fatal("migrated block not found under target pool")
	}
}

func TestShrinkCapacityEvictsDown(t *testing.T) {
	m := newMgr(ModeDD, 8*mib, 0)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	fillPool(t, m, p, 1, 2048) // 8 MiB
	m.SetCapacity(0, cgroup.StoreMem, 2*mib)
	if used := m.StoreUsedBytes(cgroup.StoreMem); used > 2*mib {
		t.Fatalf("used %d after shrink to 2 MiB", used)
	}
}

func TestPoolStatsCounters(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 0)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	m.Put(0, 1, key(p, 1, 0))
	m.Get(0, 1, key(p, 1, 0)) // hit
	m.Get(0, 1, key(p, 1, 1)) // miss
	s := m.PoolStats(1, p)
	if s.Puts != 1 || s.Gets != 2 || s.GetHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.EntitlementBytes != 4*mib {
		t.Fatalf("entitlement = %d, want full store", s.EntitlementBytes)
	}
}

func TestPutWithoutBackendRejected(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 0) // no SSD store
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})
	if ok, _ := m.Put(0, 1, key(p, 1, 0)); ok {
		t.Fatal("put to missing backend should be rejected")
	}
	if s := m.PoolStats(1, p); s.PutRejects != 1 {
		t.Fatalf("PutRejects = %d", s.PutRejects)
	}
}

func TestAutoRegisterUnknownVM(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 0)
	p, _ := m.CreatePool(0, 7, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	if ok, _ := m.Put(0, 7, key(p, 1, 0)); !ok {
		t.Fatal("auto-registered VM cannot use cache")
	}
}

func TestModeString(t *testing.T) {
	if ModeDD.String() != "doubledecker" || ModeGlobal.String() != "global" {
		t.Fatal("Mode.String broken")
	}
}

// Property: backend used bytes always equals the sum over pools, and
// never exceeds capacity, across random operation sequences.
func TestPropertyAccountingInvariant(t *testing.T) {
	prop := func(ops []struct {
		Pool  bool
		Inode uint8
		Block uint8
		Op    uint8
	}) bool {
		m := newMgr(ModeDD, 1*mib, 0)
		m.RegisterVM(1, 100)
		p1, _ := m.CreatePool(0, 1, "a", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 70})
		p2, _ := m.CreatePool(0, 1, "b", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 30})
		for _, op := range ops {
			p := p1
			if op.Pool {
				p = p2
			}
			k := key(p, uint64(op.Inode), int64(op.Block))
			switch op.Op % 4 {
			case 0, 1:
				m.Put(0, 1, k)
			case 2:
				m.Get(0, 1, k)
			case 3:
				m.FlushPage(0, 1, k)
			}
			sum := m.PoolUsedBytes(p1, cgroup.StoreMem) + m.PoolUsedBytes(p2, cgroup.StoreMem)
			if sum != m.StoreUsedBytes(cgroup.StoreMem) {
				return false
			}
			if m.StoreUsedBytes(cgroup.StoreMem) > 1*mib {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadAheadCountsSeparateFromGets(t *testing.T) {
	// Review regression: readahead extractions must not pollute the
	// Gets/GetHits counters (a staged block may never reach the guest),
	// and the terminating miss probe is accounted too.
	m := newMgr(ModeDD, 16*mib, 0)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c1", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	for b := int64(0); b < 4; b++ {
		if ok, _ := m.Put(0, 1, key(p, 1, b)); !ok {
			t.Fatalf("put %d rejected", b)
		}
	}
	// Window of 8 over a 4-block run: 4 extractions + the miss probe.
	n, _ := m.ReadAhead(0, 1, key(p, 1, 0), 8)
	if n != 4 {
		t.Fatalf("extracted %d blocks, want 4", n)
	}
	s := m.PoolStats(1, p)
	if s.ReadAheadGets != 5 || s.ReadAheadHits != 4 {
		t.Fatalf("ReadAheadGets = %d, ReadAheadHits = %d, want 5 and 4", s.ReadAheadGets, s.ReadAheadHits)
	}
	if s.Gets != 0 || s.GetHits != 0 {
		t.Fatalf("readahead polluted get counters: Gets = %d, GetHits = %d", s.Gets, s.GetHits)
	}
	// A real get is counted where it always was.
	if hit, _ := m.Get(0, 1, key(p, 1, 0)); hit {
		t.Fatal("exclusive readahead left the block in the pool")
	}
	s = m.PoolStats(1, p)
	if s.Gets != 1 || s.GetHits != 0 {
		t.Fatalf("after miss: Gets = %d, GetHits = %d, want 1 and 0", s.Gets, s.GetHits)
	}
}
