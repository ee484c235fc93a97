package ddcache

import (
	"testing"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
)

func TestDynamicWeightChangeShiftsVictims(t *testing.T) {
	m := newMgr(ModeDD, 8*mib, 0)
	m.RegisterVM(1, 100)
	pa, _ := m.CreatePool(0, 1, "a", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	pb, _ := m.CreatePool(0, 1, "b", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	fillPool(t, m, pa, 1, 1024)
	fillPool(t, m, pb, 2, 1024)
	// Demote a to weight 10: its entitlement collapses, so continued
	// pressure from b must now evict a.
	m.SetSpec(0, 1, pa, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 10})
	evA := m.PoolStats(1, pa).Evictions
	fillPool(t, m, pb, 3, 512)
	if got := m.PoolStats(1, pa).Evictions; got <= evA {
		t.Fatal("demoted pool not victimized after weight change")
	}
}

func TestGlobalFIFOAcrossVMs(t *testing.T) {
	m := newMgr(ModeGlobal, 4*mib, 0)
	m.RegisterVM(1, 100)
	m.RegisterVM(2, 100)
	p1, _ := m.CreatePool(0, 1, "vm1c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	p2, _ := m.CreatePool(0, 2, "vm2c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	fillPool(t, m, p1, 1, 512) // VM1's objects are oldest
	for i := 0; i < 768; i++ {
		m.Put(0, 2, key(p2, 1, int64(i)))
	}
	if s := m.PoolStats(1, p1); s.Evictions == 0 {
		t.Fatal("global FIFO should evict the oldest VM's objects")
	}
	if s := m.PoolStats(2, p2); s.Evictions != 0 {
		t.Fatal("newest objects evicted under global FIFO")
	}
}

func TestHybridPoolStatsEntitlement(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 64*mib)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "hy", cgroup.HCacheSpec{Store: cgroup.StoreHybrid, Weight: 100})
	s := m.PoolStats(1, p)
	// Hybrid pools are entitled to both stores.
	if s.EntitlementBytes != 4*mib+64*mib {
		t.Fatalf("hybrid entitlement = %d", s.EntitlementBytes)
	}
}

func TestContainsIsNonMutating(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 0)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	k := key(p, 1, 0)
	if m.Contains(k) {
		t.Fatal("empty cache contains key")
	}
	m.Put(0, 1, k)
	if !m.Contains(k) {
		t.Fatal("stored key not found")
	}
	if !m.Contains(k) {
		t.Fatal("Contains consumed the object")
	}
	if hit, _ := m.Get(0, 1, k); !hit {
		t.Fatal("Get after Contains missed")
	}
	if m.Contains(k) {
		t.Fatal("exclusive Get left the object behind")
	}
}

func TestFlushPageReleasesExactly(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 0)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	m.Put(0, 1, key(p, 1, 0))
	m.Put(0, 1, key(p, 1, 1))
	m.FlushPage(0, 1, key(p, 1, 0))
	if got := m.PoolUsedBytes(p, cgroup.StoreMem); got != ObjectSize {
		t.Fatalf("used = %d after flushing one of two", got)
	}
	m.FlushPage(0, 1, key(p, 9, 9)) // absent: no-op
	if got := m.PoolUsedBytes(p, cgroup.StoreMem); got != ObjectSize {
		t.Fatalf("flushing absent key changed accounting: %d", got)
	}
}

func TestSSDCapacityShrinkEvicts(t *testing.T) {
	m := newMgr(ModeDD, 0, 8*mib)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})
	fillPool(t, m, p, 1, 2048)
	m.SetCapacity(0, cgroup.StoreSSD, 2*mib)
	if used := m.StoreUsedBytes(cgroup.StoreSSD); used > 2*mib {
		t.Fatalf("SSD used %d after shrink", used)
	}
}

func TestOperationsOnUnknownPool(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 0)
	m.RegisterVM(1, 100)
	ghost := cleancache.PoolID(999)
	if ok, _ := m.Put(0, 1, key(ghost, 1, 0)); ok {
		t.Fatal("put to unknown pool accepted")
	}
	if hit, _ := m.Get(0, 1, key(ghost, 1, 0)); hit {
		t.Fatal("get from unknown pool hit")
	}
	if m.FlushInode(0, 1, ghost, 1) != 0 {
		t.Fatal("flush of unknown pool cost time")
	}
	if s := m.PoolStats(1, ghost); s != (cleancache.PoolStats{}) {
		t.Fatal("unknown pool has stats")
	}
	m.DestroyPool(0, 1, ghost) // must not panic
	m.SetSpec(0, 1, ghost, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 1})
}

func TestMigrateToUnknownPoolIsNoop(t *testing.T) {
	m := newMgr(ModeDD, 4*mib, 0)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	m.Put(0, 1, key(p, 5, 0))
	m.MigrateInode(0, 1, p, cleancache.PoolID(999), 5)
	if !m.Contains(key(p, 5, 0)) {
		t.Fatal("migrate to unknown pool lost the object")
	}
}

func TestVMWeightChangeRebalances(t *testing.T) {
	m := newMgr(ModeDD, 8*mib, 0)
	m.RegisterVM(1, 50)
	m.RegisterVM(2, 50)
	p1, _ := m.CreatePool(0, 1, "a", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	p2, _ := m.CreatePool(0, 2, "b", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	e1 := m.PoolStats(1, p1).EntitlementBytes
	m.SetVMWeight(1, 75)
	m.SetVMWeight(2, 25)
	if got := m.PoolStats(1, p1).EntitlementBytes; got <= e1 {
		t.Fatalf("entitlement did not grow after weight raise: %d → %d", e1, got)
	}
	if got := m.PoolStats(2, p2).EntitlementBytes; got >= e1 {
		t.Fatalf("entitlement did not shrink after weight cut: %d", got)
	}
}
