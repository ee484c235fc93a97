package guest

import (
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/sim"
	"doubledecker/internal/store"
	"doubledecker/internal/trace"
)

const mib = 1 << 20

// rig wires a VM to a real DoubleDecker manager over a batched hypercall
// transport, the production wiring.
func rig(t *testing.T, memCache int64) (*sim.Engine, *ddcache.Manager, *VM) {
	t.Helper()
	engine := sim.New(1)
	mgr := ddcache.NewManager(ddcache.Config{
		Mode: ddcache.ModeDD,
		Mem:  store.NewMem(blockdev.NewRAM("hostram"), memCache),
	})
	mgr.RegisterVM(1, 100)
	front := cleancache.NewFront(1, hypercall.NewTransport(mgr, hypercall.Options{}))
	vm := New(engine, Config{ID: 1, MemBytes: 256 * mib}, front)
	return engine, mgr, vm
}

func TestNewContainerGetsPool(t *testing.T) {
	_, _, vm := rig(t, 64*mib)
	c := vm.NewContainer("c1", 32*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	if c.Group().PoolID() == 0 {
		t.Fatal("container has no hypervisor cache pool")
	}
	if len(vm.Containers()) != 1 {
		t.Fatalf("Containers = %d", len(vm.Containers()))
	}
}

func TestContainerIORoundTrip(t *testing.T) {
	engine, _, vm := rig(t, 64*mib)
	c := vm.NewContainer("c1", 8*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	f := vm.Allocator().Alloc(4096) // 16 MiB file > 8 MiB container
	lat := c.Read(engine.Now(), f, 0, f.Blocks)
	if lat <= 0 {
		t.Fatal("cold read was free")
	}
	// Second pass: early blocks were evicted into the hypervisor cache.
	lat2 := c.Read(engine.Now()+time.Second, f, 0, f.Blocks)
	if lat2 >= lat {
		t.Fatalf("second pass (%v) not faster than cold pass (%v)", lat2, lat)
	}
	cs := c.CacheStats()
	if cs.Puts == 0 || cs.GetHits == 0 {
		t.Fatalf("second-chance loop inactive: %+v", cs)
	}
}

func TestDestroyContainerDropsPoolAndPages(t *testing.T) {
	engine, mgr, vm := rig(t, 64*mib)
	c := vm.NewContainer("c1", 8*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	f := vm.Allocator().Alloc(4096)
	c.Read(engine.Now(), f, 0, f.Blocks)
	pool := cleancache.PoolID(c.Group().PoolID())
	if mgr.PoolTotalBytes(pool) == 0 {
		t.Fatal("setup: pool empty")
	}
	vm.DestroyContainer(c)
	if mgr.PoolTotalBytes(pool) != 0 {
		t.Fatal("pool bytes survive container destroy")
	}
	if len(vm.Containers()) != 0 {
		t.Fatal("container list not updated")
	}
	if vm.PageCache().TotalPages() != 0 {
		t.Fatal("page cache pages survive container destroy")
	}
}

func TestSetSpecPropagates(t *testing.T) {
	engine, mgr, vm := rig(t, 64*mib)
	_ = engine
	c := vm.NewContainer("c1", 8*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	c.SetSpec(cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 40})
	stats := mgr.PoolStats(1, cleancache.PoolID(c.Group().PoolID()))
	// Entitlement reflects the new weight (sole pool → full store anyway);
	// add a second pool to observe the split.
	c2 := vm.NewContainer("c2", 8*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 60})
	stats = mgr.PoolStats(1, cleancache.PoolID(c.Group().PoolID()))
	stats2 := mgr.PoolStats(1, cleancache.PoolID(c2.Group().PoolID()))
	if stats.EntitlementBytes >= stats2.EntitlementBytes {
		t.Fatalf("weights not applied: %d vs %d", stats.EntitlementBytes, stats2.EntitlementBytes)
	}
}

func TestBackgroundFlusherCleans(t *testing.T) {
	engine, _, vm := rig(t, 64*mib)
	c := vm.NewContainer("c1", 64*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	f := vm.Allocator().Alloc(256)
	c.Write(engine.Now(), f, 0, 256)
	if vm.PageCache().DirtyPages() == 0 {
		t.Fatal("setup: no dirty pages")
	}
	if err := engine.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := vm.PageCache().DirtyPages(); got != 0 {
		t.Fatalf("flusher left %d dirty pages after 10s", got)
	}
}

func TestShutdownStopsFlusher(t *testing.T) {
	engine, _, vm := rig(t, 64*mib)
	vm.Shutdown()
	pending := engine.Pending()
	if err := engine.Run(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if engine.Pending() > pending {
		t.Fatal("flusher still scheduling after Shutdown")
	}
}

func TestVMWithoutFront(t *testing.T) {
	engine := sim.New(1)
	vm := New(engine, Config{ID: 1, MemBytes: 128 * mib}, nil)
	c := vm.NewContainer("c1", 16*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	f := vm.Allocator().Alloc(8192)
	c.Read(engine.Now(), f, 0, f.Blocks)
	if cs := c.CacheStats(); cs != (cleancache.PoolStats{}) {
		t.Fatalf("frontless VM reported cache stats: %+v", cs)
	}
	if c.Group().FilePages() > c.Group().LimitPages() {
		t.Fatal("limit not enforced without front")
	}
}

func TestAnonOperations(t *testing.T) {
	engine, _, vm := rig(t, 64*mib)
	c := vm.NewContainer("redis", 16*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	c.GrowAnon(engine.Now(), 8192) // 32 MiB into a 16 MiB container
	if c.Group().AnonResident() > c.Group().LimitPages() {
		t.Fatal("anon resident over limit")
	}
	if c.Group().Stats().SwapOutPages == 0 {
		t.Fatal("oversized anon growth did not swap")
	}
	lat := c.TouchAnon(engine.Now(), 64)
	if lat == 0 {
		t.Fatal("touching a half-swapped working set was free")
	}
}

func TestContainerAccessors(t *testing.T) {
	engine, _, vm := rig(t, 64*mib)
	_ = engine
	c := vm.NewContainer("c1", 16*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	if c.Name() != "c1" || c.VM() != vm {
		t.Fatal("accessors broken")
	}
	c.SetMemLimit(32 * mib)
	if c.Group().LimitPages() != 32*mib/4096 {
		t.Fatalf("SetMemLimit: %d", c.Group().LimitPages())
	}
	if vm.ID() != 1 || vm.Engine() == nil || vm.Root() == nil || vm.Disk() == nil {
		t.Fatal("VM accessors broken")
	}
}

func TestFsyncAndDelete(t *testing.T) {
	engine, mgr, vm := rig(t, 64*mib)
	c := vm.NewContainer("mail", 8*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	f := vm.Allocator().Alloc(16)
	c.Write(engine.Now(), f, 0, 16)
	if lat := c.Fsync(engine.Now(), f); lat < 8*time.Millisecond {
		t.Fatalf("fsync latency %v too low for a disk write", lat)
	}
	// Delete must flush second-chance state too.
	big := vm.Allocator().Alloc(4096)
	c.Read(engine.Now(), big, 0, big.Blocks) // spills
	pool := cleancache.PoolID(c.Group().PoolID())
	before := mgr.PoolUsedBytes(pool, cgroup.StoreMem)
	if before == 0 {
		t.Fatal("setup: nothing spilled before delete")
	}
	c.Delete(engine.Now(), big)
	// All of big's blocks must be flushed; f's few fsynced blocks may
	// legitimately remain cached.
	if hit, _ := vm.Front().Get(engine.Now(), c.Group(), uint64(big.Inode), 0); hit {
		t.Fatal("deleted file block still served by the second-chance cache")
	}
	if after := mgr.PoolUsedBytes(pool, cgroup.StoreMem); after > int64(f.Blocks)*4096 {
		t.Fatalf("delete left %d bytes cached (was %d)", after, before)
	}
}

func TestRecordTrace(t *testing.T) {
	engine, _, vm := rig(t, 64*mib)
	c := vm.NewContainer("traced", 32*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	log := trace.NewLog()
	detach := vm.RecordTrace(log)
	f := vm.Allocator().Alloc(16)
	c.Read(engine.Now(), f, 0, 16)
	if log.Len() != 16 {
		t.Fatalf("recorded %d records, want 16", log.Len())
	}
	rec := log.Records()[0]
	if log.ContainerName(rec.Container) != "traced" || rec.Kind != trace.KindRead {
		t.Fatalf("record = %+v", rec)
	}
	detach()
	c.Read(engine.Now()+time.Second, f, 0, 4)
	if log.Len() != 16 {
		t.Fatal("recorder kept firing after detach")
	}
}
