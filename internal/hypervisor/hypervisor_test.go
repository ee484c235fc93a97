package hypervisor

import (
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/sim"
)

const mib = 1 << 20

func newHost(t *testing.T) (*sim.Engine, *Host) {
	t.Helper()
	engine := sim.New(1)
	host := New(engine, Config{
		Mode:          ddcache.ModeDD,
		MemCacheBytes: 64 * mib,
		SSDCacheBytes: 1 << 30,
	})
	return engine, host
}

func TestNewVMWiresCaching(t *testing.T) {
	engine, host := newHost(t)
	vm := host.NewVM(1, 128*mib, 100)
	if vm.Front() == nil {
		t.Fatal("VM has no cleancache front")
	}
	c := vm.NewContainer("c", 8*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	f := vm.Allocator().Alloc(4096)
	c.Read(engine.Now(), f, 0, f.Blocks)
	if host.Manager().StoreUsedBytes(cgroup.StoreMem) == 0 {
		t.Fatal("host cache untouched by guest IO")
	}
}

func TestDisableCaching(t *testing.T) {
	engine := sim.New(1)
	host := New(engine, Config{MemCacheBytes: 64 * mib, DisableCaching: true})
	vm := host.NewVM(1, 128*mib, 100)
	if vm.Front() != nil {
		t.Fatal("caching-disabled host still wired a front")
	}
}

func TestDestroyVM(t *testing.T) {
	engine, host := newHost(t)
	vm := host.NewVM(1, 128*mib, 100)
	c := vm.NewContainer("c", 8*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	f := vm.Allocator().Alloc(4096)
	c.Read(engine.Now(), f, 0, f.Blocks)
	host.DestroyVM(vm)
	if got := host.Manager().StoreUsedBytes(cgroup.StoreMem); got != 0 {
		t.Fatalf("destroyed VM leaks %d cache bytes", got)
	}
	if len(host.VMs()) != 0 {
		t.Fatal("VM list not updated")
	}
}

func TestMultiVMPartitioning(t *testing.T) {
	engine, host := newHost(t)
	vm1 := host.NewVM(1, 128*mib, 33)
	vm2 := host.NewVM(2, 128*mib, 67)
	c1 := vm1.NewContainer("a", 8*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	c2 := vm2.NewContainer("b", 8*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	// Both VMs stream working sets far larger than the 64 MiB store.
	f1 := vm1.Allocator().Alloc(32768)
	f2 := vm2.Allocator().Alloc(32768)
	for pass := 0; pass < 2; pass++ {
		c1.Read(engine.Now(), f1, 0, f1.Blocks)
		c2.Read(engine.Now(), f2, 0, f2.Blocks)
	}
	u1 := host.Manager().VMUsedBytes(1, cgroup.StoreMem)
	u2 := host.Manager().VMUsedBytes(2, cgroup.StoreMem)
	if u1 == 0 || u2 == 0 {
		t.Fatalf("VM usage: %d/%d", u1, u2)
	}
	// Weighted split should favour VM2 roughly 2:1 at steady contention.
	if !(float64(u2) > 1.3*float64(u1)) {
		t.Fatalf("weighted split not visible: vm1=%d vm2=%d", u1, u2)
	}
}

func TestSetWeightsAndCapacityAtRuntime(t *testing.T) {
	engine, host := newHost(t)
	host.NewVM(1, 128*mib, 100)
	host.SetVMWeight(1, 50)
	host.SetCacheBytes(cgroup.StoreMem, 32*mib)
	host.SetCacheBytes(cgroup.StoreSSD, 2<<30)
	if host.Engine() != engine {
		t.Fatal("Engine accessor broken")
	}
	if err := host.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if engine.Now() != time.Second {
		t.Fatalf("clock = %v", engine.Now())
	}
}

func TestVMDiskFactory(t *testing.T) {
	engine := sim.New(1)
	var made []cleancache.VMID
	host := New(engine, Config{
		MemCacheBytes: 64 * mib,
		VMDiskFactory: func(id cleancache.VMID) blockdev.Device {
			made = append(made, id)
			return blockdev.NewArrayHDD("custom")
		},
	})
	vm := host.NewVM(7, 128*mib, 100)
	if len(made) != 1 || made[0] != 7 {
		t.Fatalf("factory calls: %v", made)
	}
	if vm.Disk().Name() != "custom" {
		t.Fatalf("disk = %q", vm.Disk().Name())
	}
}
