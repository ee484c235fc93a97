package ddcache

import (
	"testing"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/store"
)

// TestConcurrentMixedOps drives 4 VMs' worth of goroutines through mixed
// Get/Put/Flush/SetSpec traffic — with CreatePool/DestroyPool churn racing
// the data path — against one shared Manager. Run it with -race: the
// original unsynchronized manager fails here; the per-VM locking makes it
// pass. After quiescence the physical byte accounting must agree with the
// per-pool index accounting.
func TestConcurrentMixedOps(t *testing.T) {
	mem := store.NewMem(blockdev.NewRAM("ram"), 32<<20)
	ssd := store.NewSSD(blockdev.NewSSD("ssd"), 64<<20)
	m := NewManager(Config{Mode: ModeDD, Mem: mem, SSD: ssd})
	res := RunStress(m, StressOptions{
		VMs:          4,
		WorkersPerVM: 3,
		PoolsPerVM:   3,
		Ops:          4000,
		Seed:         1,
		Inodes:       64,
		Blocks:       64,
		PoolChurn:    true,
	})
	if want := int64(4 * 3 * 4000); res.Ops != want {
		t.Fatalf("ops = %d, want %d", res.Ops, want)
	}
	if res.Puts == 0 || res.GetHits == 0 {
		t.Fatalf("workload degenerate: %+v", res)
	}
	if res.PoolOps == 0 {
		t.Fatalf("pool churn never ran: %+v", res)
	}
	checkAccounting(t, m, 4)
}

// TestConcurrentCapacityShrink races dynamic capacity reconfiguration
// against the data path (the paper's dynamic re-provisioning, made safe).
func TestConcurrentCapacityShrink(t *testing.T) {
	mem := store.NewMem(blockdev.NewRAM("ram"), 64<<20)
	m := NewManager(Config{Mode: ModeDD, Mem: mem})
	done := make(chan struct{})
	go func() {
		defer close(done)
		sizes := []int64{48 << 20, 16 << 20, 32 << 20, 64 << 20}
		for i := 0; i < 200; i++ {
			m.SetCapacity(0, cgroup.StoreMem, sizes[i%len(sizes)])
		}
	}()
	RunStress(m, StressOptions{
		VMs:          4,
		WorkersPerVM: 2,
		PoolsPerVM:   2,
		Ops:          3000,
		Seed:         3,
		Inodes:       64,
		Blocks:       64,
	})
	<-done
	checkAccounting(t, m, 4)
}

// checkAccounting verifies, at quiescence, that each backend's physical
// occupancy equals the sum of the per-pool index accounting — the
// invariant unsynchronized counters corrupt first.
func checkAccounting(t *testing.T, m *Manager, vms int) {
	t.Helper()
	for _, st := range []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD} {
		var logical int64
		for vm := 1; vm <= vms; vm++ {
			logical += m.VMUsedBytes(cleancache.VMID(vm), st)
		}
		if phys := m.StoreUsedBytes(st); phys != logical {
			t.Errorf("%v: physical bytes %d != indexed bytes %d", st, phys, logical)
		}
	}
}
