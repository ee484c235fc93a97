package ddcache

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	res := runStress(m, stressOptions{
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
	runStress(m, stressOptions{
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

// stressOptions configures runStress, the concurrent mixed-workload
// driver shared by the race and chaos tests.
type stressOptions struct {
	// VMs is the number of guest VMs registered with the manager; each is
	// driven by its own workers, so VMs is also the sharding width the
	// per-VM locking can exploit.
	VMs int
	// WorkersPerVM is the number of concurrent goroutines issuing
	// operations against each VM.
	WorkersPerVM int
	// PoolsPerVM is the number of container pools created per VM. Pool
	// store types alternate mem/SSD/hybrid when an SSD store is
	// configured, mem otherwise.
	PoolsPerVM int
	// Ops is the number of operations each worker issues.
	Ops int
	// Seed makes each worker's operation stream deterministic.
	Seed int64
	// Inodes and Blocks bound the per-pool keyspace.
	Inodes int
	Blocks int64
	// PoolChurn adds one goroutine per VM that repeatedly creates and
	// destroys an extra pool while the workers run, stressing the
	// structural paths (CreatePool/DestroyPool) against the data paths.
	PoolChurn bool
}

func (o *stressOptions) defaults() {
	if o.VMs <= 0 {
		o.VMs = 4
	}
	if o.WorkersPerVM <= 0 {
		o.WorkersPerVM = 2
	}
	if o.PoolsPerVM <= 0 {
		o.PoolsPerVM = 2
	}
	if o.Ops <= 0 {
		o.Ops = 1000
	}
	if o.Inodes <= 0 {
		o.Inodes = 64
	}
	if o.Blocks <= 0 {
		o.Blocks = 64
	}
}

// stressResult aggregates what the workers observed.
type stressResult struct {
	Ops     int64 // operations issued
	GetHits int64 // gets that hit
	Puts    int64 // puts accepted
	PoolOps int64 // create/destroy pairs from the churn workers
}

// runStress registers o.VMs guests on m, fans out o.WorkersPerVM
// goroutines per VM issuing a deterministic mixed stream of Get, Put,
// FlushPage, FlushInode and SetSpec calls, and reports what happened. It
// exercises exactly the concurrency contract the Manager documents: any
// number of goroutines, any mix of VMs, one shared manager.
func runStress(m *Manager, o stressOptions) stressResult {
	o.defaults()
	hasSSD := m.cfg.SSD != nil && m.cfg.SSD.CapacityBytes() > 0
	pools := make([][]cleancache.PoolID, o.VMs)
	for v := 0; v < o.VMs; v++ {
		vm := cleancache.VMID(v + 1)
		m.RegisterVM(vm, 100)
		for p := 0; p < o.PoolsPerVM; p++ {
			id, _ := m.CreatePool(0, vm, "stress", poolSpec(p, hasSSD))
			pools[v] = append(pools[v], id)
		}
	}

	var (
		wgOps   sync.WaitGroup
		wgChurn sync.WaitGroup
		ops     atomic.Int64
		hits    atomic.Int64
		puts    atomic.Int64
		poolOps atomic.Int64
		stop    atomic.Bool
	)
	for v := 0; v < o.VMs; v++ {
		vm := cleancache.VMID(v + 1)
		for w := 0; w < o.WorkersPerVM; w++ {
			wgOps.Add(1)
			go func(v, w int) {
				defer wgOps.Done()
				rng := rand.New(rand.NewSource(o.Seed + int64(v*1000+w)))
				var now time.Duration
				for i := 0; i < o.Ops; i++ {
					pool := pools[v][rng.Intn(len(pools[v]))]
					inode := uint64(1 + rng.Intn(o.Inodes))
					block := rng.Int63n(o.Blocks)
					key := cleancache.Key{Pool: pool, Inode: inode, Block: block}
					var lat time.Duration
					switch r := rng.Intn(100); {
					case r < 45:
						ok, l := m.Put(now, vm, key)
						lat = l
						if ok {
							puts.Add(1)
						}
					case r < 85:
						hit, l := m.Get(now, vm, key)
						lat = l
						if hit {
							hits.Add(1)
						}
					case r < 95:
						lat = m.FlushPage(now, vm, key)
					case r < 99:
						lat = m.FlushInode(now, vm, pool, inode)
					default:
						lat = m.SetSpec(now, vm, pool, poolSpec(rng.Intn(3), hasSSD))
					}
					now += lat
					ops.Add(1)
				}
			}(v, w)
		}
		if o.PoolChurn {
			wgChurn.Add(1)
			go func(v int, vm cleancache.VMID) {
				defer wgChurn.Done()
				rng := rand.New(rand.NewSource(o.Seed ^ int64(v+7919)))
				for !stop.Load() {
					id, _ := m.CreatePool(0, vm, "churn", poolSpec(rng.Intn(3), hasSSD))
					key := cleancache.Key{Pool: id, Inode: 1, Block: rng.Int63n(o.Blocks)}
					m.Put(0, vm, key)
					m.DestroyPool(0, vm, id)
					poolOps.Add(1)
				}
			}(v, vm)
		}
	}
	// Churn workers run for as long as the op workers do.
	wgOps.Wait()
	stop.Store(true)
	wgChurn.Wait()
	return stressResult{
		Ops:     ops.Load(),
		GetHits: hits.Load(),
		Puts:    puts.Load(),
		PoolOps: poolOps.Load(),
	}
}

// poolSpec alternates store types so every backend sees traffic.
func poolSpec(i int, hasSSD bool) cgroup.HCacheSpec {
	st := cgroup.StoreMem
	if hasSSD {
		switch i % 3 {
		case 1:
			st = cgroup.StoreSSD
		case 2:
			st = cgroup.StoreHybrid
		}
	}
	return cgroup.HCacheSpec{Store: st, Weight: 50 + 10*(i%3)}
}
