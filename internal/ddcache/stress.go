package ddcache

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/wallclock"
)

// StressOptions configures RunStress, the concurrent mixed-workload driver
// shared by the race tests and `ddbench -parallel`.
type StressOptions struct {
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
	// PaceLatency sleeps each operation's modeled device latency in real
	// time, turning the driver into a closed-loop guest: throughput then
	// scales with how much the manager lets guests overlap their I/O
	// waits rather than with CPU count.
	PaceLatency bool
}

func (o *StressOptions) defaults() {
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

// StressResult aggregates what the workers observed.
type StressResult struct {
	Ops     int64         // operations issued
	GetHits int64         // gets that hit
	Puts    int64         // puts accepted
	Wall    time.Duration // wall-clock time of the concurrent phase
	PoolOps int64         // create/destroy pairs from the churn workers
}

// OpsPerSec reports aggregate throughput over the concurrent phase.
func (r StressResult) OpsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Wall.Seconds()
}

// RunStress registers o.VMs guests on m, fans out o.WorkersPerVM
// goroutines per VM issuing a deterministic mixed stream of Get, Put,
// FlushPage, FlushInode and SetSpec calls, and reports what happened. It
// exercises exactly the concurrency contract the Manager documents: any
// number of goroutines, any mix of VMs, one shared manager.
func RunStress(m *Manager, o StressOptions) StressResult {
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
	// The concurrent phase is timed through the injectable wall clock, so
	// tests can pin the source and make Wall (and OpsPerSec) reproducible.
	elapsed := wallclock.Stopwatch()
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
					if o.PaceLatency && lat > 0 {
						time.Sleep(lat)
					}
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
	return StressResult{
		Ops:     ops.Load(),
		GetHits: hits.Load(),
		Puts:    puts.Load(),
		Wall:    elapsed(),
		PoolOps: poolOps.Load(),
	}
}

// BackendStressOptions configures RunStressBackend, the dispatch-driven
// closed-loop driver used by the scaling test: unlike RunStress it
// drives any cleancache.Backend (the sharded manager, the sequential
// oracle, a transport), so two implementations can be measured under the
// byte-identical workload.
type BackendStressOptions struct {
	// Guests is the number of concurrent closed-loop guests; each drives
	// its own pools, so Guests is the parallelism the backend may exploit.
	Guests int
	// PoolsPerGuest is the number of container pools each guest creates.
	PoolsPerGuest int
	// Ops is the number of operations each guest issues.
	Ops int
	// Seed makes each guest's operation stream deterministic.
	Seed int64
	// Inodes and Blocks bound the per-pool keyspace.
	Inodes int
	Blocks int64
	// SSDHeavy places every pool on the SSD store, making the modeled
	// 90µs device reads dominate — the regime where overlap between
	// guests, not CPU count, decides throughput.
	SSDHeavy bool
	// Pace sleeps each operation's modeled latency in real time (closed
	// loop): a guest issues its next op only after the previous one's
	// device wait has elapsed.
	Pace bool
}

func (o *BackendStressOptions) defaults() {
	if o.Guests <= 0 {
		o.Guests = 4
	}
	if o.PoolsPerGuest <= 0 {
		o.PoolsPerGuest = 2
	}
	if o.Ops <= 0 {
		o.Ops = 1000
	}
	if o.Inodes <= 0 {
		o.Inodes = 32
	}
	if o.Blocks <= 0 {
		o.Blocks = 32
	}
}

// RunStressBackend creates o.Guests guests × o.PoolsPerGuest pools
// through the op-dispatch interface and fans out one closed-loop
// goroutine per guest issuing a deterministic Put/Get/Flush mix.
// TestShardedScaling runs it with the same options against the sharded
// Manager and against the mutex-wrapped sequential oracle.
func RunStressBackend(be cleancache.Backend, o BackendStressOptions) StressResult {
	o.defaults()
	st := cgroup.StoreMem
	if o.SSDHeavy {
		st = cgroup.StoreSSD
	}
	pools := make([][]cleancache.PoolID, o.Guests)
	for g := 0; g < o.Guests; g++ {
		vm := cleancache.VMID(g + 1)
		for p := 0; p < o.PoolsPerGuest; p++ {
			resp := be.Dispatch(0, cleancache.Request{
				Op:   cleancache.OpCreateCgroup,
				VM:   vm,
				Name: "scale",
				Spec: cgroup.HCacheSpec{Store: st, Weight: 100},
			})
			pools[g] = append(pools[g], resp.Pool)
		}
	}
	var (
		wg   sync.WaitGroup
		ops  atomic.Int64
		hits atomic.Int64
		puts atomic.Int64
	)
	elapsed := wallclock.Stopwatch()
	for g := 0; g < o.Guests; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vm := cleancache.VMID(g + 1)
			rng := rand.New(rand.NewSource(o.Seed + int64(g)*7919))
			var now time.Duration
			for i := 0; i < o.Ops; i++ {
				pool := pools[g][rng.Intn(len(pools[g]))]
				key := cleancache.Key{
					Pool:  pool,
					Inode: uint64(1 + rng.Intn(o.Inodes)),
					Block: rng.Int63n(o.Blocks),
				}
				req := cleancache.Request{VM: vm, Key: key}
				switch r := rng.Intn(100); {
				case r < 45:
					req.Op = cleancache.OpPut
				case r < 90:
					req.Op = cleancache.OpGet
				case r < 97:
					req.Op = cleancache.OpFlushPage
				default:
					req.Op = cleancache.OpFlushInode
				}
				resp := be.Dispatch(now, req)
				now += resp.Latency
				ops.Add(1)
				switch {
				case req.Op == cleancache.OpGet && resp.Ok:
					hits.Add(1)
				case req.Op == cleancache.OpPut && resp.Ok:
					puts.Add(1)
				}
				if o.Pace && resp.Latency > 0 {
					time.Sleep(resp.Latency)
				}
			}
		}(g)
	}
	wg.Wait()
	return StressResult{
		Ops:     ops.Load(),
		GetHits: hits.Load(),
		Puts:    puts.Load(),
		Wall:    elapsed(),
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
