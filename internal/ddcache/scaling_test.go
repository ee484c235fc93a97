package ddcache_test

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/ddcache/oracle"
	"doubledecker/internal/store"
)

// minShardedScaling is the bar CI holds the sharded manager to: 8 paced
// guests must deliver at least this multiple of 1 guest's throughput
// (the modeled waits overlap, so even a 1-CPU host clears it).
const minShardedScaling = 1.05

// TestShardedScaling is the hot-path scaling run, the one measurement in
// the repository that is host wall-clock rather than virtual time.
// Closed-loop guests issue an SSD-heavy mix (the modeled ~90µs device
// reads dominate) at 1, 2, 4 and 8 guests. Against the sharded manager
// each guest sleeps its own latency, so guests overlap their device
// waits and throughput grows with the guest count; against the
// single-lock baseline (the sequential oracle behind one mutex) the wait
// is served while holding the lock, so adding guests adds nothing. The
// baseline is logged beside the sharded rows, not asserted on.
func TestShardedScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paced scaling rows in real time")
	}
	const (
		memCap      = int64(64 << 20)
		ssdCap      = int64(256 << 20)
		opsPerGuest = 500
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	opsPerSec := map[string]map[int]float64{"sharded": {}, "single-lock": {}}
	for _, guests := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(guests)
		opts := backendStressOptions{Guests: guests, Ops: opsPerGuest, Seed: 42, SSDHeavy: true}

		sharded := opts
		sharded.Pace = true // guest sleeps its own latency: waits overlap
		res := runStressBackend(ddcache.NewManager(ddcache.Config{
			Mode: ddcache.ModeDD,
			Mem:  store.NewMem(blockdev.NewRAM("ram"), memCap),
			SSD:  store.NewSSD(blockdev.NewSSD("ssd"), ssdCap),
		}), sharded)
		opsPerSec["sharded"][guests] = res.opsPerSec()
		t.Logf("sharded     %d guests: %6d ops, %8.0f ops/s (%d hits, %d puts, %v)",
			guests, res.ops, res.opsPerSec(), res.getHits, res.puts, res.wall)

		// The baseline paces inside its lock.
		baseline := &sequential{inner: oracle.New(oracle.Config{
			Mode: oracle.ModeDD,
			Mem:  store.NewMem(blockdev.NewRAM("scale.ram"), memCap),
			SSD:  store.NewSSD(blockdev.NewSSD("scale.ssd"), ssdCap),
		})}
		res = runStressBackend(baseline, opts)
		opsPerSec["single-lock"][guests] = res.opsPerSec()
		t.Logf("single-lock %d guests: %6d ops, %8.0f ops/s (%d hits, %d puts, %v)",
			guests, res.ops, res.opsPerSec(), res.getHits, res.puts, res.wall)
	}

	for _, impl := range []string{"sharded", "single-lock"} {
		t.Logf("%s 8v1 speedup %.2fx", impl, opsPerSec[impl][8]/opsPerSec[impl][1])
	}
	if got := opsPerSec["sharded"][8] / opsPerSec["sharded"][1]; !(got >= minShardedScaling) {
		t.Fatalf("sharded 8-guest throughput scaled %.2fx over 1-guest, want >= %.2fx", got, minShardedScaling)
	}
}

// sequential wraps a cleancache.Backend in one global mutex held for
// each operation's modeled device latency as well: the single-lock
// strawman of TestShardedScaling. A manager whose global lock serializes
// every guest's device wait admits exactly one in-flight operation, so
// adding guests adds no throughput.
type sequential struct {
	mu    sync.Mutex
	inner cleancache.Backend
}

// Dispatch implements cleancache.Backend under the global mutex.
func (s *sequential) Dispatch(now time.Duration, req cleancache.Request) cleancache.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := s.inner.Dispatch(now, req)
	if resp.Latency > 0 {
		time.Sleep(resp.Latency)
	}
	return resp
}

// backendStressOptions configures runStressBackend. It drives any
// cleancache.Backend, so the sharded manager and the sequential oracle
// can be measured under the byte-identical workload.
type backendStressOptions struct {
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

func (o *backendStressOptions) defaults() {
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

// scalingResult is what one runStressBackend pass observed.
type scalingResult struct {
	ops, getHits, puts int64
	wall               time.Duration // host time of the concurrent phase
}

func (r scalingResult) opsPerSec() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.ops) / r.wall.Seconds()
}

// runStressBackend creates o.Guests guests × o.PoolsPerGuest pools
// through the op-dispatch interface and fans out one closed-loop
// goroutine per guest issuing a deterministic Put/Get/Flush mix.
func runStressBackend(be cleancache.Backend, o backendStressOptions) scalingResult {
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
	start := time.Now()
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
	return scalingResult{ops: ops.Load(), getHits: hits.Load(), puts: puts.Load(), wall: time.Since(start)}
}
