package hypervisor

// Hypervisor-level chaos liveness: full hosts — real cache manager,
// memory and SSD stores, per-VM disks, batched transports with deadlines,
// watchdog ticks and admission control — under randomized seeded fault
// plans spanning both the transport AND the host-SSD device sites (which
// the oracle-differential guest test cannot fault). After quiesce and
// teardown:
//
//   - no get was charged past the latency budget;
//   - waiter tables, staging buffers and rings drained to empty;
//   - destroying every VM releases all store accounting.

import (
	"strconv"
	"testing"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/fault"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/sim"
)

func TestChaosLivenessFullHost(t *testing.T) {
	for _, seed := range []int64{1, 7, 1337} {
		seed := seed
		t.Run("seed-"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			runHostChaos(t, seed)
		})
	}
}

func runHostChaos(t *testing.T, seed int64) {
	const (
		budget = 2 * time.Millisecond
		runFor = 200 * time.Millisecond
	)
	plan := fault.RandomPlan(seed)
	if warnings, err := plan.Validate(); err != nil || len(warnings) != 0 {
		t.Fatalf("seed %d plan invalid: err=%v warnings=%v", seed, err, warnings)
	}
	engine := sim.New(seed)
	host := New(engine, Config{
		Mode:             ddcache.ModeDD,
		MemCacheBytes:    32 * mib,
		SSDCacheBytes:    256 * mib,
		RemoteCacheBytes: 512 * mib,
		Faults:           fault.New(plan),
		Transport:        hypercall.Options{OpBudget: budget, MaxInflightGets: 128, MaxQueuedOps: 400},
		WatchdogPeriod:   budget / 2,
		MaxInflightOps:   1024,
	})

	vm1 := host.NewVM(1, 128*mib, 60)
	vm2 := host.NewVM(2, 128*mib, 40)
	c1 := vm1.NewContainer("a", 8*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	c2 := vm2.NewContainer("b", 8*mib, cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})
	f1 := vm1.Allocator().Alloc(4096)
	f2 := vm2.Allocator().Alloc(4096)

	var p1, p2 int64
	engine.Every(time.Millisecond, func() {
		now := engine.Now()
		c1.Read(now, f1, p1%f1.Blocks, 32)
		p1 += 32
		if p1%128 == 0 {
			c1.Write(now, f1, (p1/4)%f1.Blocks, 8)
		}
	})
	engine.Every(1300*time.Microsecond, func() {
		now := engine.Now()
		c2.Read(now, f2, p2%f2.Blocks, 48)
		p2 += 48
		if p2%192 == 0 {
			c2.Delete(now, f2)
		}
	})
	if err := host.RunFor(runFor); err != nil {
		t.Fatalf("run: %v", err)
	}

	// Quiesce: stop the drivers' effect by tearing both VMs down with
	// whatever is still in flight — the crash-safe teardown path.
	tr1, tr2 := host.Transport(1), host.Transport(2)
	host.DestroyVM(vm1)
	host.DestroyVM(vm2)

	agg := host.TransportStats()
	if agg.Waiters != 0 {
		t.Errorf("seed %d: %d waiters leaked across the host", seed, agg.Waiters)
	}
	if agg.StagedPages != 0 {
		t.Errorf("seed %d: %d blocks still staged", seed, agg.StagedPages)
	}
	if agg.Pending != 0 {
		t.Errorf("seed %d: %d ops still buffered", seed, agg.Pending)
	}
	if agg.MaxGetLatency > budget {
		t.Errorf("seed %d: a get was charged %v, past the budget %v", seed, agg.MaxGetLatency, budget)
	}
	// Per-VM transports survive DestroyVM for post-mortem stats; both
	// must be individually clean too.
	for i, tr := range []*hypercall.Transport{tr1, tr2} {
		if st := tr.Stats(); st.Waiters != 0 || st.StagedPages != 0 || st.Pending != 0 {
			t.Errorf("seed %d vm %d: Waiters=%d StagedPages=%d Pending=%d",
				seed, i+1, st.Waiters, st.StagedPages, st.Pending)
		}
	}
	if host.Manager().InflightOps() != 0 {
		t.Errorf("seed %d: manager inflight count did not drain", seed)
	}
	// Accounting fully released after teardown.
	if got := host.Manager().StoreUsedBytes(cgroup.StoreMem); got != 0 {
		t.Errorf("seed %d: %d mem-store bytes leaked after teardown", seed, got)
	}
	if got := host.Manager().StoreUsedBytes(cgroup.StoreSSD); got != 0 {
		t.Errorf("seed %d: %d ssd-store bytes leaked after teardown", seed, got)
	}
	if got := host.Manager().StoreUsedBytes(cgroup.StoreRemote); got != 0 {
		t.Errorf("seed %d: %d remote-store bytes leaked after teardown", seed, got)
	}
	// The write-behind queue must settle to empty at quiesce: teardown
	// cancels queued entries, a final flush pops the settled slots, and
	// the conservation identity must close.
	host.Manager().FlushDemotions(engine.Now())
	ds := host.Manager().DemotionStats()
	if ds.DirtyBytes != 0 || ds.DirtyObjects != 0 {
		t.Errorf("seed %d: demotion queue did not drain at quiesce: %+v", seed, ds)
	}
	if settled := ds.Drained + ds.Cancelled + ds.DroppedFull + ds.DroppedError + ds.DroppedBreaker; settled != ds.Enqueued {
		t.Errorf("seed %d: demotion accounting does not conserve: %+v", seed, ds)
	}
	rb := host.Manager().RemoteBreakerStats()
	t.Logf("seed %d: misses=%d watchdog=%d shedGets=%d shedOps=%d managerShed=%d drops=%d demotions=%+v remoteBreaker(trips=%d restores=%d)",
		seed, agg.DeadlineMisses, agg.WatchdogFails, agg.ShedGets, agg.ShedOps,
		host.Manager().ShedOps(), agg.Drops, ds, rb.Trips, rb.Restores)
}

// TestChaosRemoteFaultPlans targets the remote tier's sites explicitly:
// stall, io-error and drop plans on remote.* while a guest works a set
// much larger than mem+SSD, forcing constant demotion and remote (slow)
// hits. Liveness must hold — no get charged past the budget, the
// demotion queue drains at quiesce, no store bytes leak — and under the
// error plans the remote breaker must actually trip.
func TestChaosRemoteFaultPlans(t *testing.T) {
	plans := []struct {
		name      string
		rule      fault.Rule
		wantTrips bool
	}{
		{name: "stall", rule: fault.Rule{Site: "remote.*", Kind: fault.KindStall, Prob: 0.3, Delay: 5 * time.Millisecond}, wantTrips: true},
		{name: "io-error", rule: fault.Rule{Site: "remote.get", Kind: fault.KindIOError, Prob: 0.4}, wantTrips: true},
		{name: "drop", rule: fault.Rule{Site: "remote.put", Kind: fault.KindDrop, Prob: 0.3}, wantTrips: false},
	}
	for _, tc := range plans {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const budget = 2 * time.Millisecond
			plan := fault.Plan{Seed: 42, Rules: []fault.Rule{tc.rule}}
			if warnings, err := plan.Validate(); err != nil || len(warnings) != 0 {
				t.Fatalf("plan invalid: err=%v warnings=%v", err, warnings)
			}
			engine := sim.New(42)
			host := New(engine, Config{
				Mode:             ddcache.ModeDD,
				MemCacheBytes:    2 * mib,
				SSDCacheBytes:    4 * mib,
				RemoteCacheBytes: 64 * mib,
				Faults:           fault.New(plan),
				Transport:        hypercall.Options{OpBudget: budget},
				WatchdogPeriod:   budget / 2,
			})
			// The guest's own page cache is tiny relative to the working
			// set, so clean evictions continuously put into the hypervisor
			// cache, overflow SSD and demote into the remote tier.
			vm := host.NewVM(1, 8*mib, 100)
			c := vm.NewContainer("hot", 4*mib, cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})
			f := vm.Allocator().Alloc(8192) // 32 MiB working set ≫ mem+SSD
			var pos int64
			engine.Every(500*time.Microsecond, func() {
				now := engine.Now()
				c.Read(now, f, pos%f.Blocks, 64)
				c.Read(now, f, (pos*7)%f.Blocks, 32)
				pos += 64
			})
			if err := host.RunFor(300 * time.Millisecond); err != nil {
				t.Fatalf("run: %v", err)
			}
			host.DestroyVM(vm)

			agg := host.TransportStats()
			if agg.MaxGetLatency > budget {
				t.Errorf("a get was charged %v, past the budget %v", agg.MaxGetLatency, budget)
			}
			if agg.Waiters != 0 || agg.Pending != 0 || agg.StagedPages != 0 {
				t.Errorf("transport state leaked: %+v", agg)
			}
			host.Manager().FlushDemotions(engine.Now())
			ds := host.Manager().DemotionStats()
			if ds.DirtyBytes != 0 || ds.DirtyObjects != 0 {
				t.Errorf("demotion queue did not drain: %+v", ds)
			}
			if ds.Enqueued == 0 {
				t.Error("workload never demoted — remote path not exercised")
			}
			for _, st := range []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD, cgroup.StoreRemote} {
				if got := host.Manager().StoreUsedBytes(st); got != 0 {
					t.Errorf("%d bytes leaked in %v after teardown", got, st)
				}
			}
			rb := host.Manager().RemoteBreakerStats()
			if tc.wantTrips && rb.Trips == 0 {
				t.Errorf("remote breaker never tripped under the %s plan: %+v", tc.name, rb)
			}
			t.Logf("%s: demotions=%+v breaker trips=%d probes=%d restores=%d", tc.name, ds, rb.Trips, rb.Probes, rb.Restores)
		})
	}
}

func TestHostDeadlineDefaultsWatchdogPeriod(t *testing.T) {
	engine := sim.New(1)
	host := New(engine, Config{
		Mode:          ddcache.ModeDD,
		MemCacheBytes: 32 * mib,
		Transport:     hypercall.Options{OpBudget: time.Millisecond},
	})
	if host.wdog != time.Millisecond {
		t.Fatalf("watchdog period = %v, want the budget itself", host.wdog)
	}
}

func TestManagerAdmissionShedsOverBudget(t *testing.T) {
	// The hypervisor-wide budget: with MaxInflightOps=0 (off) nothing is
	// shed; the cap itself is exercised concurrently in the ddcache
	// package tests — here we check the host plumbs the knob through.
	engine := sim.New(1)
	host := New(engine, Config{
		Mode:           ddcache.ModeDD,
		MemCacheBytes:  32 * mib,
		MaxInflightOps: 1,
	})
	vm := host.NewVM(1, 128*mib, 100)
	c := vm.NewContainer("c", 8*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	f := vm.Allocator().Alloc(64)
	c.Read(engine.Now(), f, 0, f.Blocks)
	// Single-threaded dispatches never exceed inflight 1: no sheds.
	if got := host.Manager().ShedOps(); got != 0 {
		t.Fatalf("sequential dispatches shed %d ops under cap 1", got)
	}
}
