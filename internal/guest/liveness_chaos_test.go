package guest_test

// Chaos liveness property test: full guest stacks — page cache,
// cleancache front, batched hypercall transport with deadlines, watchdog
// and admission control — run under randomized seeded fault plans on the
// transport sites (batch, call, completion). After quiesce the liveness
// properties must hold on every VM:
//
//   - every read terminated and no get was charged more than the latency
//     budget (MaxGetLatency ≤ OpBudget) — the tentpole's bound;
//   - the waiter table, staging buffer and ring drained to empty;
//   - accounting is conserved: the backend-observed op stream replayed
//     through the PR 5 sequential oracle reproduces every verdict and
//     the final cache state exactly.
//
// Only transport sites are faulted: a drop or stall happens before (or
// instead of) Dispatch, so the backend-observed stream remains a valid
// linearization witness — abandoned batches and cancelled frames simply
// never appear in it. Device faults are exercised by the hypervisor-level
// chaos test instead, where no oracle is attached.
//
// Seeds are replayable: DD_CHAOS_SEED selects one seed, and
// DD_CHAOS_DEADLINES=off runs the same plan with the budget disabled
// (liveness bound not asserted — that is the unbounded contrast).

import (
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/ddcache/oracle"
	"doubledecker/internal/fault"
	"doubledecker/internal/fsmodel"
	"doubledecker/internal/guest"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/sim"
	"doubledecker/internal/store"
)

// chaosBudget is the per-op latency budget the chaos runs enforce: well
// above a healthy full-ring drain (~1 ms of batched backend work), well
// below the injected stalls.
const chaosBudget = 2 * time.Millisecond

// transportOnlyPlan filters a generated plan down to the transport sites,
// so the backend-observed stream stays oracle-replayable.
func transportOnlyPlan(p fault.Plan) fault.Plan {
	out := fault.Plan{Seed: p.Seed}
	for _, r := range p.Rules {
		switch r.Site {
		case hypercall.SiteBatch, hypercall.SiteCall, hypercall.SiteCompletion:
			out.Rules = append(out.Rules, r)
		}
	}
	return out
}

// stallHeavyPlan is the deterministic leg: stalls past the budget plus
// completion losses, guaranteed to bite.
func stallHeavyPlan(seed int64) fault.Plan {
	return fault.Plan{Seed: seed, Rules: []fault.Rule{
		{Site: hypercall.SiteBatch, Kind: fault.KindLatency, Prob: 0.2, Delay: 5 * time.Millisecond},
		{Site: hypercall.SiteBatch, Kind: fault.KindDrop, Prob: 0.1},
		{Site: hypercall.SiteCompletion, Kind: fault.KindDrop, Prob: 0.25},
		{Site: hypercall.SiteCall, Kind: fault.KindLatency, Prob: 0.3, Delay: 4 * time.Millisecond},
	}}
}

func TestChaosLivenessGuestStacks(t *testing.T) {
	deadlines := os.Getenv("DD_CHAOS_DEADLINES") != "off"
	if env := os.Getenv("DD_CHAOS_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("DD_CHAOS_SEED=%q: %v", env, err)
		}
		runChaosLiveness(t, transportOnlyPlan(fault.RandomPlan(seed)), deadlines, false)
		return
	}
	t.Run("stall-heavy", func(t *testing.T) {
		runChaosLiveness(t, stallHeavyPlan(1), deadlines, true)
	})
	for _, seed := range []int64{1, 7, 1337} {
		seed := seed
		t.Run("random-"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			runChaosLiveness(t, transportOnlyPlan(fault.RandomPlan(seed)), deadlines, false)
		})
	}
}

// runChaosLiveness drives vms full guest stacks over a shared manager
// under plan, then asserts the liveness properties. mustBite requires the
// plan to actually have produced deadline pressure (the deterministic
// stall-heavy leg).
func runChaosLiveness(t *testing.T, plan fault.Plan, deadlines, mustBite bool) {
	const (
		vms        = 3
		fileBlocks = int64(512)
		burst      = int64(32)
		window     = 8
		memCap     = int64(64 << 20)
		stepEvery  = time.Millisecond
		runFor     = 300 * time.Millisecond
	)
	if warnings, err := plan.Validate(); err != nil || len(warnings) != 0 {
		t.Fatalf("chaos plan invalid: err=%v warnings=%v", err, warnings)
	}
	mgr := ddcache.NewManager(ddcache.Config{
		Mode: ddcache.ModeDD,
		Mem:  store.NewMem(blockdev.NewRAM("m.ram"), memCap),
	})
	oMem := store.NewMem(blockdev.NewRAM("o.ram"), memCap)
	orc := oracle.New(oracle.Config{Mode: oracle.ModeDD, Mem: oMem})

	type guestState struct {
		engine *sim.Engine
		vm     *guest.VM
		c      *guest.Container
		tee    *guestTee
		tr     *hypercall.Transport
		pool   cleancache.PoolID
		files  []*fsmodel.File
	}
	gs := make([]*guestState, vms)
	for v := 0; v < vms; v++ {
		id := cleancache.VMID(v + 1)
		mgr.RegisterVM(id, 100)
		orc.RegisterVM(id, 100)
		tee := &guestTee{inner: mgr}
		topts := hypercall.Options{
			AsyncGets:       true,
			ZeroCopy:        v%2 == 1,
			Faults:          fault.New(plan), // per-VM injector: deterministic per engine
			MaxInflightGets: 64,
			MaxQueuedOps:    256,
		}
		if deadlines {
			topts.OpBudget = chaosBudget
		}
		tr := hypercall.NewTransport(tee, topts)
		front := cleancache.NewFront(id, tr)
		engine := sim.New(int64(7100 + v))
		gcfg := guest.Config{ID: id, MemBytes: 80 << 20, ReadAheadWindow: window}
		if deadlines {
			gcfg.WatchdogPeriod = chaosBudget / 2
		}
		vm := guest.New(engine, gcfg, front)
		c := vm.NewContainer("chaos", 1<<20, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
		s := &guestState{
			engine: engine, vm: vm, c: c, tee: tee, tr: tr,
			pool: cleancache.PoolID(c.Group().PoolID()),
		}
		for i := 0; i < 2; i++ {
			s.files = append(s.files, vm.Allocator().Alloc(fileBlocks))
		}
		gs[v] = s
	}

	var wg sync.WaitGroup
	for _, s := range gs {
		wg.Add(1)
		go func(s *guestState) {
			defer wg.Done()
			total := int64(len(s.files)) * fileBlocks
			var pos, hot int64
			step := 0
			s.engine.Every(stepEvery, func() {
				now := s.engine.Now()
				for remaining := burst; remaining > 0; {
					f := s.files[pos/fileBlocks]
					off := pos % fileBlocks
					n := remaining
					if left := fileBlocks - off; n > left {
						n = left
					}
					s.c.Read(now, f, off, n)
					pos = (pos + n) % total
					remaining -= n
				}
				step++
				if step%4 == 0 {
					s.c.Write(now, s.files[0], hot, 4)
					hot = (hot + 4) % 32
				}
				if step%97 == 0 {
					s.c.Delete(now, s.files[1])
				}
			})
			s.engine.Run(runFor)
			s.vm.Shutdown()
		}(s)
	}
	wg.Wait()

	// Liveness properties, per VM, after quiesce (Shutdown closed each
	// transport).
	var totalDeadlineMisses, totalWatchdogFails int64
	for v, s := range gs {
		st := s.tr.Stats()
		if st.Waiters != 0 {
			t.Errorf("vm %d: %d waiters leaked", v+1, st.Waiters)
		}
		if st.StagedPages != 0 {
			t.Errorf("vm %d: %d blocks still staged", v+1, st.StagedPages)
		}
		if st.Pending != 0 {
			t.Errorf("vm %d: %d ops still buffered", v+1, st.Pending)
		}
		if deadlines && st.MaxGetLatency > chaosBudget {
			t.Errorf("vm %d: a get was charged %v, past the budget %v",
				v+1, st.MaxGetLatency, chaosBudget)
		}
		totalDeadlineMisses += st.DeadlineMisses
		totalWatchdogFails += st.WatchdogFails
	}
	if mustBite && deadlines && totalDeadlineMisses == 0 {
		t.Errorf("stall-heavy plan produced no deadline misses; the harness is not exercising the budget")
	}

	// Accounting conserved: replay the backend-observed streams through
	// the sequential oracle.
	for i := 0; ; i++ {
		exhausted := true
		for v, s := range gs {
			if i >= len(s.tee.log) {
				continue
			}
			exhausted = false
			rec := s.tee.log[i]
			resp := orc.Dispatch(0, rec.req)
			switch rec.req.Op {
			case cleancache.OpCreateCgroup:
				if resp.Pool != rec.pool {
					t.Fatalf("replay vm %d op %d: pool ids diverged (%d vs %d)", v+1, i, rec.pool, resp.Pool)
				}
			case cleancache.OpGet, cleancache.OpPut, cleancache.OpReadAhead:
				if resp.Ok != rec.ok || resp.Count != rec.count {
					t.Fatalf("replay vm %d op %d (%v %+v): chaos run said ok=%v count=%d, oracle says ok=%v count=%d",
						v+1, i, rec.req.Op, rec.req.Key, rec.ok, rec.count, resp.Ok, resp.Count)
				}
			}
		}
		if exhausted {
			break
		}
	}
	for v, s := range gs {
		got, want := mgr.PoolStats(0, s.pool), orc.PoolStats(0, s.pool)
		if got != want {
			t.Fatalf("vm %d pool %d final stats:\n  manager %+v\n  oracle  %+v", v+1, s.pool, got, want)
		}
		if gb, wb := mgr.PoolTotalBytes(s.pool), orc.PoolTotalBytes(s.pool); gb != wb {
			t.Fatalf("vm %d pool %d final bytes: manager %d, oracle %d", v+1, s.pool, gb, wb)
		}
	}
	if got, want := mgr.StoreUsedBytes(cgroup.StoreMem), oMem.UsedBytes(); got != want {
		t.Fatalf("final store usage: manager %d, oracle %d", got, want)
	}
	t.Logf("chaos seed %d: deadlines=%v misses=%d watchdog=%d ops replayed ok",
		plan.Seed, deadlines, totalDeadlineMisses, totalWatchdogFails)
}

// TestTeardownWithOutstandingAsyncWork is the crash-safe teardown audit:
// a VM is destroyed with async gets still riding the ring and staged
// readahead unconsumed. Every handle must land terminal (fail-to-miss),
// the transport tables must empty, and pool accounting must be fully
// released — verified differentially against the oracle.
func TestTeardownWithOutstandingAsyncWork(t *testing.T) {
	const memCap = int64(32 << 20)
	mgr := ddcache.NewManager(ddcache.Config{
		Mode: ddcache.ModeDD,
		Mem:  store.NewMem(blockdev.NewRAM("m.ram"), memCap),
	})
	oMem := store.NewMem(blockdev.NewRAM("o.ram"), memCap)
	orc := oracle.New(oracle.Config{Mode: oracle.ModeDD, Mem: oMem})

	id := cleancache.VMID(1)
	mgr.RegisterVM(id, 100)
	orc.RegisterVM(id, 100)
	tee := &guestTee{inner: mgr}
	tr := hypercall.NewTransport(tee, hypercall.Options{
		AsyncGets: true, ZeroCopy: true, OpBudget: chaosBudget,
	})
	front := cleancache.NewFront(id, tr)
	engine := sim.New(4242)
	vm := guest.New(engine, guest.Config{
		ID: id, MemBytes: 80 << 20, ReadAheadWindow: 8, WatchdogPeriod: chaosBudget / 2,
	}, front)
	c := vm.NewContainer("td", 1<<20, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	pool := cleancache.PoolID(c.Group().PoolID())
	f := vm.Allocator().Alloc(256)

	// Populate the hypervisor cache, then re-read to stage readahead
	// fills, leaving unconsumed staged blocks and buffered ops behind.
	engine.Every(time.Millisecond, func() {
		now := engine.Now()
		c.Read(now, f, 0, 256)
		c.Write(now, f, 0, 64) // evict from page cache? no — dirty + reread below
	})
	engine.Run(20 * time.Millisecond)

	// Park async gets in the ring directly (the guest path awaits its
	// handles; a crash does not): these are outstanding at teardown.
	var handles []*cleancache.PendingGet
	for b := int64(0); b < 8; b++ {
		pg, _ := tr.SubmitAsync(engine.Now(), cleancache.Request{
			Op: cleancache.OpGet, VM: id,
			Key: cleancache.Key{Pool: pool, Inode: uint64(f.Inode), Block: b},
		})
		handles = append(handles, pg)
	}

	// Teardown with all of it in flight.
	vm.DestroyContainer(c)
	vm.Shutdown()

	for i, pg := range handles {
		if !pg.Done() {
			t.Errorf("handle %d not terminal after teardown", i)
		}
	}
	st := tr.Stats()
	if st.Waiters != 0 || st.StagedPages != 0 || st.Pending != 0 {
		t.Fatalf("teardown left transport state: Waiters=%d StagedPages=%d Pending=%d",
			st.Waiters, st.StagedPages, st.Pending)
	}
	// Pool accounting fully released on both sides.
	if got := mgr.PoolTotalBytes(pool); got != 0 {
		t.Fatalf("manager pool %d still accounts %d bytes after teardown", pool, got)
	}
	for i := 0; i < len(tee.log); i++ {
		rec := tee.log[i]
		resp := orc.Dispatch(0, rec.req)
		switch rec.req.Op {
		case cleancache.OpGet, cleancache.OpPut, cleancache.OpReadAhead:
			if resp.Ok != rec.ok || resp.Count != rec.count {
				t.Fatalf("replay op %d (%v %+v): run said ok=%v count=%d, oracle says ok=%v count=%d",
					i, rec.req.Op, rec.req.Key, rec.ok, rec.count, resp.Ok, resp.Count)
			}
		}
	}
	if got, want := mgr.StoreUsedBytes(cgroup.StoreMem), oMem.UsedBytes(); got != want {
		t.Fatalf("final store usage: manager %d, oracle %d", got, want)
	}
}
