package ddcache

import (
	"os"
	"strconv"
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/fault"
	"doubledecker/internal/metrics"
	"doubledecker/internal/store"
)

// faultyMgr builds a manager whose SSD device runs under the given fault
// plan. The SSD device is named "fssd", so plans target "fssd.read" /
// "fssd.write". memCap <= 0 disables the memory store.
func faultyMgr(plan fault.Plan, memCap, ssdCap int64, bc BreakerConfig, reg *metrics.Registry) *Manager {
	cfg := Config{Mode: ModeDD, Breaker: bc, Metrics: reg}
	if memCap > 0 {
		cfg.Mem = store.NewMem(blockdev.NewRAM("fram"), memCap)
	}
	dev := blockdev.NewSSD("fssd", blockdev.WithFaults(fault.New(plan)))
	cfg.SSD = store.NewSSD(dev, ssdCap)
	return NewManager(cfg)
}

func TestFailedSSDPutDropsObject(t *testing.T) {
	plan := fault.Plan{Rules: []fault.Rule{
		{Site: "fssd.write", Kind: fault.KindIOError, Prob: 1},
	}}
	m := faultyMgr(plan, 0, 8<<20, BreakerConfig{}, nil)
	m.RegisterVM(1, 100)
	pool, _ := m.CreatePool(0, 1, "p", cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})

	k := key(pool, 1, 0)
	ok, _ := m.Put(0, 1, k)
	if ok {
		t.Fatal("put reported stored despite SSD write error")
	}
	if m.Contains(k) {
		t.Fatal("dropped object still indexed")
	}
	if n := m.StoreUsedBytes(cgroup.StoreSSD); n != 0 {
		t.Fatalf("failed put charged %d bytes", n)
	}
	if n := m.PoolUsedBytes(pool, cgroup.StoreSSD); n != 0 {
		t.Fatalf("failed put charged pool %d bytes", n)
	}
}

func TestFailedSSDGetInvalidatesEntry(t *testing.T) {
	plan := fault.Plan{Rules: []fault.Rule{
		{Site: "fssd.read", Kind: fault.KindIOError, Prob: 1},
	}}
	m := faultyMgr(plan, 0, 8<<20, BreakerConfig{}, nil)
	m.RegisterVM(1, 100)
	pool, _ := m.CreatePool(0, 1, "p", cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})

	k := key(pool, 1, 0)
	if ok, _ := m.Put(0, 1, k); !ok {
		t.Fatal("healthy put failed")
	}
	if !m.Contains(k) || m.StoreUsedBytes(cgroup.StoreSSD) != ObjectSize {
		t.Fatal("put did not land on SSD")
	}

	// The fetch fails: cleancache semantics demand a miss, and the entry
	// must be invalidated with its usage released.
	if hit, _ := m.Get(0, 1, k); hit {
		t.Fatal("get reported a hit despite SSD read error")
	}
	if m.Contains(k) {
		t.Fatal("entry survived a failed fetch")
	}
	if n := m.StoreUsedBytes(cgroup.StoreSSD); n != 0 {
		t.Fatalf("failed fetch leaked %d bytes", n)
	}
	if hit, _ := m.Get(0, 1, k); hit {
		t.Fatal("second get hit an invalidated entry")
	}
}

func TestBreakerTripsAndFallsBackToMem(t *testing.T) {
	// SSD writes fail hard for the first 2s of virtual time, then recover.
	plan := fault.Plan{Rules: []fault.Rule{
		{Site: "fssd.write", Kind: fault.KindIOError, Prob: 1, To: 2 * time.Second},
	}}
	bc := BreakerConfig{Threshold: 3, Window: time.Second, Cooldown: time.Second, Probes: 2}
	reg := metrics.NewRegistry()
	m := faultyMgr(plan, 8<<20, 8<<20, bc, reg)
	m.RegisterVM(1, 100)
	pool, _ := m.CreatePool(0, 1, "p", cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})

	// Threshold failures trip the breaker.
	for i := int64(0); i < 3; i++ {
		if ok, _ := m.Put(0, 1, key(pool, 1, i)); ok {
			t.Fatalf("put %d stored through a failing SSD", i)
		}
	}
	if s := m.SSDBreakerStats(); s.State != "open" || s.Trips != 1 {
		t.Fatalf("breaker after threshold failures: %+v", s)
	}

	// While open, SSD placements degrade to the memory store.
	if ok, _ := m.Put(0, 1, key(pool, 1, 100)); !ok {
		t.Fatal("put rejected instead of falling back to memory")
	}
	if n := m.StoreUsedBytes(cgroup.StoreMem); n != ObjectSize {
		t.Fatalf("fallback put landed on mem=%d bytes, want %d", n, ObjectSize)
	}
	if n := m.StoreUsedBytes(cgroup.StoreSSD); n != 0 {
		t.Fatalf("open breaker let %d bytes reach the SSD", n)
	}

	// Past the fault window and the cooldown: probes succeed and restore.
	if ok, _ := m.Put(5*time.Second, 1, key(pool, 1, 200)); !ok {
		t.Fatal("first probe put failed")
	}
	if s := m.SSDBreakerStats(); s.State != "half-open" {
		t.Fatalf("breaker after first probe: %+v", s)
	}
	if ok, _ := m.Put(5*time.Second, 1, key(pool, 1, 201)); !ok {
		t.Fatal("second probe put failed")
	}
	s := m.SSDBreakerStats()
	if s.State != "closed" || s.Restores != 1 || s.Probes < 2 {
		t.Fatalf("breaker after recovery: %+v", s)
	}
	if n := m.StoreUsedBytes(cgroup.StoreSSD); n != 2*ObjectSize {
		t.Fatalf("recovered SSD holds %d bytes, want %d", n, 2*ObjectSize)
	}
	if reg.Counter("breaker.ssd.trip").Value() != 1 ||
		reg.Counter("breaker.ssd.restore").Value() != 1 {
		t.Fatalf("breaker events not exported: trip=%d restore=%d",
			reg.Counter("breaker.ssd.trip").Value(),
			reg.Counter("breaker.ssd.restore").Value())
	}
}

func TestBreakerOpenGetMissesWithoutInvalidate(t *testing.T) {
	plan := fault.Plan{Rules: []fault.Rule{
		{Site: "fssd.read", Kind: fault.KindIOError, Prob: 1},
	}}
	// Threshold 1: the first failed fetch trips the breaker.
	bc := BreakerConfig{Threshold: 1, Window: time.Second, Cooldown: 10 * time.Second, Probes: 1}
	m := faultyMgr(plan, 0, 8<<20, bc, nil)
	m.RegisterVM(1, 100)
	pool, _ := m.CreatePool(0, 1, "p", cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})

	k1, k2 := key(pool, 1, 0), key(pool, 1, 1)
	for _, k := range []cleancache.Key{k1, k2} {
		if ok, _ := m.Put(0, 1, k); !ok {
			t.Fatal("healthy put failed")
		}
	}

	// First get pays the failed fetch, invalidates k1 and trips the breaker.
	if hit, _ := m.Get(0, 1, k1); hit {
		t.Fatal("get hit through a failing SSD")
	}
	if s := m.SSDBreakerStats(); s.State != "open" {
		t.Fatalf("breaker after failed fetch: %+v", s)
	}
	// While open, gets of SSD-resident objects miss WITHOUT invalidating:
	// the stored bytes are intact, only the device is being avoided.
	if hit, _ := m.Get(0, 1, k2); hit {
		t.Fatal("get hit while the breaker is open")
	}
	if !m.Contains(k2) {
		t.Fatal("open-breaker miss invalidated an intact entry")
	}
	if n := m.StoreUsedBytes(cgroup.StoreSSD); n != ObjectSize {
		t.Fatalf("SSD usage %d after open-breaker miss, want %d", n, ObjectSize)
	}
}

// TestTeardownUnderFaults destroys pools and unregisters the VM while the
// SSD device is failing every operation; neither index entries nor usage
// bytes may leak.
func TestTeardownUnderFaults(t *testing.T) {
	plan := fault.Plan{Rules: []fault.Rule{
		{Site: "fssd.*", Kind: fault.KindIOError, Prob: 1, From: time.Second},
	}}
	m := faultyMgr(plan, 8<<20, 8<<20, BreakerConfig{}, nil)
	m.RegisterVM(1, 100)
	mp, _ := m.CreatePool(0, 1, "mem", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	sp, _ := m.CreatePool(0, 1, "ssd", cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 50})

	// Fill both pools while the device is healthy (faults start at 1s).
	for i := int64(0); i < 64; i++ {
		if ok, _ := m.Put(0, 1, key(mp, 1, i)); !ok {
			t.Fatal("mem put failed")
		}
		if ok, _ := m.Put(0, 1, key(sp, 1, i)); !ok {
			t.Fatal("ssd put failed")
		}
	}
	if m.StoreUsedBytes(cgroup.StoreMem) == 0 || m.StoreUsedBytes(cgroup.StoreSSD) == 0 {
		t.Fatal("stores not populated")
	}
	// Sanity: the device really is failing now.
	if ok, _ := m.Put(2*time.Second, 1, key(sp, 2, 0)); ok {
		t.Fatal("put succeeded during the fault window")
	}

	m.DestroyPool(2*time.Second, 1, mp)
	m.DestroyPool(2*time.Second, 1, sp)
	m.UnregisterVM(1)

	for _, st := range []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD} {
		if n := m.PoolUsedBytes(mp, st); n != 0 {
			t.Fatalf("mem pool leaked %d %s bytes", n, st)
		}
		if n := m.PoolUsedBytes(sp, st); n != 0 {
			t.Fatalf("ssd pool leaked %d %s bytes", n, st)
		}
		if n := m.StoreUsedBytes(st); n != 0 {
			t.Fatalf("%s store leaked %d bytes after teardown", st, n)
		}
	}
}

// TestChaosFaultPlan is the CI chaos job's entry point: a concurrent
// stress run against an SSD injecting ~8% I/O errors plus latency spikes,
// with pool churn, under -race. The seed comes from CHAOS_SEED so the CI
// matrix can pin distinct schedules. Correctness bar: the run completes,
// faults really were injected, usage never goes negative and full
// teardown leaves zero residue in both stores.
func TestChaosFaultPlan(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	plan := fault.Plan{Seed: seed, Rules: []fault.Rule{
		{Site: "chaos-ssd.*", Kind: fault.KindIOError, Prob: 0.08},
		{Site: "chaos-ssd.read", Kind: fault.KindLatency, Prob: 0.05, Delay: 200 * time.Microsecond},
	}}
	inj := fault.New(plan)
	reg := metrics.NewRegistry()
	m := NewManager(Config{
		Mode:    ModeDD,
		Mem:     store.NewMem(blockdev.NewRAM("chaos-ram"), 8<<20),
		SSD:     store.NewSSD(blockdev.NewSSD("chaos-ssd", blockdev.WithFaults(inj)), 8<<20),
		Breaker: BreakerConfig{Threshold: 8, Window: time.Second, Cooldown: time.Second, Probes: 2},
		Metrics: reg,
	})

	vms := 4
	res := RunStress(m, StressOptions{
		VMs:          vms,
		WorkersPerVM: 4,
		PoolsPerVM:   3,
		Ops:          400,
		Seed:         seed,
		PoolChurn:    true,
	})
	if res.Ops == 0 {
		t.Fatal("stress run issued no operations")
	}
	if inj.Injected(fault.KindIOError) == 0 {
		t.Fatal("fault plan injected no I/O errors — the chaos run tested nothing")
	}
	t.Logf("chaos seed=%d: %d ops, %d hits, %d puts, breaker=%+v\n%s",
		seed, res.Ops, res.GetHits, res.Puts, m.SSDBreakerStats(), inj.Summary())

	for _, st := range []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD} {
		if n := m.StoreUsedBytes(st); n < 0 {
			t.Fatalf("%s store usage went negative: %d", st, n)
		}
	}
	for v := 1; v <= vms; v++ {
		m.UnregisterVM(cleancache.VMID(v))
	}
	for _, st := range []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD} {
		if n := m.StoreUsedBytes(st); n != 0 {
			t.Fatalf("%s store holds %d bytes after full teardown", st, n)
		}
	}
}
