// Liveness experiment: tail-latency bounds under transport chaos. Two
// streaming VMs (one memory pool, one SSD pool) run the same workload in
// four configurations — {healthy, stall-heavy transport faults} ×
// {deadlines on, off}. With the latency budget armed, every
// guest-observed get must be charged at most the budget even while
// crossings stall and completions are lost (p99 and max bounded); with
// deadlines off the same fault plan drives the tail past the budget.
// On the healthy baseline the deadline machinery must be free: hit
// ratio within two points of the no-deadline run.

package experiments

import (
	"fmt"
	"math"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/fault"
	"doubledecker/internal/fsmodel"
	"doubledecker/internal/guest"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/hypervisor"
	"doubledecker/internal/metrics"
	"doubledecker/internal/sim"
)

// liveness scenario geometry: each VM streams a 32 MiB file through an
// 8 MiB container with lagged re-read bursts (past the container window,
// so bursts exercise the hypervisor cache), for 20 s. The latency budget
// sits above the healthy pipeline's worst case and below the injected
// stalls, so deadline misses are the fault plan's doing, never the
// healthy pipeline's.
const (
	lvFileBlocks    = 8192 // 32 MiB
	lvContainerMiB  = 8
	lvMemCacheMiB   = 64
	lvSSDCacheMiB   = 256
	lvWriteTick     = 2 * time.Millisecond
	lvBlocksPerTick = 8
	lvReadEvery     = 4    // ticks between read bursts
	lvReadBlocks    = 32   // blocks per read burst
	lvReadLag       = 2560 // blocks behind the write head
	lvDuration      = 20 * time.Second
	// lvBudget is the per-get latency budget (unscaled: it tracks modeled
	// device latencies, not run length). The healthy worst case is an SSD
	// readahead fill behind a full-ring drain (~3 ms of serial backend
	// latency); the budget sits above that and well below the injected
	// 15–20 ms stalls, so healthy runs never miss a deadline and stalled
	// crossings always do.
	lvBudget       = 5 * time.Millisecond
	lvInflightGets = 128 // per-VM tagged-get cap
	lvQueuedOps    = 400 // per-VM batch-queue cap
)

// livenessStallPlan is the stall-heavy transport fault plan: latency
// injections well past the budget on both crossing directions, plus
// dropped batches (retry/backoff) and dropped completion frames
// (watchdog or await-fallback territory).
func livenessStallPlan(seed int64) fault.Plan {
	return fault.Plan{Seed: seed, Rules: []fault.Rule{
		{Site: hypercall.SiteBatch, Kind: fault.KindLatency, Prob: 0.2, Delay: 20 * time.Millisecond},
		{Site: hypercall.SiteBatch, Kind: fault.KindDrop, Prob: 0.1},
		{Site: hypercall.SiteCompletion, Kind: fault.KindDrop, Prob: 0.25},
		{Site: hypercall.SiteCall, Kind: fault.KindLatency, Prob: 0.3, Delay: 15 * time.Millisecond},
	}}
}

// LivenessModeResult summarizes one of the four runs.
type LivenessModeResult struct {
	Label     string
	Deadlines bool
	// Gets is the number of guest-observed get resolutions; the
	// percentiles below are over their charged latencies in µs.
	Gets     int64
	GetP50US float64
	GetP99US float64
	GetMaxUS float64
	// HitPct is the hypervisor-cache hit ratio aggregated over both
	// VMs' pools.
	HitPct float64
	// DeadlineMisses counts gets clamped to the budget; WatchdogFails
	// the waiters the sweep failed outright.
	DeadlineMisses int64
	WatchdogFails  int64
	// ShedGets / ShedOps count admission-control rejections (inflight
	// cap and queue cap respectively).
	ShedGets int64
	ShedOps  int64
	// DeadlineFallbacks counts guest reads that fell back to the
	// virtual disk because their get expired.
	DeadlineFallbacks int64
	// Ticks is the number of driver ticks across both VMs; MeanTickUS
	// their mean latency in µs.
	Ticks      int64
	MeanTickUS float64
	// Leaked* are post-teardown table sizes — all must be zero.
	LeakedWaiters int64
	LeakedStaged  int64
	LeakedPending int64
	// InjectedFaults counts the faults the plan actually fired.
	InjectedFaults int64
}

// lvBudgetUS is the armed per-get budget in µs, the bound the stall-on
// run's p99 and max must respect.
const lvBudgetUS = float64(lvBudget / time.Microsecond)

// The four runs of the 2×2 matrix, in table order.
var lvRuns = []struct {
	label                 string
	withFaults, deadlines bool
}{
	{"healthy/no-deadline", false, false},
	{"healthy/deadlines", false, true},
	{"stall/no-deadline", true, false},
	{"stall/deadlines", true, true},
}

// livenessGates bounds the stall-plan tail by the budget, the deadline
// machinery's healthy-run cost by two hit-ratio points, and every
// post-teardown table size by zero.
func livenessGates() []Gate {
	gates := []Gate{
		{"stall/deadlines.get_p99_us", "<=", lvBudgetUS},
		{"stall/deadlines.get_max_us", "<=", lvBudgetUS},
		{"healthy_hit_delta_points", "<=", 2},
	}
	for _, run := range lvRuns {
		for _, table := range []string{"waiters", "staged", "pending"} {
			gates = append(gates, Gate{run.label + ".leaked_" + table, "==", 0})
		}
	}
	return gates
}

// runLivenessMode executes the two-VM scenario in one configuration.
func runLivenessMode(o Opts, label string, withFaults, deadlines bool) LivenessModeResult {
	engine := sim.New(o.Seed)
	reg := metrics.NewRegistry()
	var inj *fault.Injector
	if withFaults {
		inj = fault.New(livenessStallPlan(o.Seed))
	}
	cfg := hypervisor.Config{
		MemCacheBytes: lvMemCacheMiB * MiB,
		SSDCacheBytes: lvSSDCacheMiB * MiB,
		Faults:        inj,
		Transport:     hypercall.Options{MaxInflightGets: lvInflightGets, MaxQueuedOps: lvQueuedOps, Metrics: reg},
		// SSD-class guest disks: deadline fallbacks re-read from the
		// VM's virtual disk, and the open-loop drivers would swamp the
		// default HDD model's ~8 ms/op service rate under the stall
		// plan — the subject here is the transport budget, not disk
		// queueing.
		VMDiskFactory: func(id cleancache.VMID) blockdev.Device {
			return blockdev.NewSSD(fmt.Sprintf("lv-vm%d-disk", id))
		},
	}
	if deadlines {
		cfg.Transport.OpBudget = lvBudget
		cfg.WatchdogPeriod = lvBudget / 2
	}
	host := hypervisor.New(engine, cfg)
	vm1 := host.NewVM(1, 128*MiB, 50)
	vm2 := host.NewVM(2, 128*MiB, 50)
	c1 := vm1.NewContainer("vm1-mem", lvContainerMiB*MiB,
		cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	c2 := vm2.NewContainer("vm2-ssd", lvContainerMiB*MiB,
		cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})
	f1 := vm1.Allocator().Alloc(lvFileBlocks)
	f2 := vm2.Allocator().Alloc(lvFileBlocks)

	var tickSum time.Duration
	var ticks int64
	type vmDriver struct {
		c         *guest.Container
		f         *fsmodel.File
		headTotal int64
		tick      int
	}
	drivers := [2]*vmDriver{{c: c1, f: f1}, {c: c2, f: f2}}
	for _, d := range drivers {
		d := d
		engine.Every(lvWriteTick, func() {
			now := engine.Now()
			l := d.c.Write(now, d.f, d.headTotal%lvFileBlocks, lvBlocksPerTick)
			d.headTotal += lvBlocksPerTick
			d.tick++
			if d.tick%lvReadEvery == 0 && d.headTotal >= lvReadLag+lvReadBlocks {
				back := (d.headTotal - lvReadLag) % lvFileBlocks
				l += d.c.Read(now, d.f, back, lvReadBlocks)
			}
			tickSum += l
			ticks++
		})
	}

	engine.Run(o.scaled(lvDuration))

	// Aggregate pool and per-container stats before teardown frees them.
	var hits, gets int64
	for _, c := range []*guest.Container{c1, c2} {
		ps := c.CacheStats()
		hits += ps.GetHits + ps.ReadAheadHits
		gets += ps.Gets + ps.ReadAheadGets
	}
	fallbacks := c1.IOStats().DeadlineFallbacks + c2.IOStats().DeadlineFallbacks

	// Tear both VMs down with whatever is still in flight — the
	// crash-safe path — then audit the transports for leaks.
	tr1, tr2 := host.Transport(1), host.Transport(2)
	host.DestroyVM(vm1)
	host.DestroyVM(vm2)

	res := LivenessModeResult{
		Label:             label,
		Deadlines:         deadlines,
		InjectedFaults:    inj.Injected(fault.KindNone),
		DeadlineFallbacks: fallbacks,
		Ticks:             ticks,
	}
	if ticks > 0 {
		res.MeanTickUS = float64(tickSum.Microseconds()) / float64(ticks)
	}
	if gets > 0 {
		res.HitPct = 100 * float64(hits) / float64(gets)
	}
	h := reg.Histogram("hypercall.lat.GET")
	res.Gets = h.Count()
	res.GetP50US = float64(h.Quantile(0.50)) / float64(time.Microsecond)
	res.GetP99US = float64(h.Quantile(0.99)) / float64(time.Microsecond)
	res.GetMaxUS = float64(h.Max()) / float64(time.Microsecond)
	for _, tr := range []*hypercall.Transport{tr1, tr2} {
		s := tr.Stats()
		res.DeadlineMisses += s.DeadlineMisses
		res.WatchdogFails += s.WatchdogFails
		res.ShedGets += s.ShedGets
		res.ShedOps += s.ShedOps
		res.LeakedWaiters += s.Waiters
		res.LeakedStaged += s.StagedPages
		res.LeakedPending += s.Pending
	}
	return res
}

// LivenessExp is the registered "liveness" experiment: bounded guest
// tail latency under transport chaos with the per-op budget armed.
func LivenessExp(o Opts) *Result {
	var modes []LivenessModeResult
	for _, run := range lvRuns {
		modes = append(modes, runLivenessMode(o, run.label, run.withFaults, run.deadlines))
	}
	healthyOff, healthyOn, stallOff, stallOn := modes[0], modes[1], modes[2], modes[3]
	// The deadline machinery's cost on a fault-free run, in points.
	healthyHitDelta := math.Abs(healthyOn.HitPct - healthyOff.HitPct)
	r := newResult("liveness", "Latency-budget liveness: bounded tails under transport chaos")

	lat := Table{
		Title:   "Guest-observed get latency (µs)",
		Columns: []string{"run", "gets", "p50", "p99", "max", "hit %", "mean tick µs"},
	}
	sum := Table{
		Title:   "Deadline and admission accounting",
		Columns: []string{"run", "deadline misses", "watchdog fails", "shed gets", "shed ops", "disk fallbacks", "leaks (w/s/p)", "injected faults"},
	}
	for _, m := range modes {
		lat.Rows = append(lat.Rows, []string{
			m.Label, f0(float64(m.Gets)), f1(m.GetP50US), f1(m.GetP99US), f1(m.GetMaxUS),
			f1(m.HitPct), f1(m.MeanTickUS),
		})
		sum.Rows = append(sum.Rows, []string{
			m.Label, f0(float64(m.DeadlineMisses)), f0(float64(m.WatchdogFails)),
			f0(float64(m.ShedGets)), f0(float64(m.ShedOps)), f0(float64(m.DeadlineFallbacks)),
			f0(float64(m.LeakedWaiters)) + "/" + f0(float64(m.LeakedStaged)) + "/" + f0(float64(m.LeakedPending)),
			f0(float64(m.InjectedFaults)),
		})
		deadlines := 0.0
		if m.Deadlines {
			deadlines = 1
		}
		r.metric(m.Label+".deadlines", deadlines)
		r.metric(m.Label+".gets", float64(m.Gets))
		r.metric(m.Label+".get_p50_us", m.GetP50US)
		r.metric(m.Label+".get_p99_us", m.GetP99US)
		r.metric(m.Label+".get_max_us", m.GetMaxUS)
		r.metric(m.Label+".hit_pct", m.HitPct)
		r.metric(m.Label+".mean_tick_us", m.MeanTickUS)
		r.metric(m.Label+".deadline_misses", float64(m.DeadlineMisses))
		r.metric(m.Label+".watchdog_fails", float64(m.WatchdogFails))
		r.metric(m.Label+".shed_gets", float64(m.ShedGets))
		r.metric(m.Label+".shed_ops", float64(m.ShedOps))
		r.metric(m.Label+".deadline_fallbacks", float64(m.DeadlineFallbacks))
		r.metric(m.Label+".leaked_waiters", float64(m.LeakedWaiters))
		r.metric(m.Label+".leaked_staged", float64(m.LeakedStaged))
		r.metric(m.Label+".leaked_pending", float64(m.LeakedPending))
		r.metric(m.Label+".injected_faults", float64(m.InjectedFaults))
	}
	r.Tables = append(r.Tables, lat, sum)
	r.metric("budget_us", lvBudgetUS)
	r.metric("healthy_hit_delta_points", healthyHitDelta)

	r.note("under the stall plan with deadlines armed, p99 get latency is %.0f µs and max %.0f µs against a %.0f µs budget; with deadlines off the same plan drives max to %.0f µs",
		stallOn.GetP99US, stallOn.GetMaxUS, lvBudgetUS, stallOff.GetMaxUS)
	r.note("healthy-baseline cost of the deadline machinery: hit ratio moves %.2f points (%.1f%% -> %.1f%%)",
		healthyHitDelta, healthyOff.HitPct, healthyOn.HitPct)
	r.note("every over-budget crossing fails as a miss (cleancache contract: never an error, never data loss); the guest re-reads from its virtual disk — %d fallbacks under the stall plan, each paying the disk's own queueing instead of an unbounded transport wait",
		stallOn.DeadlineFallbacks)
	return r
}
