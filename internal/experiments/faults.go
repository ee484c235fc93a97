// Faults experiment: graceful SSD degradation under a device stall. Two
// VMs share the host cache — VM1 in a memory pool, VM2 in an SSD pool —
// and the host SSD stalls for a 10 s window mid-run. The circuit breaker
// must trip (shedding SSD traffic to memory-or-miss), then restore after
// the stall, and VM1's latency must stay bounded throughout: a failing
// device one VM depends on must not become a noisy neighbour for the
// others.

package experiments

import (
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/fault"
	"doubledecker/internal/fsmodel"
	"doubledecker/internal/guest"
	"doubledecker/internal/hypervisor"
	"doubledecker/internal/sim"
)

// faults scenario geometry: each VM streams a 32 MiB file through an
// 8 MiB container with trailing re-reads of reclaimed blocks, for 30 s;
// the host SSD stalls during [10 s, 20 s). The offered load is sized well
// below the simulated SSD's service rate (8 puts per 4 ms tick ≈ 14%
// utilization plus read bursts) so queues stay short and per-op times
// track virtual time — a stall then shows up as the breaker's doing, not
// as pre-existing queue delay.
const (
	ftFileBlocks    = 8192 // 32 MiB
	ftContainerMiB  = 8
	ftMemCacheMiB   = 64
	ftSSDCacheMiB   = 256
	ftWriteTick     = 4 * time.Millisecond
	ftBlocksPerTick = 8
	ftReadEvery     = 8    // ticks between read bursts
	ftReadBlocks    = 32   // blocks per read burst
	ftReadLag       = 2560 // blocks behind the write head (past the container window)
	ftDuration      = 30 * time.Second
	ftStallFrom     = 10 * time.Second
	ftStallTo       = 20 * time.Second
	ftStallTimeout  = time.Millisecond // modeled device timeout per stalled op
)

// Phase indices for the per-phase latency breakdown.
const (
	phaseBefore = iota
	phaseDuring
	phaseAfter
	phaseCount
)

// phaseKeys names the phases relative to the stall window in metric names.
var phaseKeys = [phaseCount]string{"before", "during", "after"}

// FaultsModeResult summarizes one run of the scenario (healthy or with
// the injected stall).
type FaultsModeResult struct {
	Label string
	// VM1TickUS / VM2TickUS are each VM's mean per-tick latency in µs,
	// split by phase relative to the stall window.
	VM1TickUS [phaseCount]float64
	VM2TickUS [phaseCount]float64
	// VM1HitPct / VM2HitPct are hypervisor-cache hit ratios.
	VM1HitPct float64
	VM2HitPct float64
	// Ticks is the number of driver ticks executed across both VMs.
	Ticks int64
	// Breaker is the SSD circuit breaker's final snapshot.
	Breaker ddcache.BreakerStats
	// InjectedFaults counts the faults the plan actually fired.
	InjectedFaults int64
}

// runFaultsMode executes the two-VM scenario, optionally with the SSD
// stall plan installed.
func runFaultsMode(o Opts, label string, withFaults bool) FaultsModeResult {
	engine := sim.New(o.Seed)
	stallFrom, stallTo := o.scaled(ftStallFrom), o.scaled(ftStallTo)
	var inj *fault.Injector
	if withFaults {
		inj = fault.New(fault.Plan{Seed: o.Seed, Rules: []fault.Rule{
			{Site: "host-ssd.*", Kind: fault.KindStall, From: stallFrom, To: stallTo, Delay: ftStallTimeout},
		}})
	}
	host := hypervisor.New(engine, hypervisor.Config{
		MemCacheBytes: ftMemCacheMiB * MiB,
		SSDCacheBytes: ftSSDCacheMiB * MiB,
		Faults:        inj,
		Breaker: ddcache.BreakerConfig{
			Threshold: 5,
			Window:    o.scaled(time.Second),
			Cooldown:  o.scaled(2 * time.Second),
			Probes:    3,
		},
	})
	vm1 := host.NewVM(1, 128*MiB, 50)
	vm2 := host.NewVM(2, 128*MiB, 50)
	c1 := vm1.NewContainer("vm1-mem", ftContainerMiB*MiB,
		cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	c2 := vm2.NewContainer("vm2-ssd", ftContainerMiB*MiB,
		cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})
	f1 := vm1.Allocator().Alloc(ftFileBlocks)
	f2 := vm2.Allocator().Alloc(ftFileBlocks)

	phase := func(now time.Duration) int {
		switch {
		case now < stallFrom:
			return phaseBefore
		case now < stallTo:
			return phaseDuring
		default:
			return phaseAfter
		}
	}
	// Per-VM, per-phase tick latency accumulators. The open-loop drivers
	// issue identical schedules in both modes, so any latency difference
	// is the fault plan's doing.
	var latSum [2][phaseCount]time.Duration
	var latN [2][phaseCount]int64
	type vmDriver struct {
		c         *guest.Container
		f         *fsmodel.File
		headTotal int64
		tick      int
	}
	drivers := [2]*vmDriver{{c: c1, f: f1}, {c: c2, f: f2}}
	for i, d := range drivers {
		idx, d := i, d
		engine.Every(ftWriteTick, func() {
			now := engine.Now()
			ph := phase(now)
			l := d.c.Write(now, d.f, d.headTotal%ftFileBlocks, ftBlocksPerTick)
			d.headTotal += ftBlocksPerTick
			d.tick++
			// Re-read reclaimed blocks once the head is far enough along
			// that the lagged window has actually been written.
			if d.tick%ftReadEvery == 0 && d.headTotal >= ftReadLag+ftReadBlocks {
				back := (d.headTotal - ftReadLag) % ftFileBlocks
				l += d.c.Read(now, d.f, back, ftReadBlocks)
			}
			latSum[idx][ph] += l
			latN[idx][ph]++
		})
	}

	engine.Run(o.scaled(ftDuration))
	vm1.Front().FlushTransport(engine.Now())
	vm2.Front().FlushTransport(engine.Now())

	res := FaultsModeResult{
		Label:          label,
		Breaker:        host.Manager().SSDBreakerStats(),
		InjectedFaults: inj.Injected(fault.KindNone),
	}
	for vmIdx := 0; vmIdx < 2; vmIdx++ {
		for ph := 0; ph < phaseCount; ph++ {
			res.Ticks += latN[vmIdx][ph]
			if latN[vmIdx][ph] == 0 {
				continue
			}
			us := float64(latSum[vmIdx][ph].Microseconds()) / float64(latN[vmIdx][ph])
			if vmIdx == 0 {
				res.VM1TickUS[ph] = us
			} else {
				res.VM2TickUS[ph] = us
			}
		}
	}
	res.VM1HitPct = host.Manager().PoolStats(1, cleancache.PoolID(c1.Group().PoolID())).HitRatio()
	res.VM2HitPct = host.Manager().PoolStats(2, cleancache.PoolID(c2.Group().PoolID())).HitRatio()
	return res
}

// FaultsExp is the registered "faults" experiment: VM2's SSD pool
// survives a 10 s device stall, with bounded latency impact on VM1.
func FaultsExp(o Opts) *Result {
	healthy := runFaultsMode(o, "healthy", false)
	faulted := runFaultsMode(o, "ssd-stall", true)
	// VM1's during-stall mean tick latency relative to the healthy run:
	// the noisy-neighbour factor the breaker is meant to bound.
	vm1Impact := 0.0
	if healthy.VM1TickUS[phaseDuring] > 0 {
		vm1Impact = faulted.VM1TickUS[phaseDuring] / healthy.VM1TickUS[phaseDuring]
	}
	modes := []FaultsModeResult{healthy, faulted}
	r := newResult("faults", "SSD device stall: circuit-breaker degradation and recovery")

	lat := Table{
		Title:   "Mean per-tick latency (µs) by phase",
		Columns: []string{"run", "vm", "before stall", "during stall", "after stall"},
	}
	for _, m := range modes {
		lat.Rows = append(lat.Rows,
			[]string{m.Label, "vm1 (mem)", f1(m.VM1TickUS[phaseBefore]), f1(m.VM1TickUS[phaseDuring]), f1(m.VM1TickUS[phaseAfter])},
			[]string{m.Label, "vm2 (ssd)", f1(m.VM2TickUS[phaseBefore]), f1(m.VM2TickUS[phaseDuring]), f1(m.VM2TickUS[phaseAfter])},
		)
		for ph, key := range phaseKeys {
			r.metric(m.Label+".vm1_tick_us."+key, m.VM1TickUS[ph])
			r.metric(m.Label+".vm2_tick_us."+key, m.VM2TickUS[ph])
		}
	}
	r.Tables = append(r.Tables, lat)

	sum := Table{
		Title:   "Run summary",
		Columns: []string{"run", "vm1 hit %", "vm2 hit %", "breaker", "trips", "restores", "injected faults"},
	}
	for _, m := range modes {
		sum.Rows = append(sum.Rows, []string{
			m.Label, f1(m.VM1HitPct), f1(m.VM2HitPct),
			m.Breaker.State, f0(float64(m.Breaker.Trips)), f0(float64(m.Breaker.Restores)),
			f0(float64(m.InjectedFaults)),
		})
		r.metric(m.Label+".vm1_hit_pct", m.VM1HitPct)
		r.metric(m.Label+".vm2_hit_pct", m.VM2HitPct)
		r.metric(m.Label+".ticks", float64(m.Ticks))
		r.metric(m.Label+".breaker_trips", float64(m.Breaker.Trips))
		r.metric(m.Label+".breaker_probes", float64(m.Breaker.Probes))
		r.metric(m.Label+".breaker_restores", float64(m.Breaker.Restores))
		r.metric(m.Label+".injected_faults", float64(m.InjectedFaults))
	}
	r.Tables = append(r.Tables, sum)
	r.metric("vm1_impact", vm1Impact)

	r.note("VM2's SSD pool survives the stall: the breaker trips (%d) and restores (%d), puts degrade to memory-or-miss instead of eating the %v device timeout per op",
		faulted.Breaker.Trips, faulted.Breaker.Restores, ftStallTimeout)
	r.note("VM1 during-stall latency impact: %.2fx the healthy baseline (cleancache contract: every degraded op is a safe drop or miss, never an error surfaced to the guest)",
		vm1Impact)
	return r
}
