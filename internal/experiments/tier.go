// Tier experiment: capacity overcommit across the three-tier ladder. One
// guest works a set far larger than mem+SSD; with the remote tier off,
// capacity eviction throws the overflow away and re-reads go to the
// virtual disk, while with the remote tier on the same evictions demote
// through the write-behind queue and come back as slow hits with the
// modeled object-store round trip (and bill) charged. The comparison
// holds mem+SSD constant, so any hit-ratio gain is the third tier's
// doing — that gain is the gate the registry puts on this scenario.

package experiments

import (
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/hypervisor"
	"doubledecker/internal/sim"
	"doubledecker/internal/store/remote"
)

// tier scenario geometry: a 32 MiB cyclic working set against 2 MiB of
// memory cache and 4 MiB of SSD — overcommitted 5x — with 64 MiB of
// remote capacity when the tier is on. The guest's own page cache (8 MiB
// VM, 4 MiB container) is far smaller than the set, so clean evictions
// stream into the hypervisor cache continuously and overflow the SSD.
const (
	tiFileBlocks   = 8192 // 32 MiB working set
	tiVMMemMiB     = 8
	tiContainerMiB = 4
	tiMemCacheMiB  = 2
	tiSSDCacheMiB  = 4
	tiRemoteMiB    = 64
	tiReadTick     = 500 * time.Microsecond
	tiSeqBlocks    = 64 // sequential stride per tick
	tiSkipBlocks   = 32 // strided re-read per tick
	tiDuration     = 40 * time.Second
)

// TierModeResult summarizes one run of the overcommit scenario.
type TierModeResult struct {
	Label     string
	RemoteMiB int64
	// HitPct is the container pool's hypervisor-cache hit ratio; with the
	// remote tier on it includes the slow hits served from object storage.
	HitPct float64
	// TickUS is the mean guest-observed latency per driver tick in µs —
	// slow hits pay the modeled remote round trip, misses pay the disk.
	TickUS float64
	Ticks  int64
	// Demotions is the write-behind queue's final accounting.
	Demotions ddcache.DemotionStats
	// PoolDemotions counts objects the pool moved down the ladder.
	PoolDemotions int64
	// Breaker is the remote circuit breaker's final snapshot.
	Breaker ddcache.BreakerStats
	// Cost is the modeled object-store bill (requests, bytes, nano-$).
	Cost remote.CostStats
}

// runTierMode executes the overcommit scenario with or without the
// remote tier; mem and SSD capacities are identical in both modes.
func runTierMode(o Opts, label string, remoteMiB int64) TierModeResult {
	engine := sim.New(o.Seed)
	host := hypervisor.New(engine, hypervisor.Config{
		Mode:             ddcache.ModeDD,
		MemCacheBytes:    tiMemCacheMiB * MiB,
		SSDCacheBytes:    tiSSDCacheMiB * MiB,
		RemoteCacheBytes: remoteMiB * MiB,
	})
	vm := host.NewVM(1, tiVMMemMiB*MiB, 100)
	c := vm.NewContainer("overcommit", tiContainerMiB*MiB,
		cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})
	f := vm.Allocator().Alloc(tiFileBlocks)

	// Closed-loop driver: the next batch is issued only after the
	// previous one's modeled completion, so device and remote-pipe queues
	// stay bounded and the per-batch latency reflects service time — a
	// slow remote shows up as fewer, slower batches, not as a divergent
	// queue.
	var (
		pos    int64
		latSum time.Duration
		ticks  int64
		free   time.Duration
	)
	engine.Every(tiReadTick, func() {
		now := engine.Now()
		if now < free {
			return
		}
		l := c.Read(now, f, pos%f.Blocks, tiSeqBlocks)
		l += c.Read(now, f, (pos*7)%f.Blocks, tiSkipBlocks)
		pos += tiSeqBlocks
		latSum += l
		ticks++
		free = now + l
	})

	engine.Run(o.scaled(tiDuration))
	vm.Front().FlushTransport(engine.Now())
	host.Manager().FlushDemotions(engine.Now())

	res := TierModeResult{
		Label:         label,
		RemoteMiB:     remoteMiB,
		Ticks:         ticks,
		Demotions:     host.Manager().DemotionStats(),
		Breaker:       host.Manager().RemoteBreakerStats(),
		HitPct:        host.Manager().PoolStats(1, cleancache.PoolID(c.Group().PoolID())).HitRatio(),
		PoolDemotions: host.Manager().PoolStats(1, cleancache.PoolID(c.Group().PoolID())).Demotions,
	}
	if rs := host.Remote(); rs != nil {
		res.Cost = rs.Cost()
	}
	if ticks > 0 {
		res.TickUS = float64(latSum.Microseconds()) / float64(ticks)
	}
	return res
}

// TierExp is the registered "tier" experiment: capacity overcommit with
// and without the remote third tier at identical mem+SSD capacities.
func TierExp(o Opts) *Result {
	off := runTierMode(o, "remote-off", 0)
	on := runTierMode(o, "remote-on", tiRemoteMiB)
	// The third tier earns its keep only if this is positive.
	hitGain := on.HitPct - off.HitPct
	modes := []TierModeResult{off, on}
	r := newResult("tier", "Remote third tier under capacity overcommit")

	sum := Table{
		Title: "Overcommit runs (working set 32 MiB vs mem+SSD 6 MiB)",
		Columns: []string{"run", "remote MiB", "hit %", "tick µs",
			"demoted", "dropped", "cancelled", "pool demotions"},
	}
	for _, m := range modes {
		d := m.Demotions
		dropped := float64(d.DroppedFull + d.DroppedError + d.DroppedBreaker)
		sum.Rows = append(sum.Rows, []string{
			m.Label, f0(float64(m.RemoteMiB)), f1(m.HitPct), f1(m.TickUS),
			f0(float64(d.Drained)), f0(dropped),
			f0(float64(d.Cancelled)), f0(float64(m.PoolDemotions)),
		})
		r.metric(m.Label+".remote_mib", float64(m.RemoteMiB))
		r.metric(m.Label+".hit_pct", m.HitPct)
		r.metric(m.Label+".tick_us", m.TickUS)
		r.metric(m.Label+".ticks", float64(m.Ticks))
		r.metric(m.Label+".demoted", float64(d.Drained))
		r.metric(m.Label+".demotions_dropped", dropped)
		r.metric(m.Label+".demotions_cancelled", float64(d.Cancelled))
	}
	r.Tables = append(r.Tables, sum)

	bill := Table{
		Title:   "Modeled object-store bill",
		Columns: []string{"run", "requests", "MiB moved", "cost m$", "breaker", "trips"},
	}
	for _, m := range modes {
		state := "-"
		if m.RemoteMiB > 0 {
			state = m.Breaker.State
		}
		bill.Rows = append(bill.Rows, []string{
			m.Label, f0(float64(m.Cost.Requests)), f1(mib(m.Cost.Bytes)),
			f2(float64(m.Cost.CostNanos) / 1e6), state, f0(float64(m.Breaker.Trips)),
		})
		r.metric(m.Label+".remote_requests", float64(m.Cost.Requests))
		r.metric(m.Label+".remote_bytes", float64(m.Cost.Bytes))
		r.metric(m.Label+".remote_cost_nanos", float64(m.Cost.CostNanos))
		r.metric(m.Label+".breaker_trips", float64(m.Breaker.Trips))
	}
	r.Tables = append(r.Tables, bill)
	r.metric("hit_gain_points", hitGain)

	r.note("hit ratio %0.1f%% → %0.1f%% (+%.1f points) from the remote tier at identical mem+SSD; each slow hit paid the modeled round trip instead of a disk read",
		off.HitPct, on.HitPct, hitGain)
	r.note("write-behind drained %d demotions (%d cancelled by invalidation) at a modeled bill of %d requests / %.1f MiB",
		on.Demotions.Drained, on.Demotions.Cancelled, on.Cost.Requests, mib(on.Cost.Bytes))
	return r
}
