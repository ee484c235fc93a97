// Transport experiment: batched vs unbatched hypercall crossings under a
// sequential-write workload with periodic re-reads. Both modes replay the
// identical open-loop op schedule, so hit ratios match and the only
// difference is how many world switches carry the traffic — the §2.3/§5
// overhead argument, with the batching remedy the ROADMAP calls for.

package experiments

import (
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/hypervisor"
	"doubledecker/internal/metrics"
	"doubledecker/internal/sim"
)

// transport scenario geometry: a 64 MiB file streamed through a 16 MiB
// container, so every written block is reclaimed into the hypervisor
// cache; a reader trails the write head re-reading reclaimed blocks.
const (
	trFileBlocks    = 16384 // 64 MiB
	trContainerMiB  = 16
	trMemCacheMiB   = 128
	trWriteTick     = 2 * time.Millisecond
	trBlocksPerTick = 64
	trReadEvery     = 32   // ticks between read bursts
	trReadBlocks    = 256  // blocks per read burst
	trReadLag       = 8192 // blocks behind the write head
	trDuration      = 20 * time.Second
)

// TransportModeResult summarizes one transport mode's run.
type TransportModeResult struct {
	Label        string
	Calls        int64 // world switches
	PagesCopied  int64
	Batches      int64
	BatchedOps   int64
	SyncOps      int64
	Ops          int64 // total operations delivered
	CallsPerOp   float64
	HitPct       float64
	MeanBatchOps float64 // mean batch occupancy (ops per crossing)
	// OpLatencyNS maps op-code name → mean charged latency in ns.
	OpLatencyNS map[string]int64
}

// runTransportMode replays the sequential-write schedule over one
// transport configuration.
func runTransportMode(o Opts, label string, unbatched bool) TransportModeResult {
	engine := sim.New(o.Seed)
	reg := metrics.NewRegistry()
	// NoPipeline on both modes: this experiment isolates batching, so the
	// stock pipelined-read defaults (async gets, readahead) must not give
	// the batched side a different op schedule than the unbatched
	// baseline — both run the read loop one probe at a time.
	host := hypervisor.New(engine, hypervisor.Config{
		MemCacheBytes: trMemCacheMiB * MiB,
		Transport:     hypercall.Options{Unbatched: unbatched, Metrics: reg},
		NoPipeline:    true,
	})
	vm := host.NewVM(1, 256*MiB, 100)
	c := vm.NewContainer("seqwriter", trContainerMiB*MiB,
		cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	pool := cleancache.PoolID(c.Group().PoolID())
	f := vm.Allocator().Alloc(trFileBlocks)

	// Open-loop driver: fixed work per tick regardless of op latency, so
	// batched and unbatched runs issue the identical op sequence.
	var head int64
	tick := 0
	engine.Every(trWriteTick, func() {
		now := engine.Now()
		c.Write(now, f, head, trBlocksPerTick)
		head = (head + trBlocksPerTick) % trFileBlocks
		tick++
		if tick%trReadEvery == 0 {
			back := (head - trReadLag + trFileBlocks) % trFileBlocks
			c.Read(now, f, back, trReadBlocks)
		}
	})

	engine.Run(o.scaled(trDuration))
	vm.Front().FlushTransport(engine.Now())

	st := host.Transport(1).Stats()
	res := TransportModeResult{
		Label:       label,
		Calls:       st.Calls,
		PagesCopied: st.PagesCopied,
		Batches:     st.Batches,
		BatchedOps:  st.BatchedOps,
		SyncOps:     st.SyncOps,
		Ops:         st.BatchedOps + st.SyncOps,
		OpLatencyNS: make(map[string]int64),
	}
	if res.Ops > 0 {
		res.CallsPerOp = float64(res.Calls) / float64(res.Ops)
	}
	res.HitPct = host.Manager().PoolStats(1, pool).HitRatio()
	res.MeanBatchOps = reg.Series("hypercall.batch_ops").Mean()
	for _, op := range cleancache.OpCodes() {
		if h := reg.Histogram("hypercall.lat." + op.String()); h.Count() > 0 {
			res.OpLatencyNS[op.String()] = h.Mean().Nanoseconds()
		}
	}
	return res
}

// TransportExp is the registered "transport" experiment: hypercall
// traffic with and without batching at equal hit ratio.
func TransportExp(o Opts) *Result {
	batched := runTransportMode(o, "batched", false)
	unbatched := runTransportMode(o, "unbatched", true)
	reduction := 0.0
	if batched.Calls > 0 {
		reduction = float64(unbatched.Calls) / float64(batched.Calls)
	}
	r := newResult("transport", "Batched vs unbatched hypercall transport, sequential-write workload")

	traffic := Table{
		Title: "Transport traffic",
		Columns: []string{"transport", "hypercalls", "ops", "hypercalls/op",
			"pages copied", "batches", "mean batch ops", "hit %"},
	}
	for _, m := range []TransportModeResult{unbatched, batched} {
		traffic.Rows = append(traffic.Rows, []string{
			m.Label, f0(float64(m.Calls)), f0(float64(m.Ops)), f2(m.CallsPerOp),
			f0(float64(m.PagesCopied)), f0(float64(m.Batches)), f1(m.MeanBatchOps), f1(m.HitPct),
		})
		r.metric(m.Label+".hypercalls", float64(m.Calls))
		r.metric(m.Label+".ops", float64(m.Ops))
		r.metric(m.Label+".hypercalls_per_op", m.CallsPerOp)
		r.metric(m.Label+".pages_copied", float64(m.PagesCopied))
		r.metric(m.Label+".batches", float64(m.Batches))
		r.metric(m.Label+".mean_batch_ops", m.MeanBatchOps)
		r.metric(m.Label+".hit_pct", m.HitPct)
	}
	r.Tables = append(r.Tables, traffic)

	lat := Table{
		Title:   "Mean charged latency per op code (ns)",
		Columns: []string{"op", "unbatched", "batched"},
	}
	for _, op := range cleancache.OpCodes() {
		ub, okU := unbatched.OpLatencyNS[op.String()]
		bb, okB := batched.OpLatencyNS[op.String()]
		if !okU && !okB {
			continue
		}
		lat.Rows = append(lat.Rows, []string{op.String(), f0(float64(ub)), f0(float64(bb))})
		for _, m := range []TransportModeResult{unbatched, batched} {
			if ns, ok := m.OpLatencyNS[op.String()]; ok {
				r.metric(m.Label+".op_latency_ns."+op.String(), float64(ns))
			}
		}
	}
	r.Tables = append(r.Tables, lat)
	r.metric("hypercall_reduction", reduction)

	r.note("hypercall reduction: %.1fx fewer world switches with batching (%d → %d) at equal hit ratio (%.1f%% vs %.1f%%)",
		reduction, unbatched.Calls, batched.Calls, unbatched.HitPct, batched.HitPct)
	r.note("gets and control ops stay synchronous and drain the ring first, so the backend observes the unbatched op order; puts/flushes amortize one world switch across up to 512 ops / 2 MiB of pages")
	return r
}
