// One pass over a full-stack workload: set up (build, Prepare, warm up),
// measure the pinned window, quiesce, and derive the metrics.

package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/sim"
	"doubledecker/internal/workload"
)

// windowSlices is how many equal virtual-time slices the measured window
// is timed in; the slices localise host-speed drift inside a window.
const windowSlices = 20

// pass is everything one pass over a workload yields.
type pass struct {
	ops            int64
	steps          int64 // latency samples behind the percentiles
	windowVirtualS float64
	windowHostS    float64
	halvesRatio    float64

	e2e      map[string]float64
	layers   map[string]float64
	counters map[string]int64 // exact counters at quiesce (mgr-mixed: after its ordered pass); must repeat bit for bit
	p99Label string           // the percentile sim_op_p99_us actually reports

	failed   int64
	problems []string // output checks that failed, by name
}

func (p *pass) problemf(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// geometrySeed seeds the filesets, which are part of a workload's
// definition and not of its input sequence.
const geometrySeed = 20170712

// prepared is a stack that has finished set-up and is ready to measure.
type prepared struct {
	st      *stack
	tr      *tracer
	runners []*workload.Runner
	probes  []*probe
	window  time.Duration
	setupS  float64
}

// scaleDuration scales a pinned window by -seconds/referenceSeconds.
func scaleDuration(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// setupFullStack builds the stack, allocates the filesets, runs Prepare and
// the warm-up window. tr nil builds the stock stack.
func setupFullStack(fs fullStack, seed int64, scale float64, tr *tracer) *prepared {
	t0 := hostNs()
	engine := sim.New(seed)
	st := buildStack(engine, fs.host, fs.vms, tr)
	pr := &prepared{st: st, tr: tr, window: scaleDuration(fs.window, scale)}
	for i, c := range st.containers {
		// Each container's workload has its own PRNG. Building and
		// preparing it draws the geometry (file sizes) from a fixed seed,
		// so every run of the workload has the same filesets; -seed then
		// decides the sequence of operations run against them.
		rng := rand.New(rand.NewSource(geometrySeed + int64(i)))
		p := &probe{inner: fs.profile(rng, c.VM()), tr: tr}
		pr.probes = append(pr.probes, p)
		pr.runners = append(pr.runners, workload.Start(engine, c, p, fs.threads))
		rng.Seed(seed*int64(len(st.containers)) + int64(i))
	}
	warmup := scaleDuration(fs.warmup, scale)
	if warmup < fs.minWarmup {
		warmup = fs.minWarmup
	}
	// The engine only stops early when something calls Stop; nothing does.
	_ = engine.Run(warmup)
	// Size the latency sample buffers from the warm-up's step rate, so the
	// measured window does not pay for growing them.
	for i, r := range pr.runners {
		est := float64(r.Ops()) * float64(pr.window) / float64(warmup)
		pr.probes[i].lat = make([]int64, 0, int(est*1.5)+1024)
	}
	pr.setupS = float64(hostNs()-t0) / 1e9
	return pr
}

func (pr *prepared) payloadOps() int64 {
	var bytes int64
	for _, r := range pr.runners {
		bytes += r.Bytes()
	}
	return bytes / 4096
}

// measure runs the pinned window and derives every metric.
func (pr *prepared) measure() *pass {
	st, engine := pr.st, pr.st.engine
	res := &pass{e2e: map[string]float64{}}

	c0 := st.snapshot(pr.runners)
	ops0 := pr.payloadOps()
	for _, p := range pr.probes {
		p.recording = true
	}
	if pr.tr != nil {
		pr.tr.enabled = true
	}
	meter := startMeter()

	start := engine.Now()
	var sliceNs, sliceOps [windowSlices]int64
	prevOps := ops0
	h0 := hostNs()
	prevNs := h0
	for i := 0; i < windowSlices; i++ {
		_ = engine.Run(start + pr.window*time.Duration(i+1)/windowSlices) // never stopped, as above
		now, ops := hostNs(), pr.payloadOps()
		sliceNs[i], sliceOps[i] = now-prevNs, ops-prevOps
		prevNs, prevOps = now, ops
	}
	wallNs := prevNs - h0
	res.ops = prevOps - ops0
	rates := make([]float64, windowSlices)
	addSliceRates(rates, sliceOps[:], sliceNs[:])
	meter.finish(res, rates)

	if pr.tr != nil {
		pr.tr.enabled = false
	}
	for _, p := range pr.probes {
		p.recording = false
	}
	c1 := st.snapshot(pr.runners)

	res.windowVirtualS = (engine.Now() - start).Seconds()
	res.windowHostS = float64(wallNs) / 1e9
	d := delta(c0, c1)
	res.e2e["sim_mib_per_s"] = float64(res.ops) * 4096 / mib / res.windowVirtualS
	var lat []int64
	for _, p := range pr.probes {
		lat = append(lat, p.lat...)
	}
	p50, p99 := res.setLatency(lat)
	// Read misses only: a whole-block write that misses the page cache also
	// counts in IOStats.Misses, and the second-chance cache cannot serve it.
	res.e2e["sim_hit_pct"] = pct(d.sum(".io.CCHits"), d.sum(".io.CCHits")+d.sum(".io.DiskReads"))

	// Quiesce, then check what must hold of a drained stack.
	for _, r := range pr.runners {
		r.Stop()
	}
	now := engine.Now()
	for _, vm := range st.vms {
		vm.Front().FlushTransport(now)
	}
	st.manager.FlushDemotions(now)
	res.counters = st.snapshot(pr.runners)
	res.counters["window.ops"] = res.ops
	res.counters["window.steps"] = res.steps
	res.counters["window.lat_p50_ns"] = p50
	res.counters["window.lat_p99_ns"] = p99
	st.checkQuiesced(res)
	res.failed = failedOps(res.counters)

	if pr.tr != nil {
		res.layers = layerMetrics(pr.tr, d, res, len(st.vms))
	}
	return res
}

// hostMeter is the host side of a measured window: CPU time and heap
// counters from its start to its end.
type hostMeter struct {
	heap heapCounters
	cpu  int64
}

// startMeter starts from a collected heap: garbage left by set-up is not
// the window's cost.
func startMeter() hostMeter {
	runtime.GC()
	return hostMeter{heap: readHeap(), cpu: cpuNs()}
}

// addSliceRates adds a worker's ops per host second in each of the window's
// equal slices to rates: workers that run side by side add up.
func addSliceRates(rates []float64, ops, ns []int64) {
	for i := range rates {
		if ns[i] > 0 {
			rates[i] += float64(ops[i]) / (float64(ns[i]) / 1e9)
		}
	}
}

// finish fills in the host metrics of a window of res.ops ops, whose
// slices ran at rates ops per host second.
func (m hostMeter) finish(res *pass, rates []float64) {
	cpu, heap := cpuNs(), readHeap()
	ops := float64(res.ops)
	res.e2e["host_cpu_ns_per_op"] = float64(cpu-m.cpu) / ops
	res.e2e["host_allocs_per_op"] = float64(heap.mallocs-m.heap.mallocs) / ops
	res.e2e["host_alloc_bytes_per_op"] = float64(heap.allocBytes-m.heap.allocBytes) / ops
	res.e2e["host_live_heap_mib"] = liveHeapMiB()

	// The median over the slices is steadier than ops over the window's
	// wall time: a slice that lost the CPU to another process moves the
	// mean and not the median.
	res.e2e["host_ops_per_s"] = medianFloat(rates)
	// Below 1 when the simulator slows as its horizon grows.
	half := len(rates) / 2
	res.halvesRatio = ratio(sumFloat(rates[half:]), sumFloat(rates[:half]))
}

// setLatency fills in the percentiles of the steps' virtual latencies: the
// median and the 99th percentile, or in its place the highest percentile
// that still has ten samples beyond it. It returns both in nanoseconds.
func (p *pass) setLatency(samples []int64) (p50, p99 int64) {
	n := len(samples)
	p.steps, p.p99Label = int64(n), "p99"
	if n == 0 {
		return 0, 0
	}
	slices.Sort(samples)
	idx := n * 99 / 100
	if n-1-idx < 10 {
		idx = max(n-11, n/2)
		p.p99Label = fmt.Sprintf("p%.1f", 100*float64(idx)/float64(n))
	}
	p50, p99 = samples[n/2], samples[idx]
	p.e2e["sim_op_p50_us"] = float64(p50) / 1e3
	p.e2e["sim_op_p99_us"] = float64(p99) / 1e3
	return p50, p99
}

// medianFloat returns the median of v (0 when empty).
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = slices.Clone(v)
	slices.Sort(v)
	mid := len(v) / 2
	if len(v)%2 == 1 {
		return v[mid]
	}
	return (v[mid-1] + v[mid]) / 2
}

func sumFloat(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterSet is a flattened snapshot of the stack's counters.
type counterSet map[string]int64

// sum adds up every counter whose name ends in suffix.
func (c counterSet) sum(suffix string) int64 {
	var s int64
	for k, v := range c {
		if strings.HasSuffix(k, suffix) {
			s += v
		}
	}
	return s
}

func delta(before, after counterSet) counterSet {
	d := make(counterSet, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// flatten adds v's integer fields to out under prefix. Durations are
// integers; strings and anything else are skipped.
func flatten(out counterSet, prefix string, v any) {
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.CanInt() {
			out[prefix+rv.Type().Field(i).Name] = f.Int()
		}
	}
}

var tiers = []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD, cgroup.StoreRemote}

// snapshot reads every counter the stack keeps, without going through the
// transport (a GET_STATS op would drain the ring).
func (st *stack) snapshot(runners []*workload.Runner) counterSet {
	out := counterSet{"engine.now_ns": int64(st.engine.Now())}
	for i, vm := range st.vms {
		p := fmt.Sprintf("vm%d", vm.ID())
		flatten(out, p+".transport.", st.transports[i].Stats())
		flatten(out, p+".front.", vm.Front().Stats())
		flatten(out, p+".disk.", vm.Disk().Stats())
	}
	for i, c := range st.containers {
		p := fmt.Sprintf("vm%d.%s", c.VM().ID(), c.Name())
		flatten(out, p+".io.", c.IOStats())
		flatten(out, p+".pool.", st.manager.PoolStats(c.VM().ID(), cleancache.PoolID(c.Group().PoolID())))
		out[p+".runner.steps"] = runners[i].Ops()
		out[p+".runner.bytes"] = runners[i].Bytes()
	}
	managerCounters(out, st.manager)
	return out
}

func managerCounters(out counterSet, m *ddcache.Manager) {
	flatten(out, "manager.demotion.", m.DemotionStats())
	flatten(out, "manager.breaker.ssd.", m.SSDBreakerStats())
	flatten(out, "manager.breaker.remote.", m.RemoteBreakerStats())
	out["manager.evictions"] = m.TotalEvictions()
	out["manager.shed_ops"] = m.ShedOps()
	for _, t := range tiers {
		out["manager.used."+t.String()] = m.StoreUsedBytes(t)
	}
}

// checkQuiesced is output check (c): after FlushTransport and
// FlushDemotions nothing is in flight and the byte accounting conserves.
func (st *stack) checkQuiesced(res *pass) {
	for i, tp := range st.transports {
		if s := tp.Stats(); s.Pending != 0 || s.Waiters != 0 {
			res.problemf("quiesce: vm%d transport has %d pending ops and %d waiters", st.vms[i].ID(), s.Pending, s.Waiters)
		}
	}
	var pools []cleancache.PoolID
	for _, c := range st.containers {
		pools = append(pools, cleancache.PoolID(c.Group().PoolID()))
	}
	checkManagerQuiesced(res, st.manager, pools)
	// A page-cache miss is served by at most one of the second-chance
	// cache and the virtual disk (write misses by neither), and every
	// second-chance hit the page cache saw is one the front saw.
	for _, c := range st.containers {
		if io := c.IOStats(); io.Misses < io.CCHits+io.DiskReads {
			res.problemf("guest: vm%d/%s has %d misses but %d cache hits + %d disk reads", c.VM().ID(), c.Name(), io.Misses, io.CCHits, io.DiskReads)
		}
	}
	for _, vm := range st.vms {
		var ccHits int64
		for _, c := range vm.Containers() {
			ccHits += c.IOStats().CCHits
		}
		if fh := vm.Front().Stats().GetHits; fh != ccHits {
			res.problemf("guest: vm%d front counted %d hits, its page cache %d", vm.ID(), fh, ccHits)
		}
	}
}

// checkManagerQuiesced is the manager's part of check (c): nothing is in
// flight or queued, and every tier's bytes are accounted to pools.
func checkManagerQuiesced(res *pass, m *ddcache.Manager, pools []cleancache.PoolID) {
	if n := m.InflightOps(); n != 0 {
		res.problemf("quiesce: manager has %d ops in flight", n)
	}
	if ds := m.DemotionStats(); ds.DirtyObjects != 0 || ds.DirtyBytes != 0 {
		res.problemf("quiesce: demotion queue holds %d objects, %d bytes", ds.DirtyObjects, ds.DirtyBytes)
	}
	for _, t := range tiers {
		var accounted int64
		for _, id := range pools {
			accounted += m.PoolUsedBytes(id, t)
		}
		if used := m.StoreUsedBytes(t); used != accounted {
			res.problemf("quiesce: %s store holds %d bytes, its pools account %d", t, used, accounted)
		}
	}
}

// failedOps counts operations that failed or were refused, over the whole
// run. No fault plan is attached, so at the seed commit it is zero.
func failedOps(c counterSet) int64 {
	var n int64
	for _, s := range []string{
		".transport.SyncFailures", ".transport.DeadlineMisses", ".transport.ShedGets",
		".transport.ShedOps", ".transport.FlushAbandoned", ".transport.DroppedBatches",
	} {
		n += c.sum(s)
	}
	return n + c["manager.shed_ops"]
}

// layerMetrics derives the per-layer metrics of a traced pass. d holds the
// window's counter deltas.
func layerMetrics(tr *tracer, d counterSet, res *pass, vms int) map[string]float64 {
	ops := float64(res.ops)
	m := map[string]float64{}
	perOp := func(ns int64) float64 { return ratio(float64(ns), ops) }
	simMeanUs := func(a spanAgg) float64 { return ratio(float64(a.simNs)/1e3, float64(a.count)) }

	g := tr.layerTotals(layerGuest)
	m["guest.steps"] = float64(g.count)
	m["guest.host_self_ns_per_op"] = perOp(tr.selfNs(layerGuest))
	m["guest.host_incl_ns_per_op"] = perOp(g.inclNs)
	m["guest.sim_lat_us_mean"] = simMeanUs(g)
	m["guest.pagecache_hit_pct"] = pct(d.sum(".io.Hits"), d.sum(".io.Hits")+d.sum(".io.Misses"))
	m["guest.front_readaheads"] = float64(d.sum(".front.ReadAheads"))
	m["guest.disk_fallback_pct"] = pct(d.sum(".io.DiskReads"), d.sum(".io.CCHits")+d.sum(".io.DiskReads"))

	h := tr.layerTotals(layerHypercall)
	calls := d.sum(".transport.Calls")
	m["hypercall.calls"] = float64(h.count)
	m["hypercall.host_self_ns_per_op"] = perOp(tr.selfNs(layerHypercall))
	m["hypercall.sim_lat_us_mean"] = simMeanUs(h)
	m["hypercall.crossings"] = float64(calls)
	m["hypercall.ops_per_crossing"] = ratio(float64(d.sum(".transport.BatchedOps")+d.sum(".transport.SyncOps")+d.sum(".transport.AsyncGets")), float64(calls))
	m["hypercall.staged_hit_pct"] = pct(d.sum(".transport.StagedHits"), d.sum(".front.Gets"))
	m["hypercall.staged_waste_pct"] = pct(d.sum(".transport.StagedEvictions"), d.sum(".transport.StagedFills"))
	m["hypercall.pages_mapped_pct"] = pct(d.sum(".transport.PagesMapped"), d.sum(".transport.PagesMapped")+d.sum(".transport.PagesCopied"))
	m["hypercall.retries"] = float64(d.sum(".transport.Retries"))
	m["sim_crossings_per_kop"] = ratio(1000*float64(calls), ops)

	ddcacheMetrics(m, tr, d)

	var disk spanAgg
	for _, c := range []class{clsRead, clsWrite, clsWriteAsync} {
		disk.add(&tr.agg[layerBlockdev][c])
	}
	m["blockdev.reads"] = float64(d.sum(".disk.Reads"))
	m["blockdev.writes"] = float64(d.sum(".disk.Writes"))
	m["blockdev.host_ns_per_call"] = ratio(float64(disk.inclNs), float64(disk.count))
	m["blockdev.sim_read_lat_us_mean"] = simMeanUs(tr.agg[layerBlockdev][clsRead])
	m["blockdev.sim_busy_pct"] = 100 * ratio(float64(d.sum(".disk.BusyTime"))/1e9, res.windowVirtualS*float64(vms))

	// What no span covers — the engine's heap, closures and the periodic
	// ticks — is the simulator's own share, which makes the layer self
	// times sum to the window's wall time.
	residual := int64(res.windowHostS*1e9) - tr.rootNs
	m["sim.host_self_ns_per_op"] = perOp(residual)
	m["sim.host_halves_ratio"] = res.halvesRatio
	m["failed_ops_pct"] = pct(res.failed, res.ops)
	return m
}

// ddcacheMetrics fills the ddcache, policy and store rows, which mgr-mixed
// reports too.
func ddcacheMetrics(m map[string]float64, tr *tracer, d counterSet) {
	dd := tr.layerTotals(layerDDCache)
	m["ddcache.dispatches"] = float64(dd.count)
	m["ddcache.host_self_ns_per_dispatch"] = ratio(float64(tr.selfNs(layerDDCache)), float64(dd.count))
	for c, name := range map[class]string{
		clsGetHit: "get_hit", clsGetMiss: "get_miss", clsPut: "put",
		clsPutEvict: "put_evict", clsReadAhead: "readahead", clsInvalidate: "flush",
	} {
		m["ddcache."+name+".host_ns"] = tr.agg[layerDDCache][c].hist.quantile(0.5)
	}
	m["ddcache.sim_lat_us_mean"] = ratio(float64(dd.simNs)/1e3, float64(dd.count))
	m["ddcache.hit_pct"] = pct(d.sum(".pool.GetHits")+d.sum(".pool.ReadAheadHits"), d.sum(".pool.Gets")+d.sum(".pool.ReadAheadGets"))
	m["ddcache.evictions"] = float64(d.sum(".pool.Evictions"))
	m["ddcache.demotions"] = float64(d.sum(".pool.Demotions"))
	m["ddcache.put_reject_pct"] = pct(d.sum(".pool.PutRejects"), d.sum(".pool.Puts"))
	m["ddcache.demote_drop_pct"] = pct(d["manager.demotion.DroppedFull"]+d["manager.demotion.DroppedError"]+d["manager.demotion.DroppedBreaker"], d["manager.demotion.Enqueued"])

	sel := tr.agg[layerPolicy][clsSelect]
	m["policy.selections"] = float64(sel.count)
	m["policy.host_ns_per_selection"] = ratio(float64(sel.inclNs), float64(sel.count))

	var errs int64
	for _, l := range []layer{layerStoreMem, layerStoreSSD, layerStoreRemote} {
		s := tr.layerTotals(l)
		m[layerNames[l]+".calls"] = float64(s.count)
		m[layerNames[l]+".host_ns_per_call"] = ratio(float64(s.inclNs), float64(s.count))
		// Release is free of charge in the model: the mean is over the
		// calls that return a latency.
		timed := s.count - tr.agg[l][clsRelease].count
		m[layerNames[l]+".sim_lat_us_mean"] = ratio(float64(s.simNs)/1e3, float64(timed))
		errs += s.errs
	}
	m["store.errors"] = float64(errs)
}
