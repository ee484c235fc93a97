// mgr-mixed: no guest, no transport, no engine. Two goroutines, each pinned
// to its own VM with three pools (mem, ssd, hybrid), call Manager.Dispatch
// back to back. It isolates the wall clock of ddcache, index and store and
// the sharded lock path that the single-threaded engine never contends.
// The modelled numbers come from a pass before that, in which one goroutine
// issues the same two op streams in virtual-time order (see runOrdered).

package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/store"
)

// Geometry. A worker's key space is mmInodes × mmBlocks blocks of 4 KiB
// (512 MiB), against 64 MiB of memory and 256 MiB of SSD shared by both
// workers, so the memory tier stays full and evicts. The op mix is
// 45 % put, 40 % get, 10 % flush-page, 5 % flush-inode.
const (
	mmWorkers   = 2
	mmInodes    = 8192
	mmBlocks    = 16
	mmMemBytes  = 64 * mib
	mmSSDBytes  = 256 * mib
	mmWarmupOps = 1_000_000 // per worker; lets the tiers fill
	mmSimOps    = 2_000_000 // per worker at referenceSeconds: the ordered pass behind sim_*
	mmWindowOps = 8_000_000 // per worker at referenceSeconds: the side-by-side window behind host_*
	mmBatch     = 16        // a latency sample is the mean over this many Dispatches
)

var mmPoolStores = [3]cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD, cgroup.StoreHybrid}

// mmWorker is one closed loop: its virtual clock advances by the latency
// each Dispatch returns.
type mmWorker struct {
	vm    cleancache.VMID
	pools [3]cleancache.PoolID
	be    cleancache.Backend
	rng   *rand.Rand
	now   time.Duration

	// present is the shadow of output check (d): a bit is set when a put
	// of the key is accepted and cleared by a get, a flush-page or a
	// flush-inode, so a get that hits a cleared key is a wrong hit. The
	// cache may drop a key at any time, never invent one.
	present []uint64

	ops, gets, hits, wrongHits int64
	payloadBlocks              int64 // accepted puts + get hits
	// lat holds one sample per mmBatch consecutive Dispatches: their mean
	// virtual latency. A single Dispatch costs one of a handful of
	// modelled constants; a batch mixes them as the guest's steps do.
	lat      []int64
	batchLat time.Duration

	sliceNs, sliceOps [windowSlices]int64
}

func (w *mmWorker) bit(inode, block int) (word int, mask uint64) {
	i := inode*mmBlocks + block
	return i / 64, 1 << (i % 64)
}

// step issues one op.
func (w *mmWorker) step(record bool) {
	x := w.rng.Uint64()
	op, inode, block := int(x%100), int((x>>8)%mmInodes), int((x>>32)%mmBlocks)
	req := cleancache.Request{
		VM:  w.vm,
		Key: cleancache.Key{Pool: w.pools[inode%len(w.pools)], Inode: uint64(inode), Block: int64(block)},
	}
	word, mask := w.bit(inode, block)
	var resp cleancache.Response
	switch {
	case op < 45:
		req.Op = cleancache.OpPut
		resp = w.be.Dispatch(w.now, req)
		if resp.Ok {
			w.present[word] |= mask
			w.payloadBlocks++
		}
	case op < 85:
		req.Op = cleancache.OpGet
		resp = w.be.Dispatch(w.now, req)
		w.gets++
		if resp.Ok {
			w.hits++
			w.payloadBlocks++
			if w.present[word]&mask == 0 {
				w.wrongHits++
			}
		}
		w.present[word] &^= mask
	case op < 95:
		req.Op = cleancache.OpFlushPage
		resp = w.be.Dispatch(w.now, req)
		w.present[word] &^= mask
	default:
		req.Op = cleancache.OpFlushInode
		resp = w.be.Dispatch(w.now, req)
		for b := 0; b < mmBlocks; b++ {
			wd, m := w.bit(inode, b)
			w.present[wd] &^= m
		}
	}
	w.now += resp.Latency
	w.ops++
	w.batchLat += resp.Latency
	if w.ops%mmBatch == 0 {
		if record {
			w.lat = append(w.lat, int64(w.batchLat)/mmBatch)
		}
		w.batchLat = 0
	}
}

// run issues n ops, unrecorded: side by side only the host's clock is read.
func (w *mmWorker) run(n int) {
	for ; n > 0; n-- {
		w.step(false)
	}
}

// runOrdered issues n ops in all from the calling goroutine, each time the
// next op of the worker whose virtual clock is behind. That is the order a
// discrete-event engine issues closed loops in, so the shared devices' queues
// see requests in virtual-time order and every modelled number is a function
// of the seed alone. Side by side the workers reach the queues in the order
// the host's scheduler runs them, and the lagging clock's distance is charged
// to whichever op arrives late: the mean survives that, no percentile does.
func runOrdered(ws []*mmWorker, n int, record bool) {
	for ; n > 0; n-- {
		next := ws[0]
		for _, w := range ws[1:] {
			if w.now < next.now {
				next = w
			}
		}
		next.step(record)
	}
}

// mmPrepared is a manager that has finished set-up.
type mmPrepared struct {
	manager   *ddcache.Manager
	workers   []*mmWorker
	tracers   []*tracer // per worker, then the shared store/policy one; nil untraced
	simOps    int       // in all, ordered
	windowOps int       // per worker, side by side
	setupS    float64
}

func runWorkers(ws []*mmWorker, fn func(*mmWorker)) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *mmWorker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// setupMgrMixed builds the manager and its pools and runs the warm-up ops.
func setupMgrMixed(seed int64, scale float64, traced bool) *mmPrepared {
	t0 := hostNs()
	pr := &mmPrepared{simOps: mmWorkers * int(mmSimOps*scale), windowOps: int(mmWindowOps * scale)}
	cfg := ddcache.Config{Mode: ddcache.ModeDD}
	var mem, ssd store.Backend = store.NewMem(blockdev.NewRAM("host-ram"), mmMemBytes), store.NewSSD(blockdev.NewSSD("host-ssd"), mmSSDBytes)
	if traced {
		// The stores and the policy are shared by both workers, so their
		// interposers record into one locked tracer.
		shared := &tracer{shared: true}
		mem = &tracedStore{inner: mem, layer: layerStoreMem, tr: shared}
		ssd = &tracedStore{inner: ssd, layer: layerStoreSSD, tr: shared}
		cfg.VictimSelector = tracedSelector(shared)
		for i := 0; i < mmWorkers; i++ {
			pr.tracers = append(pr.tracers, &tracer{})
		}
		pr.tracers = append(pr.tracers, shared)
	}
	cfg.Mem, cfg.SSD = mem, ssd
	pr.manager = ddcache.NewManager(cfg)
	for i := 0; i < mmWorkers; i++ {
		w := &mmWorker{
			vm:      cleancache.VMID(i + 1),
			be:      pr.manager,
			rng:     rand.New(rand.NewSource(seed*mmWorkers + int64(i))),
			present: make([]uint64, mmInodes*mmBlocks/64),
			lat:     make([]int64, 0, pr.simOps/mmBatch+1),
		}
		if traced {
			w.be = &tracedBackend{inner: pr.manager, tr: pr.tracers[i]}
		}
		pr.manager.RegisterVM(w.vm, 100)
		for p, st := range mmPoolStores {
			w.pools[p], _ = pr.manager.CreatePool(0, w.vm, st.String(), cgroup.HCacheSpec{Store: st, Weight: 50})
		}
		pr.workers = append(pr.workers, w)
	}
	warm := int(mmWarmupOps * scale)
	if warm < mmWarmupOps/10 {
		warm = mmWarmupOps / 10
	}
	runOrdered(pr.workers, mmWorkers*warm, false)
	pr.setupS = float64(hostNs()-t0) / 1e9
	return pr
}

func (pr *mmPrepared) snapshot() counterSet {
	out := counterSet{}
	for _, w := range pr.workers {
		for p, id := range w.pools {
			flatten(out, fmt.Sprintf("vm%d.%s.pool.", w.vm, mmPoolStores[p]), pr.manager.PoolStats(w.vm, id))
		}
	}
	managerCounters(out, pr.manager)
	return out
}

func (pr *mmPrepared) totalOps() int64 {
	var n int64
	for _, w := range pr.workers {
		n += w.ops
	}
	return n
}

// measureSim is the ordered pass: pr.simOps recorded ops in virtual-time
// order, from which it derives the sim_* metrics and the counters that must
// repeat bit for bit.
func (pr *mmPrepared) measureSim(res *pass) {
	var gets, hits, payload int64
	start := make([]time.Duration, len(pr.workers))
	for i, w := range pr.workers {
		gets, hits, payload = gets-w.gets, hits-w.hits, payload-w.payloadBlocks
		start[i] = w.now
	}
	runOrdered(pr.workers, pr.simOps, true)
	var simS float64
	var lat []int64
	for i, w := range pr.workers {
		gets, hits, payload = gets+w.gets, hits+w.hits, payload+w.payloadBlocks
		if s := (w.now - start[i]).Seconds(); s > simS {
			simS = s
		}
		lat = append(lat, w.lat...)
		w.lat = nil // not the window's live heap
	}
	res.e2e["sim_mib_per_s"] = float64(payload) * 4096 / mib / simS
	p50, p99 := res.setLatency(lat)
	res.e2e["sim_hit_pct"] = pct(hits, gets)

	res.counters = pr.snapshot()
	res.counters["ordered.ops"] = int64(pr.simOps)
	res.counters["ordered.lat_p50_ns"] = p50
	res.counters["ordered.lat_p99_ns"] = p99
	for i, w := range pr.workers {
		res.counters[fmt.Sprintf("vm%d.now_ns", w.vm)] = int64(w.now - start[i])
	}
}

// measure makes the two passes over the pinned op counts and derives the
// metrics: the ordered pass gives every sim_* metric, the side-by-side
// window after it every host_* one. The tracer it returns is the workers'
// and the shared one merged.
func (pr *mmPrepared) measure() (*pass, *tracer) {
	res := &pass{e2e: map[string]float64{}}
	pr.measureSim(res)

	c0 := pr.snapshot()
	ops0 := pr.totalOps()
	simStart := make([]time.Duration, len(pr.workers))
	for i, w := range pr.workers {
		simStart[i] = w.now
	}
	for _, t := range pr.tracers {
		t.enabled = true
	}
	meter := startMeter()

	h0 := hostNs()
	runWorkers(pr.workers, func(w *mmWorker) {
		prev := hostNs()
		for i := 0; i < windowSlices; i++ {
			n := pr.windowOps*(i+1)/windowSlices - pr.windowOps*i/windowSlices
			w.run(n)
			now := hostNs()
			w.sliceNs[i], w.sliceOps[i] = now-prev, int64(n)
			prev = now
		}
	})
	wallNs := hostNs() - h0

	res.ops = pr.totalOps() - ops0
	rates := make([]float64, windowSlices)
	for _, w := range pr.workers {
		addSliceRates(rates, w.sliceOps[:], w.sliceNs[:])
	}
	meter.finish(res, rates)
	for _, t := range pr.tracers {
		t.enabled = false
	}
	c1 := pr.snapshot()

	var wrong int64
	for i, w := range pr.workers {
		wrong += w.wrongHits
		if s := (w.now - simStart[i]).Seconds(); s > res.windowVirtualS {
			res.windowVirtualS = s
		}
	}
	res.windowHostS = float64(wallNs) / 1e9

	if wrong != 0 {
		res.problemf("exclusive cache: %d gets hit a key whose last op was a get or a flush", wrong)
	}
	var pools []cleancache.PoolID
	for _, w := range pr.workers {
		pools = append(pools, w.pools[:]...)
	}
	checkManagerQuiesced(res, pr.manager, pools)
	res.failed = wrong + pr.manager.ShedOps()

	if pr.tracers == nil {
		return res, nil
	}
	tr := &tracer{}
	for _, t := range pr.tracers {
		tr.merge(t)
	}
	res.layers = map[string]float64{}
	ddcacheMetrics(res.layers, tr, delta(c0, c1))
	res.layers["sim.host_halves_ratio"] = res.halvesRatio
	res.layers["failed_ops_pct"] = pct(res.failed, res.ops)
	return res, tr
}
