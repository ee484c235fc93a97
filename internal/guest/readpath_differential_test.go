package guest_test

// End-to-end read-path differential test: full guest stacks — page cache,
// cleancache front, hypercall transport — drive the shared sharded
// manager concurrently while a recording tee captures each VM's
// backend-observed op stream. The merged logs are then replayed through
// the sequential oracle: every verdict (get hit/miss, put admission,
// readahead extraction count, pool assignment) must reproduce, and the
// final cache states must agree exactly, including the readahead
// counters the pipelined path feeds.
//
// Unlike the transport-level differential test in internal/ddcache, the
// op stream here is emitted by pagecache.Cache.Read itself — miss-run
// detection, the async probe window over Front.GetAsync, handle
// resolution order, writeback puts and invalidation flushes — so a
// divergence implicates the guest-side pipeline, not a hand-rolled
// driver. Both pipeline modes run: stock-style pipelined (async tagged
// gets + readahead window) and the synchronous pre-pipeline baseline.
//
// The workload commutes across VMs (own pools, ample manager capacity),
// so the round-robin merge is a valid linearization witness.

import (
	"sync"
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/ddcache/oracle"
	"doubledecker/internal/fsmodel"
	"doubledecker/internal/guest"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/sim"
	"doubledecker/internal/store"
)

// guestTee records every op a VM's transport dispatches into the shared
// manager. Appends happen under the owning transport's lock, one tee per
// VM, so no extra synchronization is needed.
type guestTee struct {
	inner cleancache.Backend
	log   []guestTeeOp
}

type guestTeeOp struct {
	req   cleancache.Request
	ok    bool
	count int64
	pool  cleancache.PoolID
}

func (b *guestTee) Dispatch(now time.Duration, req cleancache.Request) cleancache.Response {
	resp := b.inner.Dispatch(now, req)
	b.log = append(b.log, guestTeeOp{req: req, ok: resp.Ok, count: resp.Count, pool: resp.Pool})
	return resp
}

func TestDifferentialGuestReadPathEndToEnd(t *testing.T) {
	t.Run("pipeline-on", func(t *testing.T) { runGuestReadPathDifferential(t, true) })
	t.Run("pipeline-off", func(t *testing.T) { runGuestReadPathDifferential(t, false) })
}

func runGuestReadPathDifferential(t *testing.T, pipeline bool) {
	const (
		vms        = 4
		filesPerVM = 2
		fileBlocks = int64(512) // 2 MiB per file
		burst      = int64(32)
		window     = 8
		memCap     = int64(64 << 20) // ample: no cross-pool eviction
		stepEvery  = time.Millisecond
		runFor     = 400 * time.Millisecond
	)
	mgr := ddcache.NewManager(ddcache.Config{
		Mode: ddcache.ModeDD,
		Mem:  store.NewMem(blockdev.NewRAM("m.ram"), memCap),
	})
	oMem := store.NewMem(blockdev.NewRAM("o.ram"), memCap)
	orc := oracle.New(oracle.Config{Mode: oracle.ModeDD, Mem: oMem})

	// Sequential setup: VMs, transports, fronts, guests, containers —
	// creation order fixes pool ids, and each VM's CREATE_CGROUP is its
	// tee's first record, so the round-robin replay re-creates pools in
	// the same order and the recorded pool ids must reproduce.
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
		topts := hypercall.Options{}
		if pipeline {
			// Odd VMs run zero-copy to cover both bulk-response modes in
			// the same race window.
			topts.AsyncGets = true
			topts.ZeroCopy = v%2 == 1
		}
		tr := hypercall.NewTransport(tee, topts)
		front := cleancache.NewFront(id, tr)
		engine := sim.New(int64(9000 + v))
		gcfg := guest.Config{ID: id, MemBytes: 80 << 20} // 64 MiB kernel reserve + 16 MiB cache
		if pipeline {
			gcfg.ReadAheadWindow = window
		}
		vm := guest.New(engine, gcfg, front)
		c := vm.NewContainer("rp", 1<<20, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
		s := &guestState{
			engine: engine, vm: vm, c: c, tee: tee, tr: tr,
			pool: cleancache.PoolID(c.Group().PoolID()),
		}
		for i := 0; i < filesPerVM; i++ {
			s.files = append(s.files, vm.Allocator().Alloc(fileBlocks))
		}
		gs[v] = s
	}

	// Concurrent phase: one goroutine per VM, each driving its own engine.
	// The per-step schedule is deterministic: streaming sequential read
	// bursts (the pipeline's target shape) with periodic hot-region
	// rewrites and an occasional whole-file invalidation.
	var wg sync.WaitGroup
	for _, s := range gs {
		wg.Add(1)
		go func(s *guestState) {
			defer wg.Done()
			total := filesPerVM * fileBlocks
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

	// The machinery under test must actually have been exercised.
	var agg hypercall.TransportStats
	for _, s := range gs {
		st := s.tr.Stats()
		agg.AsyncGets += st.AsyncGets
		agg.StagedHits += st.StagedHits
		agg.PagesMapped += st.PagesMapped
		agg.Pending += st.Pending
	}
	if pipeline {
		if agg.AsyncGets == 0 || agg.StagedHits == 0 || agg.PagesMapped == 0 {
			t.Fatalf("pipelined read path not exercised: %+v", agg)
		}
	} else if agg.AsyncGets != 0 {
		t.Fatalf("baseline mode issued %d async gets", agg.AsyncGets)
	}
	if agg.Pending != 0 {
		t.Fatalf("%d ops still buffered after shutdown", agg.Pending)
	}

	// Replay the round-robin merge of the backend-observed logs through
	// the sequential oracle: every verdict must reproduce.
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
					t.Fatalf("replay vm %d op %d (%v %+v): concurrent run said ok=%v count=%d, oracle says ok=%v count=%d",
						v+1, i, rec.req.Op, rec.req.Key, rec.ok, rec.count, resp.Ok, resp.Count)
				}
			}
		}
		if exhausted {
			break
		}
	}

	// Final states must agree exactly — including ReadAheadGets and
	// ReadAheadHits, which only the pipelined read path feeds.
	for v, s := range gs {
		got, want := mgr.PoolStats(0, s.pool), orc.PoolStats(0, s.pool)
		if got != want {
			t.Fatalf("vm %d pool %d final stats:\n  manager %+v\n  oracle  %+v", v+1, s.pool, got, want)
		}
		if pipeline && (got.ReadAheadGets == 0 || got.ReadAheadHits == 0) {
			t.Fatalf("vm %d pool %d: pipelined run drove no readahead (%+v)", v+1, s.pool, got)
		}
		if gb, wb := mgr.PoolTotalBytes(s.pool), orc.PoolTotalBytes(s.pool); gb != wb {
			t.Fatalf("vm %d pool %d final bytes: manager %d, oracle %d", v+1, s.pool, gb, wb)
		}
	}
	if got, want := mgr.StoreUsedBytes(cgroup.StoreMem), oMem.UsedBytes(); got != want {
		t.Fatalf("final store usage: manager %d, oracle %d", got, want)
	}
}
