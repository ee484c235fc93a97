package ddcache_test

// Read-path differential test: concurrent per-VM guests drive the
// sharded manager through full batched hypercall transports — async
// tagged gets, sequential readahead into the staging buffer, zero-copy
// bulk responses — on a read-heavy (≈85% get) workload. Each VM's
// transport dispatches into a recording tee, and the backend-observed
// logs are then replayed through the sequential oracle as one
// interleaving: every verdict (get hit/miss, readahead extraction count)
// must reproduce, and the final cache states must agree exactly.
//
// The workload commutes across VMs (own pools, ample capacity), so the round-robin merge is a valid witness: a
// verdict the oracle cannot reproduce means the concurrent read path
// matches NO sequential interleaving — an out-of-order completion that
// broke per-pool FIFO, a staged block served after invalidation, a
// readahead double-extracting with a tagged get.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/ddcache/oracle"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/store"
)

// teeBackend records every op the transport actually dispatches — the
// backend-observed stream, which excludes gets served from the staging
// buffer. Appends happen under the owning transport's lock, one tee per
// VM, so no extra synchronization is needed.
type teeBackend struct {
	inner cleancache.Backend
	log   []recordedReadPathOp
}

type recordedReadPathOp struct {
	req   cleancache.Request
	ok    bool
	count int64
}

func (b *teeBackend) Dispatch(now time.Duration, req cleancache.Request) cleancache.Response {
	resp := b.inner.Dispatch(now, req)
	b.log = append(b.log, recordedReadPathOp{req: req, ok: resp.Ok, count: resp.Count})
	return resp
}

func TestDifferentialReadPathLinearizable(t *testing.T) {
	const (
		vms      = 4
		files    = 4
		blocks   = int64(16)
		rounds   = 6
		memCap   = int64(64 << 20) // ample: no eviction, every put lands
		raWindow = 8
	)
	mgr := ddcache.NewManager(ddcache.Config{
		Mode:      ddcache.ModeDD,
		Mem:       store.NewMem(blockdev.NewRAM("m.ram"), memCap),
		Inclusive: true, // streaming reads re-read files: keep objects on get
	})
	oMem := store.NewMem(blockdev.NewRAM("o.ram"), memCap)
	orc := oracle.New(oracle.Config{Mode: oracle.ModeDD, Mem: oMem, Inclusive: true})

	// Sequential setup on both: identical pool ids, one pool per VM.
	pools := make([]cleancache.PoolID, vms)
	for v := 0; v < vms; v++ {
		vm := cleancache.VMID(v + 1)
		mgr.RegisterVM(vm, 100)
		orc.RegisterVM(vm, 100)
		req := cleancache.Request{Op: cleancache.OpCreateCgroup, VM: vm, Name: "rp", Spec: cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100}}
		rm := mgr.Dispatch(0, req)
		ro := orc.Dispatch(0, req)
		if rm.Pool != ro.Pool || rm.Pool == 0 {
			t.Fatalf("setup: pool ids diverged (%d vs %d)", rm.Pool, ro.Pool)
		}
		pools[v] = rm.Pool
	}

	// Concurrent phase: one goroutine per VM, each with its own async
	// transport over a recording tee. Odd VMs run zero-copy to cover both
	// bulk-response modes in the same race window.
	tees := make([]*teeBackend, vms)
	trs := make([]*hypercall.Transport, vms)
	for v := 0; v < vms; v++ {
		tees[v] = &teeBackend{inner: mgr}
		trs[v] = hypercall.NewTransport(tees[v], hypercall.Options{
			AsyncGets: true,
			ZeroCopy:  v%2 == 1,
		})
	}
	var wg sync.WaitGroup
	for v := 0; v < vms; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			vm := cleancache.VMID(v + 1)
			pool := pools[v]
			tr := trs[v]
			rng := rand.New(rand.NewSource(int64(7000 + v)))
			now := time.Duration(0)
			bump := func(d time.Duration) { now += d }
			put := func(inode uint64, block int64) {
				bump(tr.Submit(now, cleancache.Request{
					Op: cleancache.OpPut, VM: vm,
					Key: cleancache.Key{Pool: pool, Inode: inode, Block: block},
				}).Latency)
			}
			// Populate every file once.
			for f := uint64(1); f <= files; f++ {
				for b := int64(0); b < blocks; b++ {
					put(f, b)
				}
			}
			bump(tr.Flush(now))
			// Streaming read rounds: per file, a readahead (as the guest
			// front issues once a run is detected) followed by pipelined
			// async gets over the whole file, sprinkled with invalidations
			// so readahead extraction counts and staged hits vary.
			for r := 0; r < rounds; r++ {
				for f := uint64(1); f <= files; f++ {
					bump(tr.Submit(now, cleancache.Request{
						Op: cleancache.OpReadAhead, VM: vm,
						Key:   cleancache.Key{Pool: pool, Inode: f, Block: 0},
						Count: raWindow,
					}).Latency)
					var pending []*hypercall.PendingGet
					for b := int64(0); b < blocks; b++ {
						pg, lat := tr.SubmitAsync(now, cleancache.Request{
							Op: cleancache.OpGet, VM: vm,
							Key: cleancache.Key{Pool: pool, Inode: f, Block: b},
						})
						bump(lat)
						pending = append(pending, pg)
						if len(pending) == 4 {
							bump(tr.Flush(now))
							for _, p := range pending {
								bump(tr.Await(now, p).Latency)
							}
							pending = pending[:0]
						}
					}
					bump(tr.Flush(now))
					for _, p := range pending {
						bump(tr.Await(now, p).Latency)
					}
					// ~2 maintenance ops per 16 gets keeps the mix ≥85% reads.
					switch rng.Intn(8) {
					case 0:
						bump(tr.Submit(now, cleancache.Request{
							Op: cleancache.OpFlushPage, VM: vm,
							Key: cleancache.Key{Pool: pool, Inode: f, Block: rng.Int63n(blocks)},
						}).Latency)
					case 1:
						put(f, rng.Int63n(blocks))
					case 2:
						bump(tr.Submit(now, cleancache.Request{
							Op: cleancache.OpFlushInode, VM: vm,
							Key: cleancache.Key{Pool: pool, Inode: f},
						}).Latency)
						for b := int64(0); b < blocks; b++ {
							put(f, b) // re-populate so the stream stays warm
						}
					}
				}
				bump(tr.Flush(now))
			}
			bump(tr.Flush(now))
		}(v)
	}
	wg.Wait()

	// The overlapped machinery must actually have been exercised.
	var agg hypercall.TransportStats
	for _, tr := range trs {
		s := tr.Stats()
		agg.AsyncGets += s.AsyncGets
		agg.StagedHits += s.StagedHits
		agg.PagesMapped += s.PagesMapped
		agg.Pending += s.Pending
	}
	if agg.AsyncGets == 0 || agg.StagedHits == 0 || agg.PagesMapped == 0 {
		t.Fatalf("read path not exercised: %+v", agg)
	}
	if agg.Pending != 0 {
		t.Fatalf("%d ops still buffered after final flush", agg.Pending)
	}

	// Replay the round-robin merge of the backend-observed logs through
	// the sequential oracle: every verdict must reproduce.
	for i := 0; ; i++ {
		exhausted := true
		for v := 0; v < vms; v++ {
			if i >= len(tees[v].log) {
				continue
			}
			exhausted = false
			rec := tees[v].log[i]
			resp := orc.Dispatch(0, rec.req)
			switch rec.req.Op {
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

	// Final states must agree exactly.
	for v := 0; v < vms; v++ {
		if got, want := mgr.PoolStats(0, pools[v]), orc.PoolStats(0, pools[v]); got != want {
			t.Fatalf("pool %d final stats:\n  manager %+v\n  oracle  %+v", pools[v], got, want)
		}
		if got, want := mgr.PoolTotalBytes(pools[v]), orc.PoolTotalBytes(pools[v]); got != want {
			t.Fatalf("pool %d final bytes: manager %d, oracle %d", pools[v], got, want)
		}
	}
	if got, want := mgr.StoreUsedBytes(cgroup.StoreMem), oMem.UsedBytes(); got != want {
		t.Fatalf("final store usage: manager %d, oracle %d", got, want)
	}
}
