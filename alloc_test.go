// Allocation gates: the steady-state request path — a block crossing
// page cache → front → transport → manager → index → radix — allocates
// nothing once its structures have reached their working size. Every
// layer recycles its own records (see DESIGN.md, "Object lifetime and
// reuse"); these tests are what keeps an allocation from creeping back.

package main

import (
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/hypervisor"
	"doubledecker/internal/index"
	"doubledecker/internal/radix"
	"doubledecker/internal/sim"
	"doubledecker/internal/store"
)

// wantAllocs fails unless f averages at most max allocations per run.
func wantAllocs(t *testing.T, name string, max float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	if got := testing.AllocsPerRun(200, f); got > max {
		t.Errorf("%s: %.3f allocs per run, want at most %v", name, got, max)
	}
}

func TestManagerDispatchAllocatesNothingOnAWarmPool(t *testing.T) {
	mgr := ddcache.NewManager(ddcache.Config{Mem: store.NewMem(blockdev.NewRAM("r"), 1<<30)})
	mgr.RegisterVM(1, 100)
	pool, _ := mgr.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	const inodes, blocks = 4, 256
	req := func(op cleancache.OpCode, i int) cleancache.Request {
		i %= inodes * blocks
		return cleancache.Request{Op: op, VM: 1,
			Key: cleancache.Key{Pool: pool, Inode: uint64(1 + i/blocks), Block: int64(i % blocks)}}
	}
	// Warm-up: fill and empty the pool once, so its free lists hold the
	// working set's objects, trees and nodes.
	for i := 0; i < inodes*blocks; i++ {
		mgr.Dispatch(0, req(cleancache.OpPut, i))
	}
	for i := 0; i < inodes*blocks; i++ {
		if !mgr.Dispatch(0, req(cleancache.OpGet, i)).Ok {
			t.Fatalf("warm-up get %d missed", i)
		}
	}
	i := 0
	wantAllocs(t, "put without eviction", 0, func() { mgr.Dispatch(0, req(cleancache.OpPut, i)); i++ })
	i = 0
	wantAllocs(t, "get hit", 0, func() {
		if !mgr.Dispatch(0, req(cleancache.OpGet, i)).Ok {
			t.Fatalf("get %d missed", i)
		}
		i++
	})
	wantAllocs(t, "get miss", 0, func() {
		if mgr.Dispatch(0, req(cleancache.OpGet, i)).Ok {
			t.Fatalf("get %d hit an absent block", i)
		}
		i++
	})
	for j := 0; j < inodes*blocks; j++ {
		mgr.Dispatch(0, req(cleancache.OpPut, j))
	}
	i = 0
	wantAllocs(t, "flush page", 0, func() { mgr.Dispatch(0, req(cleancache.OpFlushPage, i)); i++ })
	i = blocks // inode 2 is still whole
	wantAllocs(t, "readahead", 0, func() {
		r := req(cleancache.OpReadAhead, i)
		r.Count = 1
		if mgr.Dispatch(0, r).Count != 1 {
			t.Fatalf("readahead of block %d extracted nothing", i)
		}
		i++
	})
}

func TestRadixAllocatesNothingOnceGrown(t *testing.T) {
	type val struct{ _ int }
	a, b := new(val), new(val)
	tr := radix.New()
	tr.Insert(1000, a)
	tr.Insert(1001, a)
	wantAllocs(t, "insert over existing", 0, func() { tr.Insert(1000, b) })
	wantAllocs(t, "get", 0, func() { tr.Get(1000) })
	wantAllocs(t, "delete", 0, func() { tr.Delete(1000); tr.Insert(1000, a) })

	// A lone key: every delete prunes the whole path and every insert
	// regrows it, out of the arena.
	var arena radix.Arena
	lone := arena.New()
	wantAllocs(t, "arena prune and regrow", 0, func() { lone.Insert(1<<20, a); lone.Delete(1 << 20) })
	wantAllocs(t, "arena tree release and reuse", 0, func() {
		tr := arena.New()
		tr.Insert(1<<20, a)
		arena.Release(tr)
	})
}

func TestIndexPoolInsertRemoveCycleAllocatesNothing(t *testing.T) {
	p := index.NewPool(1, 1, "c")
	wantAllocs(t, "insert, remove, recycle", 0, func() {
		obj := p.NewObject()
		obj.Inode, obj.Block, obj.Size, obj.Store = 7, 42, 4096, cgroup.StoreMem
		p.Insert(obj)
		p.Remove(obj)
		p.Recycle(obj)
	})
	wantAllocs(t, "insert, remove inode, recycle", 0, func() {
		obj := p.NewObject()
		obj.Inode, obj.Block, obj.Size, obj.Store = 7, 42, 4096, cgroup.StoreMem
		p.Insert(obj)
		for _, o := range p.RemoveInode(7) {
			p.Recycle(o)
		}
	})
}

// hitBackend answers every get and readahead as a full hit, without
// allocating.
type hitBackend struct{}

func (hitBackend) Dispatch(_ time.Duration, req cleancache.Request) cleancache.Response {
	return cleancache.Response{Op: req.Op, Ok: true, Pool: 1, Count: req.Count}
}

func TestTransportAsyncGetAllocatesNothing(t *testing.T) {
	tr := hypercall.NewTransport(hitBackend{}, hypercall.Options{AsyncGets: true, ZeroCopy: true})
	get := func(b int64) cleancache.Request {
		return cleancache.Request{Op: cleancache.OpGet, VM: 1, Key: cleancache.Key{Pool: 1, Inode: 1, Block: b}}
	}
	var b int64
	wantAllocs(t, "ring hit", 0, func() {
		pg, _ := tr.SubmitAsync(0, get(b))
		if !tr.Await(0, pg).Ok {
			t.Fatalf("get %d missed", b)
		}
		b++
	})
	const window = 8
	wantAllocs(t, "staged hits", 0, func() {
		tr.Submit(0, cleancache.Request{Op: cleancache.OpReadAhead, VM: 1,
			Key: cleancache.Key{Pool: 1, Inode: 1, Block: b}, Count: window})
		tr.Flush(0)
		for end := b + window; b < end; b++ {
			pg, _ := tr.SubmitAsync(0, get(b))
			if !tr.Await(0, pg).Ok {
				t.Fatalf("staged get %d missed", b)
			}
		}
	})
	if st := tr.Stats(); st.StagedHits != 201*window || st.Waiters != 0 {
		t.Fatalf("StagedHits=%d Waiters=%d, want %d/0", st.StagedHits, st.Waiters, 201*window)
	}
}

func TestStockGuestStreamsAWarmFileWithoutAllocating(t *testing.T) {
	// A stock-config guest streaming a file twice the size of its
	// container: steady state is page-cache miss → staged second-chance
	// hit → insert → reclaim → put, the whole request path.
	engine := sim.New(1)
	host := hypervisor.New(engine, hypervisor.Config{MemCacheBytes: 64 * mib})
	vm := host.NewVM(1, 64*mib, 100)
	c := vm.NewContainer("c", 4*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	f := vm.Allocator().Alloc(2048)
	const burst = 64
	var now time.Duration
	var at int64
	stream := func() {
		now += c.Read(now, f, at, burst)
		at = (at + burst) % f.Blocks
	}
	for i := int64(0); i < 3*f.Blocks/burst; i++ {
		stream() // warm: every structure reaches its working size
	}
	before := c.IOStats()
	wantAllocs(t, "per block streamed", 0.05*burst, stream)
	after := c.IOStats()
	if hits, misses := after.CCHits-before.CCHits, after.Misses-before.Misses; hits != misses || hits == 0 {
		t.Fatalf("window served %d of %d page-cache misses from the second-chance cache; the gate needs all of them", hits, misses)
	}
}
