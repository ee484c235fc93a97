package ddcache

import (
	"sync"
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/store"
)

// TestAdmissionBudgetShedsDataPathOnly pins the admission budget's
// semantics, then hammers Dispatch from many goroutines under the same
// tiny budget: data-path ops over the budget must be shed (as immediate
// misses, never errors), control ops and flushes must always be
// admitted, and the inflight gauge must drain to zero.
func TestAdmissionBudgetShedsDataPathOnly(t *testing.T) {
	m := NewManager(Config{
		Mode:           ModeDD,
		Mem:            store.NewMem(blockdev.NewRAM("ram"), 64<<20),
		MaxInflightOps: 1,
	})
	m.RegisterVM(1, 100)
	resp := m.Dispatch(0, cleancache.Request{Op: cleancache.OpCreateCgroup, VM: 1, Name: "c"})
	if !resp.Ok {
		t.Fatalf("create pool: %+v", resp)
	}
	pool := resp.Pool

	// Deterministic half: saturate the gauge as if one data-path op were
	// parked inside Dispatch, so the budget-1 manager must shed the next
	// data-path op and still admit control ops and flushes.
	m.inflightOps.Add(1)
	key0 := cleancache.Key{Pool: pool, Inode: 99, Block: 0}
	if pr := m.Dispatch(0, cleancache.Request{Op: cleancache.OpPut, VM: 1, Key: key0}); pr.Ok {
		t.Fatalf("put admitted over a saturated budget: %+v", pr)
	}
	if gr := m.Dispatch(0, cleancache.Request{Op: cleancache.OpGet, VM: 1, Key: key0}); gr.Ok {
		t.Fatalf("get admitted over a saturated budget: %+v", gr)
	}
	if shed := m.ShedOps(); shed != 2 {
		t.Fatalf("saturated budget shed %d ops, want 2", shed)
	}
	fl := m.Dispatch(0, cleancache.Request{Op: cleancache.OpFlushInode, VM: 1, Key: key0})
	if fl.Op != cleancache.OpFlushInode {
		t.Fatalf("flush shed by a saturated budget: %+v", fl)
	}
	if st := m.Dispatch(0, cleancache.Request{Op: cleancache.OpGetStats, VM: 1,
		Key: cleancache.Key{Pool: pool}}); !st.Ok {
		t.Fatalf("control op shed by a saturated budget: %+v", st)
	}
	m.inflightOps.Add(-1)

	// Concurrent half: race coverage for the admit/decrement pairing —
	// whatever interleaving the scheduler picks, sheds come back as
	// misses and the gauge drains to zero.
	const workers = 8
	const opsPerWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := cleancache.Key{Pool: pool, Inode: uint64(w + 1), Block: int64(i)}
				at := time.Duration(i) * time.Microsecond
				pr := m.Dispatch(at, cleancache.Request{Op: cleancache.OpPut, VM: 1, Key: key})
				gr := m.Dispatch(at, cleancache.Request{Op: cleancache.OpGet, VM: 1, Key: key})
				if pr.Ok && !gr.Ok {
					// A shed get after an admitted put: legal — shed is a
					// miss, never an error.
					continue
				}
			}
		}(w)
	}
	wg.Wait()

	if inflight := m.InflightOps(); inflight != 0 {
		t.Fatalf("inflight gauge stuck at %d after quiesce", inflight)
	}
	// Control ops and flushes are never shed, even at budget 1.
	for i := 0; i < 100; i++ {
		fl := m.Dispatch(0, cleancache.Request{Op: cleancache.OpFlushInode, VM: 1,
			Key: cleancache.Key{Pool: pool, Inode: uint64(i)}})
		if fl.Op != cleancache.OpFlushInode {
			t.Fatalf("flush response corrupted: %+v", fl)
		}
	}
	st := m.Dispatch(0, cleancache.Request{Op: cleancache.OpGetStats, VM: 1,
		Key: cleancache.Key{Pool: pool}})
	if !st.Ok {
		t.Fatalf("control op shed by admission: %+v", st)
	}
}

// TestAdmissionOffShedsNothing: the default (budget 0) must be a strict
// no-op — the oracle-differential suites rely on it.
func TestAdmissionOffShedsNothing(t *testing.T) {
	m := NewManager(Config{Mode: ModeDD, Mem: store.NewMem(blockdev.NewRAM("ram"), 64<<20)})
	m.RegisterVM(1, 100)
	resp := m.Dispatch(0, cleancache.Request{Op: cleancache.OpCreateCgroup, VM: 1, Name: "c"})
	pool := resp.Pool
	for i := int64(0); i < 512; i++ {
		key := cleancache.Key{Pool: pool, Inode: 1, Block: i}
		m.Dispatch(0, cleancache.Request{Op: cleancache.OpPut, VM: 1, Key: key})
		if gr := m.Dispatch(0, cleancache.Request{Op: cleancache.OpGet, VM: 1, Key: key}); !gr.Ok {
			t.Fatalf("get %d missed with admission off", i)
		}
	}
	if m.ShedOps() != 0 {
		t.Fatalf("admission off shed %d ops", m.ShedOps())
	}
}
