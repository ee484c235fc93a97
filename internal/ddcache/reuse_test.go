package ddcache

// Regression tests for index.Object reuse: the manager recycles the
// struct of every object that dies, and these pin the two places where a
// pointer to it outlives the death.

import (
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/index"
	"doubledecker/internal/store"
	"doubledecker/internal/store/remote"
)

// countingStore counts the objects written to the tier it wraps.
type countingStore struct {
	store.Backend
	stores int
}

func (s *countingStore) Store(now time.Duration, size int64) (time.Duration, error) {
	s.stores++
	return s.Backend.Store(now, size)
}

func TestCancelledDemotionPinsItsObjectUntilTheDrainPopsTheSlot(t *testing.T) {
	// The write-behind ring keeps a cancelled entry's slot — and through
	// it the object's pointer — until the next drain pops it and decides
	// by obj.Pending. Were the struct reused at cancel time, the next put
	// could take it, be evicted and demoted in turn, and the drain would
	// then find Pending set behind the stale slot and land the new block
	// out of turn, through an entry that was cancelled (ABA).
	const ssdObjects = 4
	rem := &countingStore{Backend: remote.New(remote.Config{CapacityBytes: 16 << 20})}
	m := NewManager(Config{
		SSD:             store.NewSSD(blockdev.NewSSD("ssd"), ssdObjects*ObjectSize),
		Remote:          rem,
		EvictBatchBytes: ObjectSize,
		// No put ever reaches the drain threshold: the ring drains when
		// the test says so.
		Demotion: DemotionConfig{MaxDirtyBytes: 1 << 20, BatchBytes: 1 << 30},
	})
	m.RegisterVM(1, 100)
	pool, _ := m.CreatePool(0, 1, "aba", cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})
	key := func(b int64) cleancache.Key { return cleancache.Key{Pool: pool, Inode: 1, Block: b} }
	idx := m.epoch.Load().pools[pool].state.idx
	put := func(b int64) *index.Object {
		t.Helper()
		if ok, _ := m.Put(0, 1, key(b)); !ok {
			t.Fatalf("put %d rejected", b)
		}
		return idx.Lookup(1, b)
	}

	for b := int64(0); b <= ssdObjects; b++ {
		put(b) // the last one evicts block 0 into the ring
	}
	cancelled := idx.Lookup(1, 0)
	if !cancelled.Pending || !cancelled.Queued {
		t.Fatalf("block 0 not demoted: %+v", cancelled)
	}
	m.FlushPage(0, 1, key(0)) // cancels the demotion; the slot stays in the ring
	if ds := m.DemotionStats(); ds.Cancelled != 1 || ds.DirtyObjects != 0 {
		t.Fatalf("flush did not cancel the queued demotion: %+v", ds)
	}
	// Enough new blocks that the freed struct would be taken by a put
	// (block 5's) and demoted again (when block 9 arrives).
	for b := int64(ssdObjects + 1); b <= 2*ssdObjects+1; b++ {
		if obj := put(b); obj == cancelled {
			t.Fatalf("put %d reuses the cancelled object while its ring slot is still queued", b)
		}
	}
	ds := m.DemotionStats()
	if ds.Enqueued != 6 || ds.DirtyObjects != 5 {
		t.Fatalf("scenario drifted: %+v, want 6 enqueued (blocks 0-5), 5 still dirty", ds)
	}

	m.FlushDemotions(0)
	ds = m.DemotionStats()
	if got := ds.Drained + ds.Cancelled + ds.DroppedFull + ds.DroppedError + ds.DroppedBreaker + ds.DirtyObjects; got != ds.Enqueued {
		t.Fatalf("conservation violated: %+v", ds)
	}
	if ds.Drained != 5 || ds.Cancelled != 1 || int64(rem.stores) != ds.Drained {
		t.Fatalf("drained=%d cancelled=%d remote writes=%d, want 5/1/5: each live block lands exactly once", ds.Drained, ds.Cancelled, rem.stores)
	}
	// The drain popped the slot: now the struct is free, and the next put
	// takes it.
	if obj := put(100); obj != cancelled {
		t.Fatal("the cancelled object was not recycled once the drain popped its slot")
	}
	if ok, _ := m.Get(0, 1, key(0)); ok {
		t.Fatal("get returned the flushed block")
	}
	for b := int64(1); b <= 2*ssdObjects+1; b++ {
		if b == 2*ssdObjects-2 {
			continue // block 6: evicted from the SSD tier by put(100), queued again
		}
		if ok, _ := m.Get(0, 1, key(b)); !ok {
			t.Fatalf("block %d lost", b)
		}
	}
}

func TestEvictBatchFreesExactlyTheBatchWhileRecyclingItsVictims(t *testing.T) {
	// evictBatch adds up obj.Size after releaseObject has handed the
	// struct back: a recycled object must stay readable until the next
	// put, or the loop under-counts and over-evicts.
	for _, mode := range []Mode{ModeDD, ModeGlobal} {
		mem := store.NewMem(blockdev.NewRAM("ram"), 1<<20)
		m := NewManager(Config{Mode: mode, Mem: mem})
		m.RegisterVM(1, 100)
		pool, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
		for b := int64(0); b < 64; b++ {
			m.Put(0, 1, cleancache.Key{Pool: pool, Inode: 1, Block: b})
		}
		const batch = 8 * ObjectSize
		before := mem.UsedBytes()
		if freed := m.evictBatch(cgroup.StoreMem, batch); freed != batch {
			t.Fatalf("%v: evictBatch freed %d bytes, want exactly %d", mode, freed, batch)
		}
		if got := before - mem.UsedBytes(); got != batch {
			t.Fatalf("%v: the store lost %d bytes, want %d", mode, got, batch)
		}
		if s := m.PoolStats(1, pool); s.Objects != 64-8 || s.Evictions != 8 {
			t.Fatalf("%v: %d objects left, %d evictions, want 56/8", mode, s.Objects, s.Evictions)
		}
		// The eight oldest went, in order, and their structs serve the
		// next eight puts.
		for b := int64(0); b < 64; b++ {
			if got, want := m.Contains(cleancache.Key{Pool: pool, Inode: 1, Block: b}), b >= 8; got != want {
				t.Fatalf("%v: block %d cached=%v, want %v", mode, b, got, want)
			}
		}
	}
}
