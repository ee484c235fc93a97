package hypercall

import (
	"testing"

	"doubledecker/internal/cleancache"
)

// stagedRecords counts the staging records the transport holds in all:
// the live ones and the ones waiting for the next fill.
func stagedRecords(tr *Transport) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.stagedFIFO.Len() + tr.stagedFree.Len()
}

func TestStagingOrderBoundedWhenGetsConsumeEveryFill(t *testing.T) {
	// Readahead stages, gets consume, no eviction ever runs — the
	// streaming steady state. The eviction order used to keep an entry
	// per block ever staged and was pruned only by evictions, so here it
	// grew without bound: 24 B per block served, for the life of the VM.
	const stagingCap = 8
	be := newRABackend()
	tr := NewTransport(be, Options{StagingPages: stagingCap})
	pool := newPool(t, tr)
	for round := int64(0); round < 100; round++ {
		first := round * stagingCap
		for b := first; b < first+stagingCap; b++ {
			tr.Submit(0, put(pool, 1, b))
		}
		tr.Submit(0, readAhead(pool, 1, first, stagingCap))
		tr.Flush(0)
		for b := first; b < first+stagingCap; b++ {
			if resp := tr.Submit(0, get(pool, 1, b)); !resp.Ok {
				t.Fatalf("round %d: staged block %d missed", round, b)
			}
		}
	}
	st := tr.Stats()
	if st.StagedFills != 100*stagingCap || st.StagedHits != 100*stagingCap || st.StagedPages != 0 || st.StagedEvictions != 0 {
		t.Fatalf("fills=%d hits=%d pages=%d evictions=%d, want %d/%d/0/0",
			st.StagedFills, st.StagedHits, st.StagedPages, st.StagedEvictions, 100*stagingCap, 100*stagingCap)
	}
	if n := stagedRecords(tr); n > stagingCap {
		t.Fatalf("transport holds %d staging records after %d blocks passed through, want at most the cap %d",
			n, 100*stagingCap, stagingCap)
	}
}

func TestStagingEvictsOldestLiveBlockFirst(t *testing.T) {
	const stagingCap = 4
	be := newRABackend()
	tr := NewTransport(be, Options{StagingPages: stagingCap})
	pool := newPool(t, tr)
	for b := int64(0); b < 16; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Flush(0)
	stage := func(b int64) {
		t.Helper()
		tr.Submit(0, readAhead(pool, 1, b, 1))
		tr.Flush(0)
	}
	staged := func() []int64 {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		var blocks []int64
		for sb := tr.stagedFIFO.Front(); sb != nil; sb = sb.fifo.Next() {
			if tr.staged[sb.key] != sb {
				t.Fatalf("block %d is on the eviction order but not in the staging table", sb.key.Block)
			}
			blocks = append(blocks, sb.key.Block)
		}
		if len(blocks) != len(tr.staged) {
			t.Fatalf("eviction order lists %d blocks, staging table %d", len(blocks), len(tr.staged))
		}
		return blocks
	}
	want := func(blocks ...int64) {
		t.Helper()
		got := staged()
		if len(got) != len(blocks) {
			t.Fatalf("staged %v, want %v", got, blocks)
		}
		for i := range got {
			if got[i] != blocks[i] {
				t.Fatalf("staged %v, want %v", got, blocks)
			}
		}
	}

	// Filling past the cap without consuming pushes out the oldest, in
	// the order they were staged.
	for b := int64(0); b < 7; b++ {
		stage(b)
	}
	want(3, 4, 5, 6)
	if ev := tr.Stats().StagedEvictions; ev != 3 {
		t.Fatalf("StagedEvictions = %d, want 3 (7 fills into 4 slots)", ev)
	}

	// Consumed and invalidated blocks leave the order at once; the next
	// victims are the oldest of what is still live.
	if resp := tr.Submit(0, get(pool, 1, 4)); !resp.Ok {
		t.Fatal("staged block 4 missed")
	}
	tr.Submit(0, cleancache.Request{Op: cleancache.OpFlushPage, VM: 1, Key: cleancache.Key{Pool: pool, Inode: 1, Block: 3}})
	want(5, 6)
	for b := int64(7); b < 10; b++ {
		stage(b)
	}
	want(6, 7, 8, 9)

	// A block consumed and staged again is as young as its latest fill:
	// it used to inherit the place of its first, long-consumed fill and
	// be evicted ahead of everything older.
	if resp := tr.Submit(0, get(pool, 1, 6)); !resp.Ok {
		t.Fatal("staged block 6 missed")
	}
	tr.Submit(0, put(pool, 1, 6))
	tr.Flush(0)
	stage(6)
	want(7, 8, 9, 6)
	stage(10)
	want(8, 9, 6, 10)

	// Staging a block that is still staged refreshes it in place.
	fills := tr.Stats().StagedFills
	tr.mu.Lock()
	tr.stageLocked(0, readAhead(pool, 1, 9, 1), cleancache.Response{Op: cleancache.OpReadAhead, Ok: true, Count: 1})
	tr.mu.Unlock()
	want(8, 9, 6, 10)
	if st := tr.Stats(); st.StagedFills != fills || st.StagedEvictions != 5 {
		t.Fatalf("StagedFills=%d StagedEvictions=%d, want %d/5", st.StagedFills, st.StagedEvictions, fills)
	}
	if n := stagedRecords(tr); n > stagingCap {
		t.Fatalf("transport holds %d staging records, want at most the cap %d", n, stagingCap)
	}
}

func TestLateFrameCannotCompleteAReusedHandle(t *testing.T) {
	// A watchdog-failed get leaves its frame in the ring and a tombstone
	// under its tag. The guest awaits the failed handle, the transport
	// takes the storage back, and the next get reuses it — under a new
	// tag, so when the stale frame finally drains it finds the tombstone,
	// not the new tenant of its old handle.
	be := newRABackend()
	tr := NewTransport(be, Options{AsyncGets: true, OpBudget: budget})
	pool := newPool(t, tr)
	tr.Submit(0, put(pool, 1, 0)) // block 0 is cached, block 1 is not
	tr.Flush(0)
	opsBefore := len(be.ops)

	stale, _ := tr.SubmitAsync(0, get(pool, 1, 0))
	staleTag := stale.Tag()
	if n := tr.Watchdog(2 * budget); n != 1 {
		t.Fatalf("watchdog failed %d waiters, want 1", n)
	}
	if resp := tr.Await(2*budget, stale); resp.Ok || !stale.DeadlineExceeded() {
		t.Fatalf("watchdog-failed get resolved %+v (expired=%v), want a deadline miss", resp, stale.DeadlineExceeded())
	}

	fresh, _ := tr.SubmitAsync(2*budget, get(pool, 1, 1))
	if fresh != stale {
		t.Fatal("the next get did not reuse the resolved handle's storage; the scenario needs it to")
	}
	if fresh.Tag() == staleTag || fresh.Done() || fresh.DeadlineExceeded() {
		t.Fatalf("reused handle carries its old state: tag %d (old %d) done=%v expired=%v",
			fresh.Tag(), staleTag, fresh.Done(), fresh.DeadlineExceeded())
	}
	// The drain delivers both frames. The stale one would be a hit.
	if resp := tr.Await(2*budget, fresh); resp.Ok {
		t.Fatal("the get of an absent block hit: the stale frame's completion reached the reused handle")
	}
	gets := be.ops[opsBefore:]
	if len(gets) != 1 || gets[0].Key.Block != 1 {
		t.Fatalf("drain dispatched %+v, want only the get of block 1 (the cancelled frame must not extract block 0)", gets)
	}
	tr.mu.Lock()
	tombstones := len(tr.cancelled)
	tr.mu.Unlock()
	if st := tr.Stats(); st.Waiters != 0 || st.Pending != 0 || tombstones != 0 {
		t.Fatalf("Waiters=%d Pending=%d tombstones=%d after the drain, want all 0", st.Waiters, st.Pending, tombstones)
	}
	if resp := tr.Submit(3*budget, get(pool, 1, 0)); !resp.Ok {
		t.Fatal("block 0 is gone from the cache: the cancelled frame was dispatched after all")
	}
}
