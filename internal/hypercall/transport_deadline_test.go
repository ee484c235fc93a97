package hypercall

import (
	"testing"
	"time"

	"doubledecker/internal/cleancache"
	"doubledecker/internal/fault"
	"doubledecker/internal/metrics"
)

// budget is the per-op latency budget the deadline tests run under: far
// above the healthy path (a crossing is ~2 µs) and far below the stalls
// the fault plans inject.
const budget = 100 * time.Microsecond

func TestGetBlowsBudget(t *testing.T) {
	// The three ways a get blows its budget that a transport shares across
	// AsyncGets settings. Whatever carried the get — a private call or a
	// tagged frame in the batch — its handle resolves the same way: a
	// miss charged exactly the budget, one deadline miss, one latency
	// observation, nothing left in the waiter table.
	const stall = 5 * time.Millisecond
	scenarios := []struct {
		name  string
		rules []fault.Rule
		// readahead buffers a READ_AHEAD of the block ahead of the get, so
		// the get's drain stages it and the get is a staged hit.
		readahead bool
	}{
		{name: "stalled drain ahead of a staged hit", readahead: true, rules: []fault.Rule{
			{Site: SiteBatch, Kind: fault.KindLatency, Delay: stall},
		}},
		{name: "crossing abandoned past the deadline", rules: []fault.Rule{
			{Site: SiteCall, Kind: fault.KindDrop, Prob: 1},
			{Site: SiteBatch, Kind: fault.KindDrop, Prob: 1},
		}},
		{name: "answer landing late", rules: []fault.Rule{
			{Site: SiteCall, Kind: fault.KindLatency, Delay: stall},
			{Site: SiteBatch, Kind: fault.KindLatency, Delay: stall},
		}},
	}
	for _, sc := range scenarios {
		for _, async := range []bool{false, true} {
			name := sc.name + "/sync"
			if async {
				name = sc.name + "/async"
			}
			t.Run(name, func(t *testing.T) {
				reg := metrics.NewRegistry()
				tr := NewTransport(newRABackend(), Options{AsyncGets: async, OpBudget: budget, Metrics: reg})
				pool := newPool(t, tr)
				tr.Submit(0, put(pool, 1, 0))
				tr.Flush(0)
				tr.Channel().WithFaults(fault.New(fault.Plan{Seed: 1, Rules: sc.rules}))
				if sc.readahead {
					tr.Submit(time.Millisecond, readAhead(pool, 1, 0, 1))
				}
				before := tr.Stats()

				resp := tr.Submit(time.Millisecond, get(pool, 1, 0))

				if resp.Ok {
					t.Fatalf("over-budget get reported a hit: %+v", resp)
				}
				if resp.Latency != budget {
					t.Fatalf("over-budget get charged %v, want the budget %v", resp.Latency, budget)
				}
				st := tr.Stats()
				if got := st.DeadlineMisses - before.DeadlineMisses; got != 1 {
					t.Fatalf("DeadlineMisses moved by %d, want 1 (stats %+v)", got, st)
				}
				if st.SyncFailures != before.SyncFailures {
					t.Fatalf("deadline miss also counted as a sync failure: %+v", st)
				}
				if got := reg.Histogram("hypercall.lat.GET").Count(); got != 1 {
					t.Fatalf("hypercall.lat.GET has %d observations, want 1", got)
				}
				if st.MaxGetLatency != budget {
					t.Fatalf("MaxGetLatency = %v, want the budget %v", st.MaxGetLatency, budget)
				}
				if st.Waiters != 0 {
					t.Fatalf("waiter table holds %d entries afterwards", st.Waiters)
				}
			})
		}
	}
}

func TestSyncControlOpsExemptFromBudget(t *testing.T) {
	// The same stall on a control op must NOT fail it: control ops carry
	// correctness and run to completion whatever the cost.
	inj := fault.New(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Site: SiteCall, Kind: fault.KindLatency, Delay: 5 * time.Millisecond},
	}})
	be := newRABackend()
	tr := NewTransport(be, Options{OpBudget: budget})
	tr.Channel().WithFaults(inj)
	resp := tr.Submit(0, cleancache.Request{Op: cleancache.OpCreateCgroup, VM: 1, Name: "c"})
	if !resp.Ok || resp.Pool == 0 {
		t.Fatalf("stalled control op failed: %+v", resp)
	}
	if resp.Latency <= 5*time.Millisecond {
		t.Fatalf("control op latency %v did not absorb the stall", resp.Latency)
	}
	if st := tr.Stats(); st.DeadlineMisses != 0 {
		t.Fatalf("control op counted a deadline miss")
	}
}

func TestWatchdogFailsOverdueWaitersAndReleasesRingSlots(t *testing.T) {
	be := newRABackend()
	tr := NewTransport(be, Options{AsyncGets: true, OpBudget: budget})
	pool := newPool(t, tr)
	for b := int64(0); b < 3; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Flush(0)
	opsBefore := len(be.ops)

	// Three async gets ride the ring, never drained: their completions
	// are stuck in flight past the budget.
	var pending []*PendingGet
	for b := int64(0); b < 3; b++ {
		pg, _ := tr.SubmitAsync(0, get(pool, 1, b))
		pending = append(pending, pg)
	}
	if n := tr.Watchdog(budget / 2); n != 0 {
		t.Fatalf("watchdog fired %d waiters before any deadline", n)
	}
	if n := tr.Watchdog(2 * budget); n != 3 {
		t.Fatalf("watchdog failed %d waiters, want 3", n)
	}
	st := tr.Stats()
	if st.Waiters != 0 {
		t.Fatalf("waiter table holds %d entries after the sweep", st.Waiters)
	}
	if st.WatchdogFails != 3 || st.DeadlineMisses != 3 {
		t.Fatalf("WatchdogFails=%d DeadlineMisses=%d, want 3/3", st.WatchdogFails, st.DeadlineMisses)
	}
	// Every handle resolves as a miss charged at most the budget.
	for i, pg := range pending {
		resp := tr.Await(2*budget, pg)
		if resp.Ok {
			t.Fatalf("watchdog-failed get %d reported a hit", i)
		}
		if resp.Latency > budget {
			t.Fatalf("watchdog-failed get %d charged %v past the budget %v", i, resp.Latency, budget)
		}
	}
	// The next drain must release the cancelled frames' ring slots
	// WITHOUT dispatching them: a dispatch would extract the blocks under
	// the exclusive protocol with nobody left to consume them.
	tr.Flush(2 * budget)
	if got := len(be.ops) - opsBefore; got != 0 {
		t.Fatalf("drain dispatched %d cancelled gets; blocks phantom-extracted", got)
	}
	if st := tr.Stats(); st.Pending != 0 {
		t.Fatalf("ring still holds %d frames after the drain", st.Pending)
	}
	// The blocks survived: a fresh (healthy) get still hits.
	if resp := tr.Submit(3*budget, get(pool, 1, 0)); !resp.Ok {
		t.Fatalf("block lost to a cancelled frame: %+v", resp)
	}
}

func TestWatchdogInvalidatesStagedReadaheadItCovers(t *testing.T) {
	// The one flow that leaves a pending waiter covered by a staged fill:
	// a stalled readahead stages a block whose ready-time lies beyond the
	// budget, so the next get declines the stale fill (miss-now) and
	// queues as a fresh waiter on the same key. When the watchdog fails
	// that waiter, it must also drop the covered fill — a prefetch nobody
	// is waiting for anymore.
	be := newRABackend()
	tr := NewTransport(be, Options{AsyncGets: true, OpBudget: budget})
	pool := newPool(t, tr)
	tr.Submit(0, put(pool, 1, 0))
	tr.Flush(0)

	inj := fault.New(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Site: SiteBatch, Kind: fault.KindLatency, Delay: 5 * time.Millisecond},
	}})
	tr.Channel().WithFaults(inj)
	tr.Submit(0, readAhead(pool, 1, 0, 1))
	tr.Flush(0)
	if tr.Stats().StagedPages != 1 {
		t.Fatalf("stalled readahead staged %d blocks, want 1", tr.Stats().StagedPages)
	}
	// The fill is ~5ms out: this get declines it and becomes a waiter.
	tr.SubmitAsync(0, get(pool, 1, 0))
	if w := tr.Stats().Waiters; w != 1 {
		t.Fatalf("get did not queue as a waiter (Waiters=%d)", w)
	}
	if n := tr.Watchdog(2 * budget); n != 1 {
		t.Fatalf("watchdog failed %d waiters, want 1", n)
	}
	if st := tr.Stats(); st.StagedPages != 0 {
		t.Fatalf("watchdog left the covered fill staged (StagedPages=%d)", st.StagedPages)
	}
}

func TestCompletionDropResolvesWithinBudgetNoWaiterLeak(t *testing.T) {
	// Every completion frame (0xF9) is lost in flight: waiters must still
	// resolve as misses within budget via the await fallback, and the
	// waiter table must not leak an entry per lost completion.
	inj := fault.New(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Site: SiteCompletion, Kind: fault.KindDrop, Prob: 1},
	}})
	be := newRABackend()
	tr := NewTransport(be, Options{AsyncGets: true, OpBudget: budget})
	tr.Channel().WithFaults(inj)
	pool := newPool(t, tr)
	for b := int64(0); b < 8; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Flush(0)

	for b := int64(0); b < 8; b++ {
		pg, _ := tr.SubmitAsync(0, get(pool, 1, b))
		tr.Flush(0) // batch delivered; the completions are dropped
		resp := tr.Await(0, pg)
		if resp.Ok {
			t.Fatalf("get %d hit with its completion lost", b)
		}
		if resp.Latency > budget {
			t.Fatalf("get %d charged %v past the budget", b, resp.Latency)
		}
	}
	st := tr.Stats()
	if st.Waiters != 0 {
		t.Fatalf("waiter table leaked %d entries after lost completions", st.Waiters)
	}
	if st.CompletionDrops == 0 {
		t.Fatalf("no completion drops recorded under a prob-1 drop plan")
	}
}

func TestAbandonedWaitersReleasedByWatchdog(t *testing.T) {
	// The leak audit's abandoned-handle case: the guest submits async
	// gets and never awaits them (e.g. its read was cancelled). The
	// watchdog alone must fully reclaim the waiter table.
	be := newRABackend()
	tr := NewTransport(be, Options{AsyncGets: true, OpBudget: budget})
	pool := newPool(t, tr)
	for b := int64(0); b < 16; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Flush(0)
	for b := int64(0); b < 16; b++ {
		tr.SubmitAsync(0, get(pool, 1, b)) // handle dropped on the floor
	}
	if w := tr.Stats().Waiters; w != 16 {
		t.Fatalf("Waiters = %d before sweep, want 16", w)
	}
	tr.Watchdog(2 * budget)
	tr.Flush(2 * budget)
	st := tr.Stats()
	if st.Waiters != 0 || st.Pending != 0 {
		t.Fatalf("abandoned handles leaked: Waiters=%d Pending=%d", st.Waiters, st.Pending)
	}
}

func TestInflightCapShedsAsyncGets(t *testing.T) {
	be := newRABackend()
	tr := NewTransport(be, Options{AsyncGets: true, MaxInflightGets: 2})
	pool := newPool(t, tr)
	for b := int64(0); b < 4; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Flush(0)

	var handles []*PendingGet
	for b := int64(0); b < 4; b++ {
		pg, _ := tr.SubmitAsync(0, get(pool, 1, b))
		handles = append(handles, pg)
	}
	st := tr.Stats()
	if st.ShedGets != 2 {
		t.Fatalf("ShedGets = %d, want 2 (cap 2, 4 submitted)", st.ShedGets)
	}
	// Shed handles are immediate misses, not errors.
	for i := 2; i < 4; i++ {
		resp := tr.Await(0, handles[i])
		if resp.Ok || resp.Latency != 0 {
			t.Fatalf("shed get %d = %+v, want an immediate miss", i, resp)
		}
	}
	// The admitted two still complete as hits.
	tr.Flush(0)
	for i := 0; i < 2; i++ {
		if resp := tr.Await(0, handles[i]); !resp.Ok {
			t.Fatalf("admitted get %d missed: %+v", i, resp)
		}
	}
}

func TestQueueCapShedsPutsNeverFlushes(t *testing.T) {
	be := newRABackend()
	tr := NewTransport(be, Options{MaxQueuedOps: 4})
	pool := newPool(t, tr)

	for b := int64(0); b < 4; b++ {
		if resp := tr.Submit(0, put(pool, 1, b)); !resp.Ok {
			t.Fatalf("put %d under the cap shed: %+v", b, resp)
		}
	}
	if resp := tr.Submit(0, put(pool, 1, 99)); resp.Ok {
		t.Fatalf("put over the queue cap admitted")
	}
	// A flush at the same depth is never shed.
	fl := cleancache.Request{Op: cleancache.OpFlushPage, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: 1, Block: 0}}
	if resp := tr.Submit(0, fl); !resp.Ok && tr.Stats().ShedOps != 1 {
		t.Fatalf("flush shed by admission control: %+v", resp)
	}
	if st := tr.Stats(); st.ShedOps != 1 {
		t.Fatalf("ShedOps = %d, want 1 (the put alone)", st.ShedOps)
	}
}

func TestCloseFailsOutstandingWorkAndEmptiesTables(t *testing.T) {
	// Crash-safe teardown: async gets in the ring, waiters in the table,
	// staged readahead unconsumed. Close must drain, fail the waiters as
	// misses and empty every table — fail-to-miss, never data loss.
	be := newRABackend()
	tr := NewTransport(be, Options{AsyncGets: true, OpBudget: budget})
	pool := newPool(t, tr)
	for b := int64(0); b < 8; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Flush(0)
	tr.Submit(0, readAhead(pool, 1, 4, 4))
	var handles []*PendingGet
	for b := int64(0); b < 2; b++ {
		pg, _ := tr.SubmitAsync(0, get(pool, 1, b))
		handles = append(handles, pg)
	}
	tr.Flush(0) // deliver: waiters completed, blocks 4..7 staged
	pg, _ := tr.SubmitAsync(0, get(pool, 1, 2))
	handles = append(handles, pg) // still in the ring at Close

	tr.Close(0)
	st := tr.Stats()
	if st.Waiters != 0 || st.StagedPages != 0 || st.Pending != 0 {
		t.Fatalf("Close left state behind: Waiters=%d StagedPages=%d Pending=%d",
			st.Waiters, st.StagedPages, st.Pending)
	}
	for i, pg := range handles {
		if !pg.Done() {
			t.Fatalf("handle %d still pending after Close", i)
		}
		if resp := tr.Await(0, pg); resp.Op != cleancache.OpGet {
			t.Fatalf("handle %d resolved to %v", i, resp.Op)
		}
	}
}

func TestStalledStagedFillMissesUnderBudget(t *testing.T) {
	// A staged fill whose ready-time lies beyond the budget must not make
	// the guest wait for it: the get misses now and the fill stays staged.
	be := newRABackend()
	be.getLat = map[cleancache.Key]time.Duration{}
	tr := NewTransport(be, Options{AsyncGets: true, OpBudget: budget})
	pool := newPool(t, tr)
	tr.Submit(0, put(pool, 1, 0))
	tr.Flush(0)

	// Stall the readahead's backend dispatch so its fill completes far in
	// the future.
	inj := fault.New(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Site: SiteBatch, Kind: fault.KindLatency, Delay: 5 * time.Millisecond},
	}})
	tr.Channel().WithFaults(inj)
	tr.Submit(0, readAhead(pool, 1, 0, 1))
	tr.Flush(0)
	if tr.Stats().StagedPages != 1 {
		t.Fatalf("readahead staged %d blocks, want 1", tr.Stats().StagedPages)
	}
	// The fill is ready ~5ms out; a get now must miss within budget.
	pg, lat := tr.SubmitAsync(0, get(pool, 1, 0))
	resp := tr.Await(lat, pg)
	if resp.Ok && resp.Latency > budget {
		t.Fatalf("get waited %v on a stalled fill, past the budget %v", resp.Latency, budget)
	}
	if misses := tr.Stats().DeadlineMisses; misses == 0 {
		t.Fatalf("stalled-fill miss not counted as a deadline miss")
	}
}

func TestDeadlineMissesNeverLoseFlushes(t *testing.T) {
	// Flushes are exempt from both shedding and deadlines: under a
	// stall-heavy plan every buffered flush must still reach the backend
	// (or be counted FlushAbandoned) — never silently vanish.
	inj := fault.New(fault.Plan{Seed: 42, Rules: []fault.Rule{
		{Site: SiteBatch, Kind: fault.KindDrop, Prob: 0.5},
	}})
	be := newRABackend()
	tr := NewTransport(be, Options{OpBudget: budget, MaxQueuedOps: 8})
	tr.Channel().WithFaults(inj)
	pool := newPool(t, tr)

	const n = 64
	sent := 0
	for i := 0; i < n; i++ {
		fl := cleancache.Request{Op: cleancache.OpFlushPage, VM: 1,
			Key: cleancache.Key{Pool: pool, Inode: 7, Block: int64(i)}}
		if resp := tr.Submit(time.Duration(i)*time.Millisecond, fl); resp.Ok {
			sent++
		}
	}
	tr.Flush(time.Duration(n) * time.Millisecond)
	if sent != n {
		t.Fatalf("%d of %d flushes rejected at submit; flushes must never be shed", n-sent, n)
	}
	delivered := 0
	for _, op := range be.ops {
		if op.Op == cleancache.OpFlushPage {
			delivered++
		}
	}
	st := tr.Stats()
	if int64(delivered)+st.FlushAbandoned < n {
		t.Fatalf("flushes lost silently: %d delivered + %d abandoned < %d submitted",
			delivered, st.FlushAbandoned, n)
	}
}
