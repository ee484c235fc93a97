package cleancache

import (
	"reflect"
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
)

// fakeBackend is a Dispatch-only backend serving a tiny in-memory key
// set, recording the op traffic it sees.
type fakeBackend struct {
	nextPool PoolID
	pools    map[PoolID]map[Key]bool
	specs    map[PoolID]cgroup.HCacheSpec
	destroys int
	migrates int
	ops      []OpCode // every op in arrival order
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		nextPool: 1,
		pools:    make(map[PoolID]map[Key]bool),
		specs:    make(map[PoolID]cgroup.HCacheSpec),
	}
}

var _ Backend = (*fakeBackend)(nil)

func (b *fakeBackend) Dispatch(_ time.Duration, req Request) Response {
	b.ops = append(b.ops, req.Op)
	resp := Response{Op: req.Op, Latency: time.Microsecond}
	switch req.Op {
	case OpCreateCgroup:
		id := b.nextPool
		b.nextPool++
		b.pools[id] = make(map[Key]bool)
		b.specs[id] = req.Spec
		resp.Ok = true
		resp.Pool = id
	case OpDestroyCgroup:
		delete(b.pools, req.Key.Pool)
		b.destroys++
	case OpSetCgWeight:
		b.specs[req.Key.Pool] = req.Spec
	case OpGet:
		if b.pools[req.Key.Pool][req.Key] {
			delete(b.pools[req.Key.Pool], req.Key) // exclusive
			resp.Ok = true
		}
	case OpPut:
		if m, ok := b.pools[req.Key.Pool]; ok {
			m[req.Key] = true
			resp.Ok = true
		}
	case OpFlushPage:
		delete(b.pools[req.Key.Pool], req.Key)
	case OpFlushInode:
		for k := range b.pools[req.Key.Pool] {
			if k.Inode == req.Key.Inode {
				delete(b.pools[req.Key.Pool], k)
			}
		}
	case OpMigrateObject:
		b.migrates++
		for k := range b.pools[req.Key.Pool] {
			if k.Inode == req.Key.Inode {
				delete(b.pools[req.Key.Pool], k)
				b.pools[req.To][Key{Pool: req.To, Inode: k.Inode, Block: k.Block}] = true
			}
		}
	case OpGetStats:
		resp.Ok = true
		resp.Stats = PoolStats{Objects: int64(len(b.pools[req.Key.Pool]))}
	case OpReadAhead:
		for i := int64(0); i < req.Count; i++ {
			k := Key{Pool: req.Key.Pool, Inode: req.Key.Inode, Block: req.Key.Block + i}
			if !b.pools[req.Key.Pool][k] {
				break
			}
			delete(b.pools[req.Key.Pool], k) // exclusive, like GET
			resp.Count++
		}
		resp.Ok = resp.Count > 0
	}
	return resp
}

func newTestFront() (*Front, *fakeBackend, *cgroup.Group) {
	be := newFakeBackend()
	f := NewFront(1, NewBackendTransport(be))
	root := cgroup.NewRoot(1<<30, 0)
	g := root.NewGroup("c1", 0, blockdev.NewHDD("sw"))
	return f, be, g
}

func TestOpCodeStringsAndProperties(t *testing.T) {
	want := map[OpCode]string{
		OpGet: "GET", OpPut: "PUT", OpFlushPage: "FLUSH_PAGE",
		OpFlushInode: "FLUSH_INODE", OpCreateCgroup: "CREATE_CGROUP",
		OpDestroyCgroup: "DESTROY_CGROUP", OpSetCgWeight: "SET_CG_WEIGHT",
		OpMigrateObject: "MIGRATE_OBJECT", OpGetStats: "GET_STATS",
		OpReadAhead: "READ_AHEAD",
	}
	if len(OpCodes()) != len(want) {
		t.Fatalf("OpCodes() = %d codes, want %d", len(OpCodes()), len(want))
	}
	for _, op := range OpCodes() {
		if !op.Valid() {
			t.Fatalf("%v not Valid", op)
		}
		if op.String() != want[op] {
			t.Fatalf("%d.String() = %q, want %q", int(op), op.String(), want[op])
		}
		wantBatch := op == OpPut || op == OpFlushPage || op == OpFlushInode || op == OpReadAhead
		if op.Batchable() != wantBatch {
			t.Fatalf("%v.Batchable() = %v", op, op.Batchable())
		}
		wantPages := 0
		if op == OpGet || op == OpPut {
			wantPages = 1
		}
		if op.Pages() != wantPages {
			t.Fatalf("%v.Pages() = %d, want %d", op, op.Pages(), wantPages)
		}
	}
	if OpCode(0).Valid() || OpCode(200).Valid() {
		t.Fatal("out-of-range op codes reported Valid")
	}
	if OpCode(200).String() == "" {
		t.Fatal("unknown op code has empty String")
	}
}

func TestRegisterAssignsPool(t *testing.T) {
	f, _, g := newTestFront()
	lat := f.RegisterGroup(0, g)
	if g.PoolID() == 0 {
		t.Fatal("pool not assigned")
	}
	if lat <= 0 {
		t.Fatal("registration should cost backend latency")
	}
}

func TestFilterRejectsNonMatching(t *testing.T) {
	f, _, g := newTestFront()
	f.SetFilter(func(name string) bool { return name == "other" })
	f.RegisterGroup(0, g)
	if g.PoolID() != 0 {
		t.Fatal("filtered group got a pool")
	}
	if hit, lat := f.Get(0, g, 1, 1); hit || lat != 0 {
		t.Fatal("filtered group should bypass cleancache")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	f, be, g := newTestFront()
	f.RegisterGroup(0, g)
	if ok, _ := f.Put(0, g, 42, 7); !ok {
		t.Fatal("put failed")
	}
	hit, lat := f.Get(0, g, 42, 7)
	if !hit {
		t.Fatal("get missed after put")
	}
	if lat <= 0 {
		t.Fatalf("get latency %v, want backend cost", lat)
	}
	// Exclusive semantics: second get misses.
	if hit, _ := f.Get(0, g, 42, 7); hit {
		t.Fatal("second get should miss (exclusive cache)")
	}
	st := f.Stats()
	if st.Puts != 1 || st.Gets != 2 || st.GetHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	wantOps := []OpCode{OpCreateCgroup, OpPut, OpGet, OpGet}
	if len(be.ops) != len(wantOps) {
		t.Fatalf("backend saw %v, want %v", be.ops, wantOps)
	}
	for i, op := range wantOps {
		if be.ops[i] != op {
			t.Fatalf("backend op[%d] = %v, want %v", i, be.ops[i], op)
		}
	}
}

// recTransport records every request it carries to the backend.
type recTransport struct {
	Transport
	reqs []Request
}

func (r *recTransport) Submit(now time.Duration, req Request) Response {
	r.reqs = append(r.reqs, req)
	return r.Transport.Submit(now, req)
}

func TestGetIsGetAsyncPlusAwaitRead(t *testing.T) {
	// The synchronous lookup is the async one redeemed on the spot: the
	// same traffic (detector readaheads included), the same counters, the
	// same verdicts and latencies.
	run := func(lookup func(f *Front, g *cgroup.Group, b int64) (bool, time.Duration)) (FrontStats, []Request, []bool, time.Duration) {
		be := newFakeBackend()
		tr := &recTransport{Transport: NewBackendTransport(be)}
		f := NewFront(1, tr)
		f.SetReadAhead(4)
		g := cgroup.NewRoot(1<<30, 0).NewGroup("c1", 0, blockdev.NewHDD("sw"))
		f.RegisterGroup(0, g)
		for _, b := range []int64{0, 2, 3, 5, 6, 7} {
			f.Put(0, g, 9, b)
		}
		var (
			hits  []bool
			total time.Duration
		)
		for b := int64(0); b < 8; b++ {
			hit, lat := lookup(f, g, b)
			hits = append(hits, hit)
			total += lat
		}
		return f.Stats(), tr.reqs, hits, total
	}
	syncStats, syncReqs, syncHits, syncLat := run(func(f *Front, g *cgroup.Group, b int64) (bool, time.Duration) {
		return f.Get(0, g, 9, b)
	})
	asyncStats, asyncReqs, asyncHits, asyncLat := run(func(f *Front, g *cgroup.Group, b int64) (bool, time.Duration) {
		pr, lat := f.GetAsync(0, g, 9, b)
		hit, wait := f.AwaitRead(lat, &pr)
		if again, cost := f.AwaitRead(lat+wait, &pr); again != hit || cost != 0 {
			t.Fatalf("block %d: second redemption = (%v, %v), want (%v, 0)", b, again, cost, hit)
		}
		return hit, lat + wait
	})
	if syncStats != asyncStats {
		t.Fatalf("FrontStats differ: Get %+v, GetAsync+AwaitRead %+v", syncStats, asyncStats)
	}
	if syncStats.Gets != 8 || syncStats.GetHits == 0 || syncStats.ReadAheads == 0 {
		t.Fatalf("scenario did not exercise hits and readahead: %+v", syncStats)
	}
	if !reflect.DeepEqual(syncReqs, asyncReqs) {
		t.Fatalf("requests differ:\n Get      %+v\n GetAsync %+v", syncReqs, asyncReqs)
	}
	if !reflect.DeepEqual(syncHits, asyncHits) || syncLat != asyncLat {
		t.Fatalf("verdicts/latency differ: Get %v %v, GetAsync %v %v", syncHits, syncLat, asyncHits, asyncLat)
	}
}

func TestUnregisterDestroysPool(t *testing.T) {
	f, be, g := newTestFront()
	f.RegisterGroup(0, g)
	f.UnregisterGroup(0, g)
	if g.PoolID() != 0 {
		t.Fatal("pool id not cleared")
	}
	if be.destroys != 1 {
		t.Fatal("backend never saw DESTROY_CGROUP")
	}
}

func TestUpdateSpecPropagates(t *testing.T) {
	f, be, g := newTestFront()
	f.RegisterGroup(0, g)
	g.SetSpec(cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 30})
	f.UpdateSpec(0, g)
	if got := be.specs[PoolID(g.PoolID())]; got.Store != cgroup.StoreSSD || got.Weight != 30 {
		t.Fatalf("backend spec = %+v", got)
	}
}

func TestFlushInodeAndMigrate(t *testing.T) {
	f, be, g := newTestFront()
	f.RegisterGroup(0, g)
	root := cgroup.NewRoot(1<<30, 0)
	g2 := root.NewGroup("c2", 0, blockdev.NewHDD("sw"))
	f.RegisterGroup(0, g2)

	f.Put(0, g, 5, 0)
	f.Put(0, g, 5, 1)
	f.MigrateInode(0, g, g2, 5)
	if be.migrates != 1 {
		t.Fatal("migrate not forwarded")
	}
	if hit, _ := f.Get(0, g2, 5, 0); !hit {
		t.Fatal("migrated block not in target pool")
	}
	f.Put(0, g, 6, 0)
	f.FlushInode(0, g, 6)
	if hit, _ := f.Get(0, g, 6, 0); hit {
		t.Fatal("flushed inode still cached")
	}
}

func TestLookupToStoreRatio(t *testing.T) {
	s := PoolStats{Puts: 200, GetHits: 50, Gets: 100}
	if got := s.LookupToStoreRatio(); got != 25 {
		t.Fatalf("LookupToStoreRatio = %v, want 25", got)
	}
	if got := s.HitRatio(); got != 50 {
		t.Fatalf("HitRatio = %v, want 50", got)
	}
	var zero PoolStats
	if zero.LookupToStoreRatio() != 0 || zero.HitRatio() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
}

func TestGroupStats(t *testing.T) {
	f, _, g := newTestFront()
	f.RegisterGroup(0, g)
	f.Put(0, g, 1, 0)
	if got := f.GroupStats(g); got.Objects != 1 {
		t.Fatalf("GroupStats.Objects = %d, want 1", got.Objects)
	}
	root := cgroup.NewRoot(1<<30, 0)
	unreg := root.NewGroup("x", 0, blockdev.NewHDD("sw"))
	if got := f.GroupStats(unreg); got != (PoolStats{}) {
		t.Fatal("unregistered group should report zero stats")
	}
}

func TestBackendTransportFlushIsFree(t *testing.T) {
	f, _, g := newTestFront()
	f.RegisterGroup(0, g)
	if d := f.FlushTransport(0); d != 0 {
		t.Fatalf("unbuffered transport flush cost %v", d)
	}
}

func TestSequentialDetectorIssuesReadAhead(t *testing.T) {
	f, be, g := newTestFront()
	f.SetReadAhead(4)
	f.RegisterGroup(0, g)
	for b := int64(0); b < 12; b++ {
		f.Put(0, g, 1, b)
	}
	opsBefore := len(be.ops)

	// Two sequential gets: below the run threshold, no readahead yet.
	f.Get(0, g, 1, 0)
	f.Get(0, g, 1, 1)
	for _, op := range be.ops[opsBefore:] {
		if op == OpReadAhead {
			t.Fatal("readahead issued below the sequential-run threshold")
		}
	}
	// Third sequential access establishes the stream.
	f.Get(0, g, 1, 2)
	if f.Stats().ReadAheads != 1 {
		t.Fatalf("ReadAheads = %d after run of 3, want 1", f.Stats().ReadAheads)
	}
	// Continuing the stream extends the window without re-requesting the
	// blocks staging was already asked for.
	f.Get(0, g, 1, 3)
	f.Get(0, g, 1, 4)
	if f.Stats().ReadAheads < 2 {
		t.Fatalf("window did not slide: ReadAheads = %d", f.Stats().ReadAheads)
	}
}

func TestRandomAccessNeverTriggersReadAhead(t *testing.T) {
	f, _, g := newTestFront()
	f.SetReadAhead(4)
	f.RegisterGroup(0, g)
	for b := int64(0); b < 16; b++ {
		f.Put(0, g, 1, b)
	}
	for _, b := range []int64{0, 5, 2, 9, 1, 14, 7, 3, 11} {
		f.Get(0, g, 1, b)
	}
	if n := f.Stats().ReadAheads; n != 0 {
		t.Fatalf("random access issued %d readaheads", n)
	}
}

func TestReadAheadWindowsDoNotOverlap(t *testing.T) {
	// The sliding window must never ask staging for the same block twice:
	// each issued window starts where the previous one ended (or past the
	// read position, whichever is further).
	f, _, g := newTestFront()
	f.SetReadAhead(4)
	f.RegisterGroup(0, g)
	for b := int64(0); b < 32; b++ {
		f.Put(0, g, 1, b)
	}
	sk := streamKey{pool: PoolID(g.PoolID()), inode: 1}
	covered := make(map[int64]int)
	for b := int64(0); b < 16; b++ {
		var prevAhead int64
		if s := f.streams[sk]; s != nil {
			prevAhead = s.ahead
		}
		before := f.Stats().ReadAheads
		f.Get(0, g, 1, b)
		if f.Stats().ReadAheads == before {
			continue
		}
		// A window was issued at read position b: it spans
		// [max(b+1, prevAhead), s.ahead).
		start := b + 1
		if prevAhead > start {
			start = prevAhead
		}
		for blk := start; blk < f.streams[sk].ahead; blk++ {
			covered[blk]++
		}
	}
	if len(covered) == 0 {
		t.Fatal("sequential scan issued no readahead windows")
	}
	for blk, n := range covered {
		if n > 1 {
			t.Fatalf("block %d requested %d times by the sliding window", blk, n)
		}
	}
}

func TestStreamTableEvictsLRUNotWholesale(t *testing.T) {
	// Regression: a full detector table used to be wiped wholesale, losing
	// every active stream's run state. It must instead evict only the
	// least-recently-accessed stream, so a hot stream survives table
	// pressure without re-ramping.
	f, _, g := newTestFront()
	f.SetReadAhead(4)
	f.RegisterGroup(0, g)
	pool := PoolID(g.PoolID())

	// Establish a hot sequential stream on inode 1.
	hot := streamKey{pool: pool, inode: 1}
	for b := int64(0); b < 3; b++ {
		f.Get(0, g, 1, b)
	}
	if s := f.streams[hot]; s == nil || s.run < seqRunThreshold {
		t.Fatalf("hot stream not established: %+v", f.streams[hot])
	}

	// Fill the table to capacity with one-touch streams. The first of
	// them (inode 2) is the coldest once the hot stream is re-touched.
	for ino := uint64(2); len(f.streams) < maxTrackedStreams; ino++ {
		f.Get(0, g, ino, 0)
	}
	if f.streams[hot] == nil {
		t.Fatal("filling to capacity must not evict anything")
	}

	// Keep the hot stream MRU, then overflow once more: the victim must be
	// the coldest one-touch stream (inode 2), never the hot one.
	ahead := f.streams[hot].ahead
	f.Get(0, g, 1, 3)
	f.Get(0, g, 9999, 0)
	if len(f.streams) != maxTrackedStreams {
		t.Fatalf("table size = %d, want %d", len(f.streams), maxTrackedStreams)
	}
	if f.streams[streamKey{pool: pool, inode: 2}] != nil {
		t.Fatal("coldest stream (inode 2) survived eviction")
	}
	if f.streams[streamKey{pool: pool, inode: 9999}] == nil {
		t.Fatal("newly inserted stream missing from the table")
	}
	s := f.streams[hot]
	if s == nil {
		t.Fatal("hot stream evicted under table pressure")
	}
	if s.run < seqRunThreshold || s.ahead <= ahead {
		t.Fatalf("hot stream lost ramp state: run=%d ahead=%d (was %d)", s.run, s.ahead, ahead)
	}
	if f.streamLRU.Len() != len(f.streams) {
		t.Fatalf("LRU list len %d != table len %d", f.streamLRU.Len(), len(f.streams))
	}
}
