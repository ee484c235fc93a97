package hypercall

import (
	"testing"
	"time"

	"doubledecker/internal/cleancache"
	"doubledecker/internal/metrics"
)

// seqBackend is an in-memory Dispatch backend that records every op in
// arrival order, for asserting the transport's FIFO/barrier guarantees.
type seqBackend struct {
	pools map[cleancache.PoolID]map[cleancache.Key]bool
	next  cleancache.PoolID
	ops   []cleancache.Request
}

func newSeqBackend() *seqBackend {
	return &seqBackend{pools: make(map[cleancache.PoolID]map[cleancache.Key]bool), next: 1}
}

func (b *seqBackend) Dispatch(_ time.Duration, req cleancache.Request) cleancache.Response {
	b.ops = append(b.ops, req)
	resp := cleancache.Response{Op: req.Op, Latency: 300 * time.Nanosecond}
	switch req.Op {
	case cleancache.OpCreateCgroup:
		id := b.next
		b.next++
		b.pools[id] = make(map[cleancache.Key]bool)
		resp.Ok, resp.Pool = true, id
	case cleancache.OpDestroyCgroup:
		delete(b.pools, req.Key.Pool)
	case cleancache.OpPut:
		if m, ok := b.pools[req.Key.Pool]; ok {
			m[req.Key] = true
			resp.Ok = true
		}
	case cleancache.OpGet:
		if b.pools[req.Key.Pool][req.Key] {
			delete(b.pools[req.Key.Pool], req.Key)
			resp.Ok = true
		}
	case cleancache.OpFlushPage:
		delete(b.pools[req.Key.Pool], req.Key)
	case cleancache.OpFlushInode:
		for k := range b.pools[req.Key.Pool] {
			if k.Inode == req.Key.Inode {
				delete(b.pools[req.Key.Pool], k)
			}
		}
	case cleancache.OpGetStats:
		resp.Ok = true
		resp.Stats = cleancache.PoolStats{Objects: int64(len(b.pools[req.Key.Pool]))}
	}
	return resp
}

func put(pool cleancache.PoolID, inode uint64, block int64) cleancache.Request {
	return cleancache.Request{
		Op: cleancache.OpPut, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: inode, Block: block},
	}
}

func newPool(t *testing.T, tr *Transport) cleancache.PoolID {
	t.Helper()
	resp := tr.Submit(0, cleancache.Request{Op: cleancache.OpCreateCgroup, VM: 1, Name: "c"})
	if !resp.Ok || resp.Pool == 0 {
		t.Fatalf("create pool: %+v", resp)
	}
	return resp.Pool
}

func TestBatchedPutsCoalesceIntoOneCall(t *testing.T) {
	be := newSeqBackend()
	tr := NewTransport(be, Options{})
	pool := newPool(t, tr)
	callsAfterCreate := tr.Stats().Calls

	const n = 100
	for i := 0; i < n; i++ {
		if resp := tr.Submit(0, put(pool, 1, int64(i))); !resp.Ok {
			t.Fatalf("buffered put %d rejected: %+v", i, resp)
		}
	}
	st := tr.Stats()
	if st.Calls != callsAfterCreate {
		t.Fatalf("buffered puts issued %d extra hypercalls", st.Calls-callsAfterCreate)
	}
	if st.Pending != n {
		t.Fatalf("Pending = %d, want %d", st.Pending, n)
	}

	lat := tr.Flush(0)
	wantLat := DefaultCallCost + n*DefaultPageCopyCost + n*300*time.Nanosecond
	if lat != wantLat {
		t.Fatalf("flush latency = %v, want %v", lat, wantLat)
	}
	st = tr.Stats()
	if st.Calls != callsAfterCreate+1 {
		t.Fatalf("flush used %d calls, want 1", st.Calls-callsAfterCreate)
	}
	if st.Pending != 0 || st.Batches != 1 || st.BatchedOps != n {
		t.Fatalf("stats after flush = %+v", st)
	}
	// Backend saw create + n puts, in order.
	if len(be.ops) != n+1 {
		t.Fatalf("backend saw %d ops, want %d", len(be.ops), n+1)
	}
	for i := 1; i < len(be.ops); i++ {
		if be.ops[i].Key.Block != int64(i-1) {
			t.Fatalf("op %d out of order: block %d", i, be.ops[i].Key.Block)
		}
	}
}

func TestGetAfterBufferedPutObservesPut(t *testing.T) {
	be := newSeqBackend()
	tr := NewTransport(be, Options{})
	pool := newPool(t, tr)

	tr.Submit(0, put(pool, 42, 7))
	if tr.Stats().Pending != 1 {
		t.Fatal("put not buffered")
	}
	resp := tr.Submit(0, cleancache.Request{
		Op: cleancache.OpGet, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: 42, Block: 7},
	})
	if !resp.Ok {
		t.Fatal("get missed a buffered put: barrier drain broken")
	}
	// The get's latency covers the batch drain plus its own crossing.
	if resp.Latency < 2*DefaultCallCost {
		t.Fatalf("get latency %v does not include the drain", resp.Latency)
	}
	if tr.Stats().Pending != 0 {
		t.Fatal("pending ops survive a sync op")
	}
}

func TestDestroyPoolFlushesPendingOps(t *testing.T) {
	be := newSeqBackend()
	tr := NewTransport(be, Options{})
	pool := newPool(t, tr)

	tr.Submit(0, put(pool, 1, 1))
	tr.Submit(0, cleancache.Request{
		Op: cleancache.OpFlushPage, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: 1, Block: 1},
	})
	tr.Submit(0, cleancache.Request{
		Op: cleancache.OpDestroyCgroup, VM: 1,
		Key: cleancache.Key{Pool: pool},
	})
	// The backend must see put, flush, destroy — in that order.
	wantOps := []cleancache.OpCode{
		cleancache.OpCreateCgroup, cleancache.OpPut,
		cleancache.OpFlushPage, cleancache.OpDestroyCgroup,
	}
	if len(be.ops) != len(wantOps) {
		t.Fatalf("backend saw %d ops, want %d", len(be.ops), len(wantOps))
	}
	for i, want := range wantOps {
		if be.ops[i].Op != want {
			t.Fatalf("op %d = %v, want %v", i, be.ops[i].Op, want)
		}
	}
	if tr.Stats().Pending != 0 {
		t.Fatal("ops still pending after destroy")
	}
}

func TestBatchDrainsWhenOpBoundReached(t *testing.T) {
	be := newSeqBackend()
	tr := NewTransport(be, Options{MaxBatchOps: 8, MaxBatchPages: 1 << 20})
	pool := newPool(t, tr)
	callsAfterCreate := tr.Stats().Calls

	for i := 0; i < 16; i++ {
		tr.Submit(0, put(pool, 1, int64(i)))
	}
	st := tr.Stats()
	if st.Calls != callsAfterCreate+2 {
		t.Fatalf("16 puts at batch=8 used %d calls, want 2", st.Calls-callsAfterCreate)
	}
	if st.Batches != 2 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBatchDrainsWhenPageBoundReached(t *testing.T) {
	be := newSeqBackend()
	tr := NewTransport(be, Options{MaxBatchOps: 1024, MaxBatchPages: 4})
	pool := newPool(t, tr)
	callsAfterCreate := tr.Stats().Calls

	// Puts carry one page each; flushes carry none and must not count
	// against the page bound.
	for i := 0; i < 4; i++ {
		tr.Submit(0, put(pool, 1, int64(i)))
	}
	st := tr.Stats()
	if st.Calls != callsAfterCreate+1 {
		t.Fatalf("4 puts at page bound 4 drained %d times, want 1", st.Calls-callsAfterCreate)
	}
	if st.PagesCopied != 4 {
		t.Fatalf("PagesCopied = %d, want 4", st.PagesCopied)
	}
}

func TestUnbatchedModeChargesPerOp(t *testing.T) {
	be := newSeqBackend()
	tr := NewTransport(be, Options{Unbatched: true})
	pool := newPool(t, tr)
	callsAfterCreate := tr.Stats().Calls

	const n = 10
	for i := 0; i < n; i++ {
		resp := tr.Submit(0, put(pool, 1, int64(i)))
		if !resp.Ok {
			t.Fatalf("put %d rejected", i)
		}
		if resp.Latency < DefaultCallCost+DefaultPageCopyCost {
			t.Fatalf("unbatched put latency %v below transport floor", resp.Latency)
		}
	}
	st := tr.Stats()
	if st.Calls != callsAfterCreate+n {
		t.Fatalf("unbatched puts used %d calls, want %d", st.Calls-callsAfterCreate, n)
	}
	if st.Batches != 0 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTransportMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	be := newSeqBackend()
	tr := NewTransport(be, Options{Metrics: reg})
	pool := newPool(t, tr)

	for i := 0; i < 5; i++ {
		tr.Submit(0, put(pool, 1, int64(i)))
	}
	tr.Flush(0)
	tr.Submit(0, cleancache.Request{
		Op: cleancache.OpGet, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: 1, Block: 0},
	})

	if st := tr.Stats(); st.Batches != 1 || st.BatchedOps != 5 {
		t.Fatalf("Batches=%d BatchedOps=%d, want 1 and 5", st.Batches, st.BatchedOps)
	}
	if got := reg.Series("hypercall.batch_ops").Last().Value; got != 5 {
		t.Fatalf("batch occupancy sample = %v, want 5", got)
	}
	for _, name := range []string{"hypercall.lat.PUT", "hypercall.lat.GET", "hypercall.lat.CREATE_CGROUP"} {
		if reg.Histogram(name).Count() == 0 {
			t.Fatalf("histogram %s empty", name)
		}
	}
}
