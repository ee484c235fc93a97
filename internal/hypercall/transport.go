package hypercall

import (
	"sync"
	"time"

	"doubledecker/internal/cleancache"
	"doubledecker/internal/fault"
	"doubledecker/internal/ilist"
	"doubledecker/internal/metrics"
)

// Batch bounds: up to 512 ops per crossing, and up to 512 pages — 2 MiB
// of 4 KiB page payload, mirroring the paper's 2 MiB eviction
// granularity.
const (
	DefaultMaxBatchOps   = 512
	DefaultMaxBatchPages = 512
)

// Retry defaults: exponential backoff from 10 µs capped at 1 ms, with at
// most 8 delivery attempts per crossing before the payload is abandoned.
const (
	DefaultRetryBase   = 10 * time.Microsecond
	DefaultRetryCap    = time.Millisecond
	DefaultMaxAttempts = 8
)

// DefaultStagingPages bounds the per-VM staging buffer: 256 pages (1 MiB)
// of readahead-filled blocks awaiting consumption.
//
// DefaultMaxRequeues bounds how many crossings a flush salvaged from an
// abandoned batch may ride before the transport gives up on it: under a
// persistent fault every drain would otherwise re-queue the same flushes
// forever, livelocking the flush tick.
const (
	DefaultStagingPages = 256
	DefaultMaxRequeues  = 4
)

// Options parameterizes a Transport.
type Options struct {
	// MaxBatchOps bounds the number of operations per crossing
	// (default 512).
	MaxBatchOps int
	// MaxBatchPages bounds the page payload per crossing (default 512
	// pages = 2 MiB).
	MaxBatchPages int
	// CallCost and PageCopyCost override the VMCALL cost model; zero
	// selects the defaults.
	CallCost     time.Duration
	PageCopyCost time.Duration
	// Unbatched disables coalescing: every op pays its own world switch,
	// the pre-batching behaviour. The baseline for the transport
	// experiment.
	Unbatched bool
	// AsyncGets enables tagged get pipelining: gets ride the batch ring as
	// tagged frames instead of paying a private synchronous crossing, and
	// their completions are demultiplexed by tag when the batch drains.
	// Multiple gets per VM may then be outstanding at once (SubmitAsync /
	// Await); Submit still blocks, but shares the batch crossing. Ignored
	// in Unbatched mode.
	AsyncGets bool
	// ZeroCopy hands bulk response pages back as shared-page references
	// (MapPages) instead of copies: tagged gets reserve no page budget in
	// the batch and readahead fills map their blocks into the staging
	// buffer at DefaultPageMapCost per page.
	ZeroCopy bool
	// StagingPages bounds the staging buffer (default 256 pages).
	StagingPages int
	// Metrics receives per-op-code latency histograms and batch
	// telemetry; nil disables recording.
	Metrics *metrics.Registry
	// Faults injects transport faults (drop, corrupt, latency) at sites
	// SiteBatch and SiteCall; nil disables injection.
	Faults *fault.Injector
	// RetryBase is the initial backoff after a dropped or corrupted
	// crossing (default 10 µs).
	RetryBase time.Duration
	// RetryCap bounds the exponential backoff (default 1 ms).
	RetryCap time.Duration
	// MaxAttempts bounds delivery attempts per crossing (default 8);
	// after that the payload is abandoned.
	MaxAttempts int
	// MaxRequeues bounds how many abandoned crossings a flush survives
	// before it too is dropped and counted as FlushAbandoned (default 4).
	MaxRequeues int
	// OpBudget is the per-operation latency budget for the data path
	// (gets and readahead): a get whose cumulative virtual latency —
	// drains, retries, backoff, stalls — would exceed the budget resolves
	// as a miss with its charged wait clamped to the budget, and the
	// guest falls back to disk. Zero disables deadline enforcement.
	// Control ops and flushes are exempt: they carry correctness, not
	// data, and must run to completion.
	OpBudget time.Duration
	// MaxInflightGets caps the number of outstanding async get waiters;
	// submissions over the cap are shed as immediate misses (counted as
	// ShedGets, never errors). Zero means unlimited.
	MaxInflightGets int
	// MaxQueuedOps caps the ring's buffered-op depth for droppable
	// batchable ops (puts, readaheads): submissions over the cap are shed
	// (counted as ShedOps). Flushes are never shed — a lost flush breaks
	// the cleancache contract — so the cap bounds best-effort traffic
	// while invalidations always get through. Zero means unlimited.
	MaxQueuedOps int
}

// TransportStats is a snapshot of one transport's traffic.
type TransportStats struct {
	// Calls is the number of world switches (batched crossings + sync
	// ops).
	Calls int64
	// PagesCopied is the number of pages moved across the boundary.
	PagesCopied int64
	// PagesMapped is the number of pages handed over as zero-copy
	// shared-page references.
	PagesMapped int64
	// Batches is the number of multi-op crossings.
	Batches int64
	// BatchedOps is the number of operations delivered via batches.
	BatchedOps int64
	// SyncOps is the number of operations delivered synchronously (gets,
	// control ops, and everything in Unbatched mode).
	SyncOps int64
	// AsyncGets is the number of gets delivered as tagged batch frames.
	AsyncGets int64
	// StagedHits is the number of gets served from the staging buffer
	// without paying a crossing.
	StagedHits int64
	// StagedFills is the number of blocks readahead placed in the staging
	// buffer; StagedEvictions counts the ones pushed out unconsumed.
	StagedFills     int64
	StagedEvictions int64
	// StagedPages is the number of blocks currently staged.
	StagedPages int64
	// Pending is the number of operations currently buffered.
	Pending int64
	// Retries is the number of crossings re-sent after a drop or a
	// checksum rejection.
	Retries int64
	// Backoff is the total virtual time spent backing off before retries.
	Backoff time.Duration
	// Drops and Corrupts count the in-flight faults the channel observed.
	Drops    int64
	Corrupts int64
	// DroppedBatches is the number of batches abandoned after MaxAttempts
	// delivery attempts.
	DroppedBatches int64
	// RequeuedOps is the number of flush ops from abandoned batches
	// re-queued for the next crossing.
	RequeuedOps int64
	// FlushAbandoned is the number of flushes dropped after MaxRequeues
	// abandoned crossings.
	FlushAbandoned int64
	// SyncFailures is the number of synchronous ops and gets whose
	// crossing was abandoned (reported Ok=false to the guest); a get
	// abandoned past its deadline is a DeadlineMiss instead.
	SyncFailures int64
	// DeadlineMisses is the number of data-path ops that resolved as
	// misses because their latency budget expired (WatchdogFails of them
	// were failed by the watchdog sweep rather than at resolution).
	DeadlineMisses int64
	WatchdogFails  int64
	// ShedGets and ShedOps count admission-control rejections: gets shed
	// at the inflight cap and puts/readaheads shed at the queue cap, all
	// reported to the guest as immediate misses, never errors.
	ShedGets int64
	ShedOps  int64
	// CompletionDrops is the number of completion-frame batches lost to
	// an injected fault on the 0xF9 path; their waiters resolve as misses
	// via the watchdog or the await fallback.
	CompletionDrops int64
	// Waiters is the number of async get handles currently outstanding
	// (in the waiter table); it must drain to zero at quiesce.
	Waiters int64
	// MaxGetLatency is the largest latency charged to any single get —
	// the liveness bound the deadline budget enforces.
	MaxGetLatency time.Duration
}

// transportMetrics holds the metric handles the transport touches on hot
// paths — the batch-occupancy series and the per-op-code latency
// histograms; every counter lives in TransportStats — resolved once at
// construction. A registry lookup concatenates a name and takes the
// registry lock; doing that per drained op inside t.mu serializes
// unrelated VMs on the registry. Nil when no registry is configured.
type transportMetrics struct {
	batchOps *metrics.Series
	lat      []*metrics.Histogram // indexed by OpCode
}

func newTransportMetrics(reg *metrics.Registry) *transportMetrics {
	if reg == nil {
		return nil
	}
	m := &transportMetrics{batchOps: reg.Series("hypercall.batch_ops")}
	ops := cleancache.OpCodes()
	m.lat = make([]*metrics.Histogram, int(ops[len(ops)-1])+1)
	for _, op := range ops {
		m.lat[int(op)] = reg.Histogram("hypercall.lat." + op.String())
	}
	return m
}

// PendingGet is the handle to one in-flight asynchronous get: created by
// SubmitAsync, completed when the crossing carrying its tagged frame
// drains (or is abandoned), redeemed with Await. The type lives in
// cleancache (it is part of the AsyncTransport capability contract);
// this alias keeps the historical hypercall name working. All handle
// state is guarded by the owning transport's mu, and the storage is the
// transport's: the first Await takes it back for a later get, leaving
// the answer readable only until the caller's next submission.
type PendingGet = cleancache.PendingGet

// waiter is one outstanding tagged get: its handle and the block it
// asked for (so a watchdog-failed get can invalidate staged readahead
// over the same block).
type waiter struct {
	pg  *PendingGet
	key cleancache.Key
}

// stagedBlock is one readahead-filled block awaiting consumption.
type stagedBlock struct {
	key   cleancache.Key
	ready time.Duration           // virtual time the fill completes
	fifo  ilist.Elem[stagedBlock] // position in the eviction FIFO; the free-list link once unstaged
}

// Transport is the batched, pipelined hypercall path from one VM to the
// hypervisor cache manager. It implements cleancache.Transport.
//
// Batchable operations (put, flush, readahead) are encoded onto a bounded
// Ring and delivered together in one crossing — one world switch for the
// whole batch plus per-page copy costs — when the ring fills or when the
// guest's flush tick calls Flush. Synchronous operations (get and the
// control ops) first drain the ring, preserving per-VM FIFO order, so
// the backend observes exactly the unbatched operation sequence: a get
// following a buffered put of the same key sees the put.
//
// With AsyncGets enabled, gets instead ride the ring as tagged frames:
// the frame keeps its FIFO position (so ordering against buffered puts
// and flushes is unchanged), but its completion — (tag, ok, ready-at) —
// is demultiplexed back to a per-op waiter, letting one VM keep several
// gets in flight and letting completions land out of submission order in
// virtual time.
//
// Readahead responses fill a bounded staging buffer modelling the per-VM
// shared staging region: subsequent gets for staged blocks are answered
// from the buffer without any crossing at all. Staged entries are
// invalidated by the ops that could stale them (put, flush, migrate,
// destroy), both at Submit and again at each op's FIFO position during a
// drain — an op buffered behind a readahead must kill the blocks that
// readahead stages ahead of it. Dropping a staged page is always safe
// under the cleancache contract.
//
// Transport is safe for concurrent use by a VM's vCPU threads.
type Transport struct {
	be cleancache.Backend
	m  *transportMetrics

	// mu guards the ring and the traffic counters below. ch is set once at
	// construction and read without the lock (Channel()); the Channel is
	// internally consistent on its own.
	mu   sync.Mutex
	ch   *Channel
	ring *Ring // ddlint:guarded-by mu
	// scratch is the reusable encode buffer for synchronous crossings.
	scratch []byte // ddlint:guarded-by mu

	unbatched   bool
	asyncGets   bool
	zeroCopy    bool
	stagingCap  int
	retryBase   time.Duration
	retryCap    time.Duration
	maxAttempts int
	maxRequeues int
	opBudget    time.Duration
	maxInflight int
	maxQueued   int

	// Async get demultiplexing: the next frame tag (tag 0 is reserved for
	// untagged handles), the waiters keyed by tag, and the wire-encoded
	// completions of the drain in progress. cancelled tombstones the tags
	// of watchdog-failed waiters whose frames are still in the ring: the
	// next drain releases each slot without dispatching — dispatching
	// would extract the block under the exclusive protocol with nobody
	// left to consume it. Tags are never reused, so a tombstone or a late
	// completion can only ever name the get it was issued for, whatever
	// became of that get's handle storage. freeGets is that storage,
	// taken back at each handle's first resolution.
	nextTag     uint64              // ddlint:guarded-by mu
	waiters     map[uint64]waiter   // ddlint:guarded-by mu
	cancelled   map[uint64]struct{} // ddlint:guarded-by mu
	completions []byte              // ddlint:guarded-by mu
	freeGets    []*PendingGet       // ddlint:guarded-by mu

	// Staging buffer: readahead-filled blocks by key, and in fill order
	// on stagedFIFO for eviction. A consumed or invalidated block leaves
	// both at once and its record waits on stagedFree, so the buffer
	// holds at most stagingCap records however many blocks pass through.
	staged     map[cleancache.Key]*stagedBlock // ddlint:guarded-by mu
	stagedFIFO ilist.List[stagedBlock]         // ddlint:guarded-by mu
	stagedFree ilist.List[stagedBlock]         // ddlint:guarded-by mu

	// requeueGens[i] is the abandoned-crossing count of the i-th buffered
	// op: requeued flushes re-enter at the front of the emptied ring, so
	// positions align, and ops beyond len(requeueGens) are fresh.
	requeueGens []int // ddlint:guarded-by mu

	// stats holds the counters the transport itself increments; Stats()
	// completes a copy with the derived values (channel counters, table
	// and ring depths).
	stats TransportStats // ddlint:guarded-by mu
}

var (
	_ cleancache.Transport         = (*Transport)(nil)
	_ cleancache.AsyncTransport    = (*Transport)(nil)
	_ cleancache.DeadlineTransport = (*Transport)(nil)
)

// NewTransport wires a batched transport to be.
func NewTransport(be cleancache.Backend, opts Options) *Transport {
	if opts.MaxBatchOps <= 0 {
		opts.MaxBatchOps = DefaultMaxBatchOps
	}
	if opts.MaxBatchPages <= 0 {
		opts.MaxBatchPages = DefaultMaxBatchPages
	}
	if opts.CallCost == 0 {
		opts.CallCost = DefaultCallCost
	}
	if opts.PageCopyCost == 0 {
		opts.PageCopyCost = DefaultPageCopyCost
	}
	if opts.StagingPages <= 0 {
		opts.StagingPages = DefaultStagingPages
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = DefaultRetryBase
	}
	if opts.RetryCap <= 0 {
		opts.RetryCap = DefaultRetryCap
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.MaxRequeues <= 0 {
		opts.MaxRequeues = DefaultMaxRequeues
	}
	return &Transport{
		be:          be,
		m:           newTransportMetrics(opts.Metrics),
		ch:          NewChannelWithCosts(opts.CallCost, opts.PageCopyCost).WithFaults(opts.Faults),
		ring:        NewRing(opts.MaxBatchOps, opts.MaxBatchPages),
		unbatched:   opts.Unbatched,
		asyncGets:   opts.AsyncGets && !opts.Unbatched,
		zeroCopy:    opts.ZeroCopy,
		stagingCap:  opts.StagingPages,
		retryBase:   opts.RetryBase,
		retryCap:    opts.RetryCap,
		maxAttempts: opts.MaxAttempts,
		maxRequeues: opts.MaxRequeues,
		opBudget:    opts.OpBudget,
		maxInflight: opts.MaxInflightGets,
		maxQueued:   opts.MaxQueuedOps,
		nextTag:     1, // tag 0 is the "no tag" sentinel on untagged handles
		waiters:     make(map[uint64]waiter),
		cancelled:   make(map[uint64]struct{}),
		staged:      make(map[cleancache.Key]*stagedBlock),
	}
}

// Channel exposes the underlying cost/traffic model.
func (t *Transport) Channel() *Channel { return t.ch }

// Stats snapshots the transport's traffic counters.
func (t *Transport) Stats() TransportStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.Calls = t.ch.Calls()
	st.PagesCopied = t.ch.PagesCopied()
	st.PagesMapped = t.ch.PagesMapped()
	st.Drops = t.ch.Drops()
	st.Corrupts = t.ch.Corrupts()
	st.StagedPages = int64(len(t.staged))
	st.Pending = int64(t.ring.Len())
	st.Waiters = int64(len(t.waiters))
	return st
}

// Submit implements cleancache.Transport. Batchable ops are buffered and
// acknowledged optimistically (Ok=true — the guest drops the page either
// way, matching the paper's fire-and-forget put semantics); the reported
// latency is whatever drain this submission triggered. A get always
// resolves through a handle (resolveLocked): with AsyncGets it rides the
// batch as a tagged frame, without it pays a private crossing
// (syncGetLocked). Control ops drain the ring, pay their own crossing,
// dispatch, and return the backend's answer with transport cost folded
// into Latency.
func (t *Transport) Submit(now time.Duration, req cleancache.Request) cleancache.Response {
	t.mu.Lock()
	defer t.mu.Unlock()

	t.invalidateStagedLocked(req)

	if !t.unbatched && req.Op.Batchable() {
		if t.maxQueued > 0 && t.ring.Len() >= t.maxQueued {
			// Admission control: over the queue cap, best-effort ops are
			// shed instead of buffered — the page is simply not cached (or
			// not prefetched), free under the cleancache contract. Flushes
			// fall through: dropping an invalidation would leave the
			// hypervisor holding an object the guest dirtied.
			switch req.Op {
			case cleancache.OpPut, cleancache.OpReadAhead:
				t.stats.ShedOps++
				return cleancache.Response{Op: req.Op, Ok: false}
			default: // ddlint:nonexhaustive — only flushes remain batchable
			}
		}
		var lat time.Duration
		if !t.ring.Fits(req.Op.Pages()) {
			lat = t.drainLocked(now)
		}
		t.ring.Push(req)
		t.stats.BatchedOps++
		if t.ring.Full() {
			lat += t.drainLocked(now + lat)
		}
		return cleancache.Response{Op: req.Op, Ok: true, Latency: lat}
	}

	if req.Op == cleancache.OpGet {
		var (
			pg  *PendingGet
			lat time.Duration
		)
		if t.asyncGets {
			pg, lat = t.enqueueGetLocked(now, req)
			if !pg.Done() {
				lat += t.drainLocked(now + lat)
			}
		} else {
			pg, lat = t.syncGetLocked(now, req)
		}
		return t.resolveLocked(now, lat, pg)
	}

	// Control ops (and every op of an Unbatched transport): barrier-drain
	// buffered ops first so the backend sees FIFO order, then pay this
	// op's own crossing. The dispatch timestamp `at` is threaded explicitly
	// — every drain, delivery and backoff advances it — so the backend is
	// invoked at exactly the virtual time the request arrives and the
	// guest-visible latency is always at-now plus the backend's own.
	at := now + t.drainLocked(now)
	// The drain may have dispatched a buffered readahead whose fills this
	// op invalidates (migrate, destroy): the submit-time invalidation
	// above ran before those blocks were staged, so repeat it now that
	// this op is about to apply behind them in FIFO order.
	t.invalidateStagedLocked(req)
	// Control ops and flushes carry correctness, not data: they are exempt
	// from the latency budget and retry to the attempt bound. A synchronous
	// READ_AHEAD is data path — its retry loop gives up at the deadline.
	var deadline time.Duration
	if req.Op == cleancache.OpReadAhead {
		deadline = t.deadline(now)
	}
	clat, ok := t.callLocked(at, req, deadline)
	at += clat
	if !ok {
		// The call never reached the hypervisor; Ok=false surfaces the
		// failure to the op's caller.
		t.stats.SyncFailures++
		t.observe(req.Op, at-now)
		return cleancache.Response{Op: req.Op, Ok: false, Latency: at - now}
	}
	resp := t.be.Dispatch(at, req)
	if req.Op == cleancache.OpReadAhead {
		// Unbatched transports deliver READ_AHEAD synchronously; the
		// backend has already extracted the blocks under the exclusive
		// protocol, so the response must fill the staging buffer —
		// discarding it would silently evict up to Count cached blocks
		// and turn the following gets into guaranteed misses.
		t.stageLocked(at, req, resp)
	}
	resp.Latency += at - now
	t.observe(req.Op, resp.Latency)
	return resp
}

// syncGetLocked is the get path without AsyncGets. A staged block is
// guest-visible memory: consuming it needs no crossing and no drain
// (nothing buffered can stale it — the ops that could invalidated it at
// their own Submit). Otherwise the ring is barrier-drained, the staging
// buffer re-checked (the drain may have dispatched a readahead that
// staged this very block) and the get pays its private SiteCall crossing
// and dispatches. The handle comes back done or failed, never pending,
// with the budget armed from the submission time — so resolveLocked
// bounds its verdict and charged wait exactly as it does a tagged
// frame's: a drain, an abandoned crossing or an answer that lands past
// the deadline is a miss charged the budget (the extracted block is
// dropped — fail-to-miss, never data loss). Returns the handle and the
// latency accumulated so far.
//
// ddlint:requires-lock mu
func (t *Transport) syncGetLocked(now time.Duration, req cleancache.Request) (*PendingGet, time.Duration) {
	if wait, hit := t.consumeStagedLocked(now, req.Key); hit {
		return t.armDeadline(now, t.readyHandleLocked(true, now+wait)), 0
	}
	at := now + t.drainLocked(now)
	if wait, hit := t.consumeStagedLocked(at, req.Key); hit {
		return t.armDeadline(now, t.readyHandleLocked(true, at+wait)), at - now
	}
	pg := t.armDeadline(now, t.handleLocked(0))
	clat, ok := t.callLocked(at, req, pg.Deadline())
	at += clat
	if !ok {
		pg.Fail(at) // never reached the hypervisor: a miss, the guest re-reads from disk
		return pg, at - now
	}
	resp := t.be.Dispatch(at, req)
	pg.Complete(resp.Ok, at+resp.Latency)
	return pg, at - now
}

// callLocked pays req's own synchronous crossing at virtual time at. The
// wire encoding exists only for the fault model to checksum or corrupt,
// so the healthy path skips it.
//
// ddlint:requires-lock mu
func (t *Transport) callLocked(at time.Duration, req cleancache.Request, deadline time.Duration) (time.Duration, bool) {
	var payload []byte
	if t.ch.Faulty() {
		t.scratch = EncodeRequest(t.scratch[:0], req)
		payload = t.scratch
	}
	t.stats.SyncOps++
	return t.crossLocked(at, req.Op.Pages(), payload, SiteCall, deadline)
}

// SubmitAsync implements cleancache.AsyncTransport: it issues a get
// without waiting for its completion. The request is pushed as a tagged
// frame (draining the ring only if the frame does not fit) and a handle
// is returned for Await. The returned latency is the submission cost
// charged to the caller now — any drain this push triggered — not the
// get's completion time. Ops other than get, and transports without
// AsyncGets, fall back to the synchronous Submit and return an
// already-completed handle.
func (t *Transport) SubmitAsync(now time.Duration, req cleancache.Request) (*PendingGet, time.Duration) {
	if req.Op != cleancache.OpGet || !t.asyncGets {
		resp := t.Submit(now, req)
		return cleancache.CompletedPendingGet(resp, now+resp.Latency), resp.Latency
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.enqueueGetLocked(now, req)
}

// Await implements cleancache.AsyncTransport: it blocks (in virtual
// time) until pg completes, forcing a ring drain if the completion is
// still in flight. The returned Latency is the wait remaining from now;
// a get whose completion already landed in the past costs nothing more.
func (t *Transport) Await(now time.Duration, pg *PendingGet) cleancache.Response {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lat time.Duration
	if !pg.Done() {
		lat = t.drainLocked(now)
	}
	return t.resolveLocked(now, lat, pg)
}

// enqueueGetLocked pushes req as a tagged frame, serving it from the
// staging buffer instead when the block is staged (no crossing at all).
// Returns the pending handle and the submission latency charged now.
//
// ddlint:requires-lock mu
func (t *Transport) enqueueGetLocked(now time.Duration, req cleancache.Request) (*PendingGet, time.Duration) {
	if wait, hit := t.consumeStagedLocked(now, req.Key); hit {
		return t.armDeadline(now, t.readyHandleLocked(true, now+wait)), 0
	}
	if t.maxInflight > 0 && len(t.waiters) >= t.maxInflight {
		// Admission control: over the inflight cap the get is shed as an
		// immediate miss — the guest reads from disk — instead of growing
		// the waiter table without bound while the transport is stalled.
		t.stats.ShedGets++
		return t.readyHandleLocked(false, now), 0
	}
	pages := req.Op.Pages()
	if t.zeroCopy {
		pages = 0 // the answer page is mapped, not copied through the batch
	}
	var lat time.Duration
	if !t.ring.Fits(pages) {
		lat = t.drainLocked(now)
		// That drain may have dispatched a readahead staging this block.
		// The drain's own latency counts against the budget too — the
		// armed deadline turns an over-budget resolution into a clamped
		// miss.
		if wait, hit := t.consumeStagedLocked(now+lat, req.Key); hit {
			return t.armDeadline(now, t.readyHandleLocked(true, now+lat+wait)), lat
		}
	}
	tag := t.nextTag
	t.nextTag++
	pg := t.armDeadline(now, t.handleLocked(tag))
	t.waiters[tag] = waiter{pg: pg, key: req.Key}
	t.ring.PushTagged(tag, req, pages)
	t.stats.AsyncGets++
	if t.ring.Full() {
		lat += t.drainLocked(now + lat)
	}
	return pg, lat
}

// deadline is the absolute virtual time a data-path op submitted at now
// must finish by: now plus the configured budget, 0 (none) without one.
func (t *Transport) deadline(now time.Duration) time.Duration {
	if t.opBudget <= 0 {
		return 0
	}
	return now + t.opBudget
}

// handleLocked returns a pending handle awaiting tag's completion, in
// storage taken back from an earlier get when there is some.
//
// ddlint:requires-lock mu
func (t *Transport) handleLocked(tag uint64) *PendingGet {
	n := len(t.freeGets)
	if n == 0 {
		return cleancache.NewPendingGet(tag)
	}
	pg := t.freeGets[n-1]
	t.freeGets = t.freeGets[:n-1]
	pg.Reset(tag)
	return pg
}

// readyHandleLocked returns a handle that is already done — the answer
// is known (served from the staging buffer, or shed) — but not yet
// resolved: the first resolution records the response and charges any
// wait remaining until readyAt.
//
// ddlint:requires-lock mu
func (t *Transport) readyHandleLocked(ok bool, readyAt time.Duration) *PendingGet {
	pg := t.handleLocked(0)
	pg.Complete(ok, readyAt)
	return pg
}

// armDeadline arms a handle's latency budget relative to its submission
// time (a no-op without a configured budget), so Resolve clamps an
// over-budget resolution to a miss even for handles that never entered
// the waiter table.
func (t *Transport) armDeadline(now time.Duration, pg *PendingGet) *PendingGet {
	pg.SetDeadline(t.deadline(now))
	return pg
}

// resolveLocked turns a completed handle into the guest-visible
// response via PendingGet.Resolve. submitLat is the latency already
// accumulated by the caller this submission (drains it triggered); the
// reported latency is the later of that and the completion's ready-at.
// Failure of the crossing (abandoned batch or call) is reported as
// Ok=false — a miss, never data loss — and counted as a sync failure,
// or as a deadline miss when the budget ran out first. Idempotent: a
// second resolution returns the recorded response with only the wait
// remaining from now, and accounting happens only on the first — which
// is also where the transport takes the handle's storage back: the
// handle stays readable (and re-resolvable) until the next get reuses it.
//
// ddlint:requires-lock mu
func (t *Transport) resolveLocked(now, submitLat time.Duration, pg *PendingGet) cleancache.Response {
	preExpired := pg.DeadlineExceeded() // watchdog fails were counted at the sweep
	resp, first := pg.Resolve(now, submitLat)
	if !first {
		return resp
	}
	if tag := pg.Tag(); tag != 0 {
		// A waiter can resolve without a delivered completion — its 0xF9
		// frames were lost in flight, or the transport is being torn down
		// — and must still release its table entries, or the waiter table
		// leaks an entry per lost completion.
		delete(t.waiters, tag)
	}
	t.freeGets = append(t.freeGets, pg)
	if pg.DeadlineExceeded() {
		if !preExpired {
			t.stats.DeadlineMisses++
		}
	} else if pg.Failed() {
		t.stats.SyncFailures++
	}
	t.observe(cleancache.OpGet, resp.Latency)
	return resp
}

// consumeStagedLocked serves key from the staging buffer if present:
// the entry is consumed (gets are exclusive) and the returned wait is
// the time until its fill completes — zero for a block staged in the
// past. The fill already paid the page movement, so consumption is free.
// Under a latency budget, a fill that will not be ready within the
// budget is left staged (it may serve a later get once ready) and the
// lookup misses now — the guest is not made to wait past its deadline
// for a stalled prefetch.
//
// ddlint:requires-lock mu
func (t *Transport) consumeStagedLocked(now time.Duration, key cleancache.Key) (time.Duration, bool) {
	if t.opBudget > 0 {
		if sb := t.staged[key]; sb != nil && sb.ready-now > t.opBudget {
			t.stats.DeadlineMisses++
			return 0, false
		}
	}
	readyAt, ok := t.stagedHitLocked(key)
	if !ok {
		return 0, false
	}
	if readyAt <= now {
		return 0, true
	}
	return readyAt - now, true
}

// stageLocked records a readahead response: the extracted blocks become
// staged entries whose fill completes after the backend latency plus the
// page handover — mapped references under ZeroCopy, copies otherwise.
// The buffer is bounded; the oldest unconsumed entries are evicted,
// which is always safe (an evicted block is simply re-fetched). A block
// staged again while still staged keeps its place in the order.
//
// ddlint:requires-lock mu
func (t *Transport) stageLocked(at time.Duration, req cleancache.Request, resp cleancache.Response) {
	if resp.Count <= 0 {
		return
	}
	n := int(resp.Count)
	ready := at + resp.Latency
	if t.zeroCopy {
		ready += t.ch.MapPages(n)
	} else {
		ready += t.ch.CopyPages(n)
	}
	for i := int64(0); i < resp.Count; i++ {
		key := cleancache.Key{Pool: req.Key.Pool, Inode: req.Key.Inode, Block: req.Key.Block + i}
		if dup := t.staged[key]; dup != nil {
			dup.ready = ready
			continue
		}
		for len(t.staged) >= t.stagingCap {
			t.unstageLocked(t.stagedFIFO.Front())
			t.stats.StagedEvictions++
		}
		sb := t.stagedFree.PopFront()
		if sb == nil {
			sb = new(stagedBlock)
		}
		sb.key, sb.ready = key, ready
		t.staged[key] = sb
		t.stagedFIFO.PushBack(&sb.fifo, sb)
		t.stats.StagedFills++
	}
}

// unstageLocked takes sb out of the staging buffer — consumed, evicted or
// invalidated — and keeps its record for the next fill.
//
// ddlint:requires-lock mu
func (t *Transport) unstageLocked(sb *stagedBlock) {
	delete(t.staged, sb.key)
	t.stagedFIFO.Remove(&sb.fifo)
	t.stagedFree.PushFront(&sb.fifo, sb)
}

// invalidateStagedLocked drops staged blocks the submitted op could
// stale: the guest is about to overwrite or invalidate them, and serving
// a stale staged page would violate the cleancache contract. Dropping is
// always safe — a dropped staged block is re-fetched on demand.
//
// ddlint:requires-lock mu
func (t *Transport) invalidateStagedLocked(req cleancache.Request) {
	if len(t.staged) == 0 {
		return
	}
	switch req.Op {
	case cleancache.OpPut, cleancache.OpFlushPage:
		if sb := t.staged[req.Key]; sb != nil {
			t.unstageLocked(sb)
		}
	case cleancache.OpFlushInode, cleancache.OpMigrateObject:
		for key, sb := range t.staged {
			if key.Pool == req.Key.Pool && key.Inode == req.Key.Inode {
				t.unstageLocked(sb)
			}
		}
	case cleancache.OpDestroyCgroup:
		for key, sb := range t.staged {
			if key.Pool == req.Key.Pool {
				t.unstageLocked(sb)
			}
		}
	default: // ddlint:nonexhaustive — gets and the remaining control ops cannot stale staged blocks
	}
}

// crossLocked delivers payload across the boundary, re-sending dropped or
// checksum-rejected crossings with capped exponential backoff. Replay is
// idempotent because batches are FIFO and all-or-nothing: the receiver
// either decoded the whole payload or saw none of it, so re-sending the
// same frames cannot double-apply an op. The delivery timestamp `at`
// advances through every attempt and backoff, so each retry hits the
// fault plan at the virtual time it actually occurs. A non-zero deadline
// bounds the retry loop in virtual time: once `at` passes it, further
// retries cannot produce an answer anyone is still waiting for, so the
// crossing is abandoned early. Returns the total latency (at-now:
// crossings plus backoff) and whether the payload was delivered within
// the attempt and deadline budgets. Requires t.mu.
//
// ddlint:requires-lock mu
func (t *Transport) crossLocked(now time.Duration, pages int, payload []byte, site string, deadline time.Duration) (time.Duration, bool) {
	at := now
	backoff := t.retryBase
	for attempt := 1; ; attempt++ {
		dlat, err := t.ch.Deliver(at, pages, payload, site)
		at += dlat
		if err == nil {
			return at - now, true
		}
		if attempt >= t.maxAttempts {
			return at - now, false
		}
		if deadline > 0 && at >= deadline {
			return at - now, false
		}
		t.stats.Retries++
		t.stats.Backoff += backoff
		at += backoff
		backoff *= 2
		if backoff > t.retryCap {
			backoff = t.retryCap
		}
	}
}

// requeueLocked empties an abandoned batch at virtual time at, salvaging
// what the contract requires:
//
//   - puts and readaheads are dropped — the pages are simply not cached
//     (or not prefetched), free under the cleancache contract;
//   - tagged gets complete their waiters with Ok=false — a miss, so the
//     guest re-reads from its virtual disk, never data loss;
//   - flushes are re-queued for the next crossing, since a lost flush
//     would leave the hypervisor holding an object the guest invalidated
//     — but only up to MaxRequeues abandoned crossings each, so a
//     persistent transport fault surfaces as FlushAbandoned instead of
//     re-queuing the same flushes forever.
//
// Requires t.mu.
//
// ddlint:requires-lock mu
func (t *Transport) requeueLocked(at time.Duration) {
	gens := t.requeueGens
	t.requeueGens = nil
	var keep []cleancache.Request
	var keepGens []int
	idx := -1
	t.ring.DrainFrames(func(f Frame) {
		idx++
		if f.Tagged {
			if _, gone := t.cancelled[f.Tag]; gone {
				delete(t.cancelled, f.Tag) // watchdog already failed the waiter
				return
			}
			t.failWaiterLocked(f.Tag, at)
			return
		}
		switch f.Req.Op {
		case cleancache.OpPut, cleancache.OpReadAhead:
			return // droppable, fire-and-forget
		default: // ddlint:nonexhaustive — only flushes remain buffered untagged
		}
		gen := 1
		if idx < len(gens) {
			gen = gens[idx] + 1
		}
		if gen > t.maxRequeues {
			t.stats.FlushAbandoned++
			return
		}
		keep = append(keep, f.Req)
		keepGens = append(keepGens, gen)
	})
	for i, req := range keep {
		if !t.ring.Fits(req.Op.Pages()) {
			break // cannot happen: flushes carry no pages and count ≤ maxOps
		}
		t.ring.Push(req)
		t.requeueGens = append(t.requeueGens, keepGens[i])
		t.stats.RequeuedOps++
	}
}

// failWaiterLocked completes a tagged get's waiter as a transport
// failure at virtual time at.
//
// ddlint:requires-lock mu
func (t *Transport) failWaiterLocked(tag uint64, at time.Duration) {
	w, ok := t.waiters[tag]
	if !ok {
		return
	}
	delete(t.waiters, tag)
	w.pg.Fail(at)
}

// Flush implements cleancache.Transport: the guest's periodic transport
// tick (and shutdown) drains buffered ops.
func (t *Transport) Flush(now time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drainLocked(now)
}

// Watchdog implements cleancache.DeadlineTransport: it sweeps the waiter
// table for handles whose deadline has passed with the completion still
// in flight, failing each as a deadline miss and releasing its
// transport-side resources — the waiter-table entry now, the ring slot
// at the next drain (via the cancelled-tag tombstone: the frame must not
// dispatch, or the exclusive protocol would extract the block with
// nobody left to consume it), and any staged readahead covering the same
// block (a fill nobody is waiting for anymore). Returns how many waiters
// it failed. A no-op without a configured budget.
func (t *Transport) Watchdog(now time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.opBudget <= 0 {
		return 0
	}
	n := 0
	for tag, w := range t.waiters {
		dl := w.pg.Deadline()
		if dl <= 0 || now < dl {
			continue
		}
		delete(t.waiters, tag)
		if sb := t.staged[w.key]; sb != nil {
			t.unstageLocked(sb)
		}
		t.cancelled[tag] = struct{}{}
		w.pg.FailDeadline(dl)
		t.stats.WatchdogFails++
		t.stats.DeadlineMisses++
		n++
	}
	return n
}

// Close implements cleancache.DeadlineTransport: crash-safe teardown
// with work still in flight. Buffered ops get one final drain (flushes
// must reach the hypervisor; cancelled frames release their slots), any
// waiter still pending afterwards fails as a miss, and the staging
// buffer is dropped — staged blocks were already extracted from the
// pools, so dropping them is the exclusive protocol's normal fail-to-
// miss, never data loss. Counters survive Close; the waiter and staging
// tables are empty afterwards.
func (t *Transport) Close(now time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	lat := t.drainLocked(now)
	for tag, w := range t.waiters {
		delete(t.waiters, tag)
		w.pg.Fail(now + lat)
	}
	clear(t.cancelled)
	t.stats.StagedEvictions += int64(len(t.staged))
	for sb := t.stagedFIFO.Front(); sb != nil; sb = t.stagedFIFO.Front() {
		t.unstageLocked(sb)
	}
	return lat
}

// drainLocked delivers the buffered batch in one checksummed crossing:
// one world switch for the whole batch plus the page copies (re-sent with
// backoff if the crossing is dropped or corrupted in flight), then each
// op dispatched in FIFO order at its pipelined delivery time. Puts and
// flushes accumulate serially — the hypervisor applies them in order on
// the draining vCPU's time. Tagged gets and readaheads dispatch at their
// FIFO position but do not delay the ops behind them: their latency
// lands on their own completion (the waiter's ready-at, the staged
// fill's ready-at) instead of the draining caller, which is what lets
// several gets overlap. Completions are wire-encoded during the walk and
// demultiplexed to waiters afterwards. Returns the total latency charged
// to the draining caller. Requires t.mu.
func (t *Transport) drainLocked(now time.Duration) time.Duration {
	ops := t.ring.Len()
	if ops == 0 {
		return 0
	}
	pages := t.ring.Pages()
	// A configured budget caps the batch crossing's retry loop too: a
	// drain is charged to whichever caller triggered it, and no caller
	// should burn more than one budget's worth of retries on it.
	lat, ok := t.crossLocked(now, pages, t.ring.Bytes(), SiteBatch, t.deadline(now))
	if !ok {
		// Attempt budget exhausted: abandon the batch, salvaging what the
		// contract requires (see requeueLocked).
		t.stats.DroppedBatches++
		t.requeueLocked(now + lat)
		return lat
	}
	t.stats.Batches++
	t.requeueGens = t.requeueGens[:0] // delivered: salvaged flushes made it
	perOp := lat / time.Duration(ops) // amortized transport share
	if t.m != nil {
		t.m.batchOps.Record(now, float64(ops))
	}
	acc := lat
	t.completions = t.completions[:0]
	t.ring.DrainFrames(func(f Frame) {
		if f.Tagged {
			if _, gone := t.cancelled[f.Tag]; gone {
				// The watchdog failed this frame's waiter while the frame
				// sat in the ring: release the slot without dispatching —
				// dispatching would extract the block under the exclusive
				// protocol with nobody left to consume it.
				delete(t.cancelled, f.Tag)
				return
			}
			t.completeGetLocked(now+acc, f)
			return
		}
		if f.Req.Op == cleancache.OpReadAhead {
			resp := t.be.Dispatch(now+acc, f.Req)
			t.stageLocked(now+acc, f.Req, resp)
			t.observe(f.Req.Op, resp.Latency+perOp)
			return
		}
		// An invalidating op (put, flush) kills matching staged blocks at
		// its FIFO position, not only at Submit: a readahead earlier in
		// this same drain may have staged the pre-op content after the
		// submit-time invalidation ran, and serving that block once this
		// op applies would violate the cleancache contract.
		t.invalidateStagedLocked(f.Req)
		resp := t.be.Dispatch(now+acc, f.Req)
		acc += resp.Latency
		t.observe(f.Req.Op, resp.Latency+perOp)
	})
	// The completion frames (0xF9) cross back on their own delivery: the
	// fault plan can stall or lose them independently of the submissions.
	// Lost completions leave their waiters pending — the watchdog sweep
	// or the await fallback fails each as a miss within its budget.
	var cdelay time.Duration
	if len(t.completions) > 0 && t.ch.Faulty() {
		var lost bool
		cdelay, lost = t.ch.CompletionFault(now + acc)
		if lost {
			t.stats.CompletionDrops++
			t.completions = t.completions[:0]
		}
	}
	t.deliverCompletionsLocked(cdelay)
	return acc
}

// completeGetLocked dispatches one tagged get at virtual time at and
// appends its wire-encoded completion. A block staged by an earlier
// readahead in the same batch is served from the staging buffer — the
// whole point of issuing the readahead ahead of the stream. Requires
// t.mu.
//
// ddlint:requires-lock mu
func (t *Transport) completeGetLocked(at time.Duration, f Frame) {
	if readyAt, hit := t.stagedHitLocked(f.Req.Key); hit {
		if readyAt < at {
			readyAt = at
		}
		t.completions = EncodeCompletion(t.completions, Completion{Tag: f.Tag, Ok: true, At: readyAt})
		return
	}
	resp := t.be.Dispatch(at, f.Req)
	ready := at + resp.Latency
	if t.zeroCopy && resp.Ok {
		ready += t.ch.MapPages(1)
	}
	t.completions = EncodeCompletion(t.completions, Completion{Tag: f.Tag, Ok: resp.Ok, Count: resp.Count, At: ready})
}

// stagedHitLocked consumes key from the staging buffer if present,
// returning its fill-ready time. Split from consumeStagedLocked so the
// drain path can clamp ready-at to the dispatch time itself.
//
// ddlint:requires-lock mu
func (t *Transport) stagedHitLocked(key cleancache.Key) (time.Duration, bool) {
	sb := t.staged[key]
	if sb == nil {
		return 0, false
	}
	t.unstageLocked(sb)
	t.stats.StagedHits++
	return sb.ready, true
}

// deliverCompletionsLocked decodes the drain's completion frames — the
// same bytes a real transport would write into the shared completion
// ring — and demultiplexes each to its waiter by tag, with delay (an
// injected completion-path latency) added to every ready-time. Requires
// t.mu.
//
// ddlint:requires-lock mu
func (t *Transport) deliverCompletionsLocked(delay time.Duration) {
	b := t.completions
	for len(b) > 0 {
		c, n, err := DecodeCompletion(b)
		if err != nil {
			break // cannot happen: frames come from EncodeCompletion
		}
		b = b[n:]
		w, ok := t.waiters[c.Tag]
		if !ok {
			continue
		}
		delete(t.waiters, c.Tag)
		w.pg.Complete(c.Ok, c.At+delay)
	}
	t.completions = t.completions[:0]
}

// observe records one op's charged latency in its per-op-code histogram
// and tracks the worst charge any single get saw — the liveness bound
// the deadline budget enforces.
//
// ddlint:requires-lock mu
func (t *Transport) observe(op cleancache.OpCode, d time.Duration) {
	if op == cleancache.OpGet && d > t.stats.MaxGetLatency {
		t.stats.MaxGetLatency = d
	}
	if t.m == nil {
		return
	}
	if i := int(op); i >= 0 && i < len(t.m.lat) && t.m.lat[i] != nil {
		t.m.lat[i].Observe(d)
	}
}
