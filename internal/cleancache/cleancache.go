// Package cleancache models the guest OS second-chance cache interface of
// the paper: the Linux cleancache layer, extended for DoubleDecker so that
// pools belong to containers (cgroups) rather than file systems.
//
// The page cache calls the Front on lookup misses (get), clean evictions
// (put) and invalidations (flush). The Front derives the container pool
// from the cgroup owning the page — the paper's page→process→cgroup
// resolution — encodes the operation as a Request and submits it over a
// Transport to a Backend (the DoubleDecker hypervisor cache manager, or
// the nesting-agnostic Global baseline).
//
// The guest↔hypervisor boundary is op-based: every interaction is one of
// the paper's nine operations (OpCode), carried in a uniform Request and
// answered by a Response. Backends implement the single-method Dispatch
// entry point; transports may buffer batchable ops (put/flush) and deliver
// them in multi-op crossings (see internal/hypercall).
package cleancache

import (
	"fmt"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/ilist"
)

// VMID identifies a virtual machine at the hypervisor.
type VMID int

// PoolID identifies a container's cache pool within the hypervisor cache.
// Zero means "no pool" (hypervisor caching disabled for the container).
type PoolID int64

// Key identifies one cached block: the paper's
// (pool-id, inode-num, block-offset) tuple; the VM id is carried
// separately by the transport.
type Key struct {
	Pool  PoolID
	Inode uint64
	Block int64
}

// OpCode enumerates the paper's guest→hypervisor operation set.
//
// ddlint:exhaustive — every switch over OpCode must handle all ops (or
// carry an explicit ddlint:nonexhaustive waiver), so adding a tenth op
// breaks every dispatch, codec and metrics switch at lint time instead
// of silently no-opping at run time.
type OpCode uint8

// The DoubleDecker op set: the classic cleancache data ops plus the
// container-control ops the paper adds.
const (
	OpGet OpCode = iota + 1
	OpPut
	OpFlushPage
	OpFlushInode
	OpCreateCgroup
	OpDestroyCgroup
	OpSetCgWeight
	OpMigrateObject
	OpGetStats
	OpReadAhead

	opCount = int(OpReadAhead)
)

// OpCodes returns every defined op code, in wire order.
func OpCodes() []OpCode {
	out := make([]OpCode, 0, opCount)
	for op := OpGet; int(op) <= opCount; op++ {
		out = append(out, op)
	}
	return out
}

// String implements fmt.Stringer using the paper's op names.
func (op OpCode) String() string {
	switch op {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpFlushPage:
		return "FLUSH_PAGE"
	case OpFlushInode:
		return "FLUSH_INODE"
	case OpCreateCgroup:
		return "CREATE_CGROUP"
	case OpDestroyCgroup:
		return "DESTROY_CGROUP"
	case OpSetCgWeight:
		return "SET_CG_WEIGHT"
	case OpMigrateObject:
		return "MIGRATE_OBJECT"
	case OpGetStats:
		return "GET_STATS"
	case OpReadAhead:
		return "READ_AHEAD"
	default:
		return fmt.Sprintf("OpCode(%d)", int(op))
	}
}

// Valid reports whether op is a defined op code.
func (op OpCode) Valid() bool { return op >= OpGet && int(op) <= opCount }

// Batchable reports whether the op may be buffered and delivered in a
// multi-op crossing. Puts and flushes are fire-and-forget from the
// guest's point of view; gets and control ops need their answer (or
// their ordering effect) immediately, so they act as batch barriers.
func (op OpCode) Batchable() bool {
	// Deliberately partial: only the listed ops are fire-and-forget;
	// everything else (including future ops, until reviewed) defaults to
	// the safe synchronous barrier path.
	switch op {
	case OpPut, OpFlushPage, OpFlushInode, OpReadAhead:
		return true
	default: // ddlint:nonexhaustive
		return false
	}
}

// Pages reports how many data pages the op moves across the
// guest↔hypervisor boundary (get and put each carry one page).
func (op OpCode) Pages() int {
	// Deliberately partial: only get and put carry page payload; new ops
	// default to zero pages until reviewed.
	switch op {
	case OpGet, OpPut:
		return 1
	default: // ddlint:nonexhaustive
		return 0
	}
}

// Request is one guest→hypervisor operation. Field use per op:
//
//	GET, PUT, FLUSH_PAGE  Key
//	FLUSH_INODE           Key.Pool, Key.Inode
//	CREATE_CGROUP         Name, Spec
//	DESTROY_CGROUP        Key.Pool
//	SET_CG_WEIGHT         Key.Pool, Spec
//	MIGRATE_OBJECT        Key.Pool (source), To, Key.Inode
//	GET_STATS             Key.Pool
//	READ_AHEAD            Key (first block), Count (max blocks)
//
// VM is always set. Requests are value types so a batch is just
// []Request (or its wire encoding, see internal/hypercall).
type Request struct {
	Op   OpCode
	VM   VMID
	Key  Key
	Spec cgroup.HCacheSpec
	Name string
	To   PoolID
	// Count bounds a READ_AHEAD: the hypervisor stages at most Count
	// contiguous blocks starting at Key.Block.
	Count int64
}

// Response answers one Request. Ok reports a GET hit or an accepted PUT;
// Pool carries the CREATE_CGROUP result; Stats carries GET_STATS.
// Latency is the cost charged to the caller — backend-internal for a bare
// Backend.Dispatch, transport-inclusive when returned by a Transport.
type Response struct {
	Op      OpCode
	Ok      bool
	Pool    PoolID
	Stats   PoolStats
	Latency time.Duration
	// Count reports how many contiguous blocks a READ_AHEAD extracted.
	Count int64
}

// Backend is the hypervisor-side second-chance cache store, reached
// through the single op-dispatch entry point. Latencies returned are the
// store-internal costs; transport costs are added by the Transport.
type Backend interface {
	Dispatch(now time.Duration, req Request) Response
}

// Transport carries requests from a guest to a Backend. Implementations
// may buffer batchable ops and deliver them in multi-op crossings, as
// long as per-VM FIFO order is preserved and every non-batchable op acts
// as a barrier that drains buffered ops first.
type Transport interface {
	// Submit sends (or enqueues) one request. The Response's Latency is
	// everything charged to the caller now, including any batch drain
	// this submission triggered.
	Submit(now time.Duration, req Request) Response
	// Flush drains buffered operations, returning the latency incurred.
	Flush(now time.Duration) time.Duration
}

// PendingGet is the handle to one in-flight asynchronous get issued over
// an AsyncTransport: created at submission, completed when the crossing
// carrying the request drains (or is abandoned), redeemed with Await.
//
// The handle's fields — and its storage — are owned by the issuing
// transport: a concurrency-safe transport must confine every method call
// to its own internal lock, and guests interact with a handle only by
// passing it back to the transport that created it. The lifecycle is
// linear — pending → done (Complete/Fail) → resolved (first Resolve) —
// and every transition is idempotent-safe: resolving twice returns the
// recorded response with only the wait remaining. A transport may Reset
// a resolved handle for a later get, so what a guest wants to know of a
// handle it reads before its next submission.
//
// ddlint:linear
type PendingGet struct {
	tag     uint64
	done    bool
	ok      bool
	failed  bool // crossing abandoned: the frame never reached the backend
	readyAt time.Duration

	// deadline is the absolute virtual time by which the get must
	// resolve; past it the handle reports a miss regardless of the
	// completion's verdict (0 = no budget). expired records that the
	// budget was the reason the get missed.
	deadline time.Duration
	expired  bool

	resolved bool
	resp     Response
}

// NewPendingGet returns a fresh pending handle awaiting the completion of
// the tagged frame tag.
func NewPendingGet(tag uint64) *PendingGet { return &PendingGet{tag: tag} }

// Reset makes pg a fresh pending handle awaiting the completion of the
// tagged frame tag, whatever it held before — how a transport reuses the
// storage of a handle it has seen resolved.
func (pg *PendingGet) Reset(tag uint64) { *pg = PendingGet{tag: tag} }

// CompletedPendingGet returns a fully resolved handle wrapping resp — the
// sync-fallback path: a transport that answered synchronously hands back
// a handle whose Await costs only the wait remaining past readyAt.
func CompletedPendingGet(resp Response, readyAt time.Duration) *PendingGet {
	return &PendingGet{done: true, resolved: true, ok: resp.Ok, readyAt: readyAt, resp: resp}
}

// Tag reports the completion tag the transport assigned at submission.
func (pg *PendingGet) Tag() uint64 { return pg.tag }

// SetDeadline arms the handle's latency budget: Resolve reports a miss
// (with latency clamped to the budget) if the completion lands after the
// absolute virtual time d, and a watchdog may FailDeadline the handle
// outright once now passes d.
func (pg *PendingGet) SetDeadline(d time.Duration) { pg.deadline = d }

// Deadline reports the armed deadline (0 = no budget).
func (pg *PendingGet) Deadline() time.Duration { return pg.deadline }

// DeadlineExceeded reports whether the latency budget — not a transport
// failure — is why the get resolved as a miss.
func (pg *PendingGet) DeadlineExceeded() bool { return pg.expired }

// Done reports whether the completion has landed (or the crossing
// failed); a done handle's Await forces no further drain.
func (pg *PendingGet) Done() bool { return pg.done }

// Failed reports whether the crossing carrying the frame was abandoned.
func (pg *PendingGet) Failed() bool { return pg.failed }

// Complete records the get's answer and the virtual time its page
// handover finishes.
func (pg *PendingGet) Complete(ok bool, readyAt time.Duration) {
	pg.done = true
	pg.ok = ok
	pg.readyAt = readyAt
}

// Fail completes the handle as a transport failure at virtual time at:
// the frame never reached the backend, so the get reports a miss (never
// data loss).
//
// ddlint:consumes
func (pg *PendingGet) Fail(at time.Duration) {
	pg.done = true
	pg.failed = true
	pg.readyAt = at
}

// FailDeadline completes the handle as a latency-budget miss at virtual
// time at — the watchdog's verdict for a waiter whose deadline passed
// with the completion still in flight. Like Fail it is loss-free: the
// guest re-reads the block from its virtual disk.
//
// ddlint:consumes
func (pg *PendingGet) FailDeadline(at time.Duration) {
	pg.done = true
	pg.failed = true
	pg.expired = true
	pg.readyAt = at
}

// Resolve turns the handle into the guest-visible response. submitLat is
// the latency the caller already accumulated this submission (drains it
// triggered); the reported latency is the later of that and the wait
// until the completion's ready-at. first reports whether this call
// performed the resolution — the transport charges failure accounting
// and latency observation exactly once, on the first resolution; later
// calls return the recorded response with only the wait remaining from
// now.
//
// ddlint:consumes
func (pg *PendingGet) Resolve(now, submitLat time.Duration) (resp Response, first bool) {
	if pg.resolved {
		resp = pg.resp
		resp.Latency = 0
		if pg.readyAt > now {
			resp.Latency = pg.readyAt - now
		}
		return resp, false
	}
	if !pg.done {
		// A transport completes or fails every frame it accepted, but a
		// completion can be lost in flight (drop fault on the completion
		// path) or torn down mid-flight; a stuck waiter must not hang the
		// guest.
		pg.Fail(now + submitLat)
	}
	total := submitLat
	if wait := pg.readyAt - now; wait > total {
		total = wait
	}
	ok := pg.ok && !pg.failed
	if pg.deadline > 0 && now+total > pg.deadline {
		// The budget expired before the answer was usable: the guest
		// stopped waiting at the deadline and falls back to disk, so the
		// get is a miss and the charged wait is clamped to the budget
		// remaining. The crossing still completes in the background (its
		// virtual cost was already charged to the drain); only the
		// guest-visible verdict and wait are bounded.
		pg.expired = true
		ok = false
		total = pg.deadline - now
		if total < 0 {
			total = 0
		}
	}
	pg.resolved = true
	pg.resp = Response{Op: OpGet, Ok: ok, Latency: total}
	return pg.resp, true
}

// AsyncTransport is the optional capability a Transport may implement to
// let a guest keep several gets in flight at once. SubmitAsync issues a
// get without waiting for its answer, returning a pending handle and
// only the submission cost charged now; Await redeems the handle,
// charging the wait remaining until its completion. Fronts discover the
// capability by type assertion and fall back to the synchronous Submit,
// so plain transports (fakes, the cost-free backendTransport) keep
// working unchanged.
type AsyncTransport interface {
	Transport
	// SubmitAsync issues req without waiting for completion. For ops other
	// than get — or transports whose async path is disabled — it must fall
	// back to Submit and return an already-completed handle.
	SubmitAsync(now time.Duration, req Request) (*PendingGet, time.Duration)
	// Await blocks (in virtual time) until pg completes, returning the
	// response with Latency the wait remaining from now. The transport may
	// reuse pg for a get submitted after this call returns.
	Await(now time.Duration, pg *PendingGet) Response
}

// DeadlineTransport is the optional capability a Transport may implement
// when it enforces per-op latency budgets. Watchdog sweeps in-flight
// operations whose deadline has passed, failing each as a miss and
// releasing its transport-side resources (waiter-table entry, ring slot,
// covered staged blocks); it returns how many waiters it failed. Close
// tears the transport down — final drain, every outstanding handle
// failed as a miss, staging dropped — returning the teardown latency.
// Guests discover the capability by type assertion: the watchdog tick
// and VM shutdown call it when present, and plain transports need
// neither (they complete everything synchronously).
type DeadlineTransport interface {
	Transport
	Watchdog(now time.Duration) int
	Close(now time.Duration) time.Duration
}

// backendTransport is the trivial Transport: every op dispatches
// immediately with no transport cost. It is the wiring for in-process
// tests and for backends that are not behind a modeled hypercall.
type backendTransport struct{ be Backend }

// NewBackendTransport wraps a Backend as a cost-free, unbuffered
// Transport.
func NewBackendTransport(be Backend) Transport { return backendTransport{be} }

func (t backendTransport) Submit(now time.Duration, req Request) Response {
	return t.be.Dispatch(now, req)
}

func (t backendTransport) Flush(time.Duration) time.Duration { return 0 }

// PoolStats is the per-container statistics view the paper's GET_STATS
// operation exposes to the in-VM policy controller.
type PoolStats struct {
	UsedBytes        int64
	EntitlementBytes int64
	Objects          int64
	Gets             int64
	GetHits          int64
	Puts             int64
	PutRejects       int64
	Evictions        int64
	// Demotions counts objects moved down the tier ladder by capacity
	// enforcement instead of evicted outright (the write-behind third
	// tier); a demoted object is still cached, so it is deliberately not
	// part of Evictions.
	Demotions int64
	// ReadAheadGets counts blocks probed by READ_AHEAD bulk extraction
	// (including the terminating miss probe); ReadAheadHits counts the
	// blocks actually extracted. They stay out of Gets/GetHits: a staged
	// block may never reach the guest (staging-buffer eviction or
	// invalidation discards it, and the exclusive protocol has already
	// removed it from the pool), so folding readahead into the get
	// counters would conflate probe kinds. The derived ratios below DO
	// combine them — with the pipelined read path on by default, bulk
	// extraction replaces most synchronous gets, and a ratio over Gets
	// alone would exclude exactly the traffic that hits.
	ReadAheadGets int64
	ReadAheadHits int64
}

// LookupToStoreRatio is the paper's Table 2 metric: the percentage of
// stored objects that were later looked up successfully. Readahead
// extractions count as successful lookups.
func (s PoolStats) LookupToStoreRatio() float64 {
	if s.Puts == 0 {
		return 0
	}
	return 100 * float64(s.GetHits+s.ReadAheadHits) / float64(s.Puts)
}

// HitRatio is the fraction of lookups that hit, in percent. Readahead
// probes count as lookups alongside synchronous and tagged gets.
func (s PoolStats) HitRatio() float64 {
	gets := s.Gets + s.ReadAheadGets
	if gets == 0 {
		return 0
	}
	return 100 * float64(s.GetHits+s.ReadAheadHits) / float64(gets)
}

// FrontStats aggregates guest-side cleancache activity.
type FrontStats struct {
	Gets     int64
	GetHits  int64
	Puts     int64
	Flushes  int64
	Migrates int64
	// ReadAheads counts the READ_AHEAD requests the sequential-stream
	// detector issued.
	ReadAheads int64
	// DeadlineMisses counts async lookups that resolved as misses because
	// their latency budget expired (the transport's deadline enforcement,
	// see DeadlineTransport) rather than because the block was absent.
	DeadlineMisses int64
}

// streamKey identifies one per-file read stream for the sequential
// detector.
type streamKey struct {
	pool  PoolID
	inode uint64
}

// stream is the detector state for one file: the block a sequential
// reader would touch next, the current run length, and how far ahead
// staging has already been requested.
type stream struct {
	key   streamKey
	next  int64
	run   int
	ahead int64              // first block not yet covered by an issued READ_AHEAD
	lru   ilist.Elem[stream] // position in the detector's recency list
}

// seqRunThreshold is how many consecutive blocks a reader must touch
// before the detector calls the stream sequential and starts prefetching
// (mirrors the guest kernel's readahead ramp-up).
const seqRunThreshold = 3

// maxTrackedStreams bounds the detector's per-file state; when the table
// is full, the least-recently-accessed stream is evicted to make room.
// Readahead is best-effort, so evicting a cold stream only costs that
// stream a re-ramp if it ever resumes — active streams keep their run
// state.
const maxTrackedStreams = 256

// Front is the guest-side cleancache layer for one VM. Its methods are
// thin typed wrappers over the op API: each builds a Request and submits
// it on the VM's transport, so call sites read as the kernel hooks they
// model while everything crosses the boundary as ops.
type Front struct {
	vm VMID
	tr Transport
	// filter implements the paper's cgroup-name filter: only matching
	// containers get hypervisor cache pools. Nil admits every container.
	filter func(name string) bool

	// readAhead is the prefetch window (blocks) issued once a stream is
	// detected sequential; 0 disables detection entirely. streams holds
	// the per-file detector state and streamLRU orders it by recency
	// (front = hottest) so a full table evicts the coldest stream. Like
	// stats, these are owned by the VM's single submission context (the
	// transport below does its own locking).
	readAhead int
	streams   map[streamKey]*stream
	streamLRU ilist.List[stream]

	stats FrontStats
}

// NewFront wires a VM's cleancache layer to a backend over tr.
func NewFront(vm VMID, tr Transport) *Front {
	return &Front{vm: vm, tr: tr}
}

// VM reports the owning VM id.
func (f *Front) VM() VMID { return f.vm }

// Transport exposes the VM's transport (for telemetry and draining).
func (f *Front) Transport() Transport { return f.tr }

// SetFilter installs the cgroup-name filter.
func (f *Front) SetFilter(filter func(name string) bool) { f.filter = filter }

// SetReadAhead sets the sequential-stream prefetch window in blocks
// (0 disables detection). When a per-file read stream has touched
// seqRunThreshold consecutive blocks, every further sequential get
// extends a READ_AHEAD request so the hypervisor stages the next window
// blocks for crossing-free consumption.
func (f *Front) SetReadAhead(window int) {
	f.readAhead = window
	if window > 0 && f.streams == nil {
		f.streams = make(map[streamKey]*stream)
	}
}

// Stats returns the guest-side counters.
func (f *Front) Stats() FrontStats { return f.stats }

// FlushTransport drains any buffered operations — the guest's periodic
// transport tick calls this so puts and flushes never linger unsent.
func (f *Front) FlushTransport(now time.Duration) time.Duration {
	return f.tr.Flush(now)
}

// RegisterGroup handles the CREATE_CGROUP event: it asks the backend for a
// pool and records the id on the cgroup. Containers rejected by the filter
// keep pool id zero and bypass the hypervisor cache entirely.
func (f *Front) RegisterGroup(now time.Duration, g *cgroup.Group) time.Duration {
	if f.filter != nil && !f.filter(g.Name()) {
		return 0
	}
	resp := f.tr.Submit(now, Request{Op: OpCreateCgroup, VM: f.vm, Name: g.Name(), Spec: g.Spec()})
	g.SetPoolID(int64(resp.Pool))
	return resp.Latency
}

// UnregisterGroup handles DESTROY_CGROUP.
func (f *Front) UnregisterGroup(now time.Duration, g *cgroup.Group) time.Duration {
	if g.PoolID() == 0 {
		return 0
	}
	resp := f.tr.Submit(now, Request{Op: OpDestroyCgroup, VM: f.vm, Key: Key{Pool: PoolID(g.PoolID())}})
	g.SetPoolID(0)
	return resp.Latency
}

// UpdateSpec handles SET_CG_WEIGHT: pushes the group's current <T, W>
// tuple to the hypervisor cache.
func (f *Front) UpdateSpec(now time.Duration, g *cgroup.Group) time.Duration {
	if g.PoolID() == 0 {
		return 0
	}
	resp := f.tr.Submit(now, Request{Op: OpSetCgWeight, VM: f.vm, Key: Key{Pool: PoolID(g.PoolID())}, Spec: g.Spec()})
	return resp.Latency
}

// Get looks up a block on page cache miss and waits for the answer: a
// GetAsync redeemed on the spot. A hit moves the page to the guest (one
// page copied) and removes it from the hypervisor cache.
func (f *Front) Get(now time.Duration, g *cgroup.Group, inode uint64, block int64) (bool, time.Duration) {
	pr, lat := f.GetAsync(now, g, inode, block)
	hit, wait := f.AwaitRead(now+lat, &pr)
	return hit, lat + wait
}

// PendingRead is the guest-visible handle for one in-flight
// second-chance lookup issued by GetAsync. It is a value the caller
// keeps (the page cache holds a window of them in a scratch buffer) and
// redeems exactly once with AwaitRead; redeeming again returns the
// recorded verdict for free. Handles belong to the Front that issued them
// and share its single-submission-context ownership (they are not safe
// for concurrent use from multiple goroutines).
//
// ddlint:linear
type PendingRead struct {
	// pg is the transport's handle on an AsyncTransport; AwaitRead gives
	// it up at redemption, when the transport takes the storage back. Nil
	// when the answer was known at submission: no pool (done is set), or
	// a plain Transport, whose verdict waits in hit until readyAt.
	pg      *PendingGet
	readyAt time.Duration
	done    bool
	hit     bool
	expired bool
}

// Expired reports whether a redeemed handle missed because its latency
// budget ran out rather than because the block was absent — the signal
// the page cache uses to count deadline-driven disk fallbacks.
func (pr *PendingRead) Expired() bool { return pr.expired }

// GetAsync issues a second-chance lookup without waiting for its answer.
// On an AsyncTransport the get is submitted as an in-flight frame and
// the returned latency covers only the submission cost charged now (any
// ring drain it triggered); a plain Transport answers at submission, so
// the latency is the whole lookup and the handle's AwaitRead costs
// nothing more. Either way the sequential-stream detector observes the
// access at submission, so readahead for the blocks beyond the caller's
// window is already on the wire while the caller is still issuing or
// awaiting handles.
func (f *Front) GetAsync(now time.Duration, g *cgroup.Group, inode uint64, block int64) (PendingRead, time.Duration) {
	if g.PoolID() == 0 {
		return PendingRead{done: true}, 0
	}
	f.stats.Gets++
	key := Key{Pool: PoolID(g.PoolID()), Inode: inode, Block: block}
	req := Request{Op: OpGet, VM: f.vm, Key: key}
	var (
		pr  PendingRead
		lat time.Duration
	)
	if at, ok := f.tr.(AsyncTransport); ok {
		pr.pg, lat = at.SubmitAsync(now, req)
	} else {
		resp := f.tr.Submit(now, req)
		pr.hit, pr.readyAt, lat = resp.Ok, now+resp.Latency, resp.Latency
	}
	if f.readAhead > 0 {
		lat += f.noteAccess(now+lat, key)
	}
	return pr, lat
}

// AwaitRead redeems a GetAsync handle, returning the lookup verdict and
// the wait remaining from now until the answer's page handover
// completes. The first redemption counts the hit; later redemptions (and
// fast-miss handles) return the recorded verdict at no further cost.
func (f *Front) AwaitRead(now time.Duration, pr *PendingRead) (bool, time.Duration) {
	if pr.done {
		return pr.hit, 0
	}
	pr.done = true
	var wait time.Duration
	if pg := pr.pg; pg != nil {
		resp := f.tr.(AsyncTransport).Await(now, pg)
		// Await hands pg's storage back to the transport: keep what the
		// caller may still ask about and let go of the pointer.
		pr.hit, pr.expired, pr.pg = resp.Ok, pg.DeadlineExceeded(), nil
		wait = resp.Latency
	} else if pr.readyAt > now {
		wait = pr.readyAt - now // answered at submission
	}
	if pr.hit {
		f.stats.GetHits++
	} else if pr.expired {
		f.stats.DeadlineMisses++
	}
	return pr.hit, wait
}

// noteAccess feeds the sequential-stream detector with one get and, once
// the stream is established, issues a READ_AHEAD covering the blocks
// beyond what staging was already asked for. The request is batchable
// fire-and-forget; the returned latency is whatever ring drain the
// submission happened to trigger.
func (f *Front) noteAccess(now time.Duration, key Key) time.Duration {
	sk := streamKey{pool: key.Pool, inode: key.Inode}
	s := f.streams[sk]
	if s == nil {
		if len(f.streams) >= maxTrackedStreams {
			// Evict the least-recently-accessed stream: it pays a re-ramp
			// if it ever resumes, while every active stream keeps its run.
			// The new stream takes over its record.
			s = f.streamLRU.Back()
		}
		if s != nil {
			f.streamLRU.Remove(&s.lru)
			delete(f.streams, s.key)
			*s = stream{key: sk}
		} else {
			s = &stream{key: sk}
		}
		f.streamLRU.PushFront(&s.lru, s)
		f.streams[sk] = s
	} else {
		f.streamLRU.MoveToFront(&s.lru)
	}
	if key.Block == s.next {
		s.run++
	} else {
		s.run = 1
		s.ahead = key.Block + 1
	}
	s.next = key.Block + 1
	if s.run < seqRunThreshold {
		return 0
	}
	start := s.next
	if s.ahead > start {
		start = s.ahead
	}
	end := s.next + int64(f.readAhead)
	if start >= end {
		return 0 // window already requested
	}
	s.ahead = end
	return f.ReadAhead(now, key.Pool, key.Inode, start, end-start)
}

// ReadAhead asks the hypervisor to stage up to count contiguous blocks of
// (pool, inode) starting at block — the READ_AHEAD op the sequential
// detector drives. Exposed for tests and custom prefetch policies.
func (f *Front) ReadAhead(now time.Duration, pool PoolID, inode uint64, block, count int64) time.Duration {
	if pool == 0 || count <= 0 {
		return 0
	}
	f.stats.ReadAheads++
	resp := f.tr.Submit(now, Request{
		Op: OpReadAhead, VM: f.vm,
		Key:   Key{Pool: pool, Inode: inode, Block: block},
		Count: count,
	})
	return resp.Latency
}

// Put offers a clean evicted page to the hypervisor cache. A batching
// transport may defer delivery; the reported acceptance is then
// optimistic, which is harmless because the guest drops the page either
// way (fire-and-forget, as in the paper).
func (f *Front) Put(now time.Duration, g *cgroup.Group, inode uint64, block int64) (bool, time.Duration) {
	if g.PoolID() == 0 {
		return false, 0
	}
	f.stats.Puts++
	resp := f.tr.Submit(now, Request{
		Op: OpPut, VM: f.vm,
		Key: Key{Pool: PoolID(g.PoolID()), Inode: inode, Block: block},
	})
	return resp.Ok, resp.Latency
}

// FlushPage invalidates one block (dirtied or truncated in the guest).
func (f *Front) FlushPage(now time.Duration, g *cgroup.Group, inode uint64, block int64) time.Duration {
	if g.PoolID() == 0 {
		return 0
	}
	f.stats.Flushes++
	resp := f.tr.Submit(now, Request{
		Op: OpFlushPage, VM: f.vm,
		Key: Key{Pool: PoolID(g.PoolID()), Inode: inode, Block: block},
	})
	return resp.Latency
}

// FlushInode invalidates a whole file (deletion).
func (f *Front) FlushInode(now time.Duration, g *cgroup.Group, inode uint64) time.Duration {
	if g.PoolID() == 0 {
		return 0
	}
	f.stats.Flushes++
	resp := f.tr.Submit(now, Request{
		Op: OpFlushInode, VM: f.vm,
		Key: Key{Pool: PoolID(g.PoolID()), Inode: inode},
	})
	return resp.Latency
}

// MigrateInode handles MIGRATE_OBJECT when a shared file's ownership moves
// between containers.
func (f *Front) MigrateInode(now time.Duration, from, to *cgroup.Group, inode uint64) time.Duration {
	if from.PoolID() == 0 || to.PoolID() == 0 {
		return 0
	}
	f.stats.Migrates++
	resp := f.tr.Submit(now, Request{
		Op: OpMigrateObject, VM: f.vm,
		Key: Key{Pool: PoolID(from.PoolID()), Inode: inode},
		To:  PoolID(to.PoolID()),
	})
	return resp.Latency
}

// GroupStats implements the GET_STATS query for the in-VM policy
// controller.
func (f *Front) GroupStats(g *cgroup.Group) PoolStats {
	if g.PoolID() == 0 {
		return PoolStats{}
	}
	resp := f.tr.Submit(0, Request{Op: OpGetStats, VM: f.vm, Key: Key{Pool: PoolID(g.PoolID())}})
	return resp.Stats
}
