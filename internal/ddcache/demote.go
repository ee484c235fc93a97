// Write-behind demotion: the machinery that turns evictions into moves
// down the tier ladder (mem → SSD → remote) instead of drops.
//
// Eviction under a store's token re-homes each victim object to the next
// tier its pool uses, marks it Pending, and queues it here; the actual
// device write happens later, batched, when a put observes the queue's
// dirty bytes over the batch threshold (or at an explicit flush point:
// capacity changes, migration, FlushDemotions). Between enqueue and
// drain the object's bytes live only in this queue's modeled buffer —
// charged to no backend — and every invalidation path cancels the entry
// by clearing Pending under the VM lock (see Manager.releaseObject), so
// a demoted-then-staled block can never be written back and resurrect.
//
// The queue is a fixed-capacity ring, the same idiom as the hypercall
// transport's rings: entries are appended at tail, drained from head,
// and a full ring refuses admission (the eviction falls back to a plain
// drop). Dirtiness is doubly bounded — MaxDirtyBytes and one ring slot
// per ObjectSize of it — and the bound is enforced at admission, so
// dirty bytes can never exceed the configured ceiling at any
// interleaving.
//
// Lock discipline: demoteQueue.mu is a leaf (level 4) guarding only the
// ring arithmetic; it is taken under VM locks on the enqueue path and
// with no locks held on the pop path. The drain itself acquires VM locks
// and eviction tokens strictly one at a time, in hierarchy order.
package ddcache

import (
	"sync"
	"sync/atomic"
	"time"

	"doubledecker/internal/index"
)

// DemotionConfig bounds the write-behind demotion queue.
type DemotionConfig struct {
	// MaxDirtyBytes caps the bytes buffered awaiting write-behind
	// (default 8 MiB). Evictions that would exceed it drop instead. The
	// queued object count is capped at MaxDirtyBytes/ObjectSize (at
	// least 1).
	MaxDirtyBytes int64
	// BatchBytes is the dirty-byte threshold at which the next put
	// drains the queue (default 2 MiB, the eviction batch size).
	BatchBytes int64
}

func (c *DemotionConfig) defaults() {
	if c.MaxDirtyBytes <= 0 {
		c.MaxDirtyBytes = 8 << 20
	}
	if c.BatchBytes <= 0 {
		c.BatchBytes = DefaultEvictBatch
	}
}

// DemotionStats is a snapshot of the write-behind queue's counters.
// Conservation invariant (at quiesce): Enqueued == Drained + Cancelled +
// DroppedFull + DroppedError + DroppedBreaker + DirtyObjects.
type DemotionStats struct {
	Enqueued  int64 // demotions admitted to the queue
	Drained   int64 // demotions written to their target backend
	Cancelled int64 // entries invalidated before the drain reached them
	// DroppedFull, DroppedError and DroppedBreaker count queued
	// demotions that became true evictions at drain time: the target was
	// still full after enforcement, the device write failed, or the
	// target's breaker was open.
	DroppedFull    int64
	DroppedError   int64
	DroppedBreaker int64
	DirtyBytes     int64 // bytes currently buffered
	DirtyObjects   int64 // objects currently buffered
	MaxDirtyBytes  int64 // high-water mark of DirtyBytes
}

// demoteEntry is one queued write-behind demotion. The entry pins the
// pool whose VM lock guards obj.Pending; a Pending object never changes
// pools (migration drops it instead), so the pin stays valid for the
// entry's lifetime.
type demoteEntry struct {
	p   *poolState
	obj *index.Object
}

// demoteQueue is the bounded write-behind ring. Counters are atomic so
// the put-path trigger check (ready) and stat snapshots never take the
// ring mutex.
type demoteQueue struct {
	cfg DemotionConfig

	// mu guards the ring arithmetic only (leaf lock, level 4).
	mu   sync.Mutex
	ring []demoteEntry // ddlint:guarded-by mu
	head int           // ddlint:guarded-by mu
	n    int           // ddlint:guarded-by mu

	dirtyBytes    atomic.Int64
	dirtyObjects  atomic.Int64
	maxDirtyBytes atomic.Int64
	enqueued      atomic.Int64
	drained       atomic.Int64
	cancelled     atomic.Int64
	dropsFull     atomic.Int64
	dropsError    atomic.Int64
	dropsBreaker  atomic.Int64
}

// newDemoteQueue returns an empty queue with cfg's zero fields defaulted.
func newDemoteQueue(cfg DemotionConfig) *demoteQueue {
	cfg.defaults()
	return &demoteQueue{
		cfg:  cfg,
		ring: make([]demoteEntry, max(cfg.MaxDirtyBytes/ObjectSize, 1)),
	}
}

// tryEnqueue admits one demotion, reporting false when either dirtiness
// bound (or the ring itself — cancelled entries occupy their slot until
// popped) is at capacity. Bound check and append are one critical
// section, so concurrent evictors on different stores cannot overshoot
// the dirtiness ceiling between check and insert.
func (q *demoteQueue) tryEnqueue(p *poolState, obj *index.Object) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == len(q.ring) ||
		q.dirtyObjects.Load() >= int64(len(q.ring)) ||
		q.dirtyBytes.Load()+obj.Size > q.cfg.MaxDirtyBytes {
		return false
	}
	q.ring[(q.head+q.n)%len(q.ring)] = demoteEntry{p: p, obj: obj}
	obj.Queued = true
	q.n++
	q.dirtyObjects.Add(1)
	nb := q.dirtyBytes.Add(obj.Size)
	for {
		hw := q.maxDirtyBytes.Load()
		if nb <= hw || q.maxDirtyBytes.CompareAndSwap(hw, nb) {
			break
		}
	}
	q.enqueued.Add(1)
	return true
}

// pop removes the oldest entry; ok is false when the ring is empty.
func (q *demoteQueue) pop() (e demoteEntry, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return demoteEntry{}, false
	}
	e = q.ring[q.head]
	q.ring[q.head] = demoteEntry{}
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	return e, true
}

// ready reports whether the queue's dirty bytes have reached the batch
// threshold. Nil-safe; lock-free.
func (q *demoteQueue) ready() bool {
	return q != nil && q.dirtyBytes.Load() >= q.cfg.BatchBytes
}

// cancel settles the dirtiness accounting for an invalidated entry. The
// caller (releaseObject) has already cleared Pending under the VM lock;
// the ring slot stays occupied until the next drain pops and skips it.
func (q *demoteQueue) cancel(size int64) {
	q.dirtyBytes.Add(-size)
	q.dirtyObjects.Add(-1)
	q.cancelled.Add(1)
}

// settle settles the accounting for an entry leaving the queue at drain
// time, crediting the given outcome counter.
func (q *demoteQueue) settle(size int64, outcome *atomic.Int64) {
	q.dirtyBytes.Add(-size)
	q.dirtyObjects.Add(-1)
	outcome.Add(1)
}

// snapshot returns the queue's counters. Nil-safe (all zeros).
func (q *demoteQueue) snapshot() DemotionStats {
	if q == nil {
		return DemotionStats{}
	}
	return DemotionStats{
		Enqueued:       q.enqueued.Load(),
		Drained:        q.drained.Load(),
		Cancelled:      q.cancelled.Load(),
		DroppedFull:    q.dropsFull.Load(),
		DroppedError:   q.dropsError.Load(),
		DroppedBreaker: q.dropsBreaker.Load(),
		DirtyBytes:     q.dirtyBytes.Load(),
		DirtyObjects:   q.dirtyObjects.Load(),
		MaxDirtyBytes:  q.maxDirtyBytes.Load(),
	}
}

// DemotionStats snapshots the write-behind queue (all zeros when no
// remote backend is configured).
func (m *Manager) DemotionStats() DemotionStats { return m.demote.snapshot() }

// DemotionDirtyBytes reports the bytes currently buffered in the
// write-behind queue. Lock-free.
func (m *Manager) DemotionDirtyBytes() int64 {
	if m.demote == nil {
		return 0
	}
	return m.demote.dirtyBytes.Load()
}

// FlushDemotions force-drains the write-behind queue (quiesce, teardown,
// tests), returning the latency the drain incurred.
func (m *Manager) FlushDemotions(now time.Duration) time.Duration {
	return m.drainDemotions(now)
}

// drainDemotions empties the queue: each live entry is written to its
// target backend (evicting there first if full), and settled entries are
// skipped. Latencies accumulate onto the caller's clock — the op that
// triggered the drain is charged for the batch. Nil-safe. Callers hold
// no VM lock and no eviction token; the drain takes each strictly in
// hierarchy order, one at a time.
func (m *Manager) drainDemotions(now time.Duration) time.Duration {
	if m.demote == nil {
		return 0
	}
	var lat time.Duration
	for {
		e, ok := m.demote.pop()
		if !ok {
			return lat
		}
		lat += m.drainOne(now+lat, e)
	}
}

// drainOne lands one popped demotion and ends the ring's hold on the
// object. The entry may have been cancelled (Pending already false —
// accounting settled at cancel time), the target may need eviction room,
// the target's breaker may be open, or the device write may fail; every
// terminal outcome settles the dirtiness accounting exactly once, and
// only then clears Queued: the landing drops the VM lock to make room,
// and an object cancelled in that window must not be reused and
// re-queued behind this entry's back. An object that did not land
// (cancelled or dropped) is dead, and retired here — the one place a
// Queued object can be.
func (m *Manager) drainOne(now time.Duration, e demoteEntry) time.Duration {
	q := m.demote
	p := e.p
	v := p.vm
	var lat time.Duration
	v.mu.Lock()
	defer v.mu.Unlock()
	if !e.obj.Pending {
		retireQueued(p, e.obj) // cancelled before the drain got here; nothing to write
		return 0
	}
	t := m.tier(e.obj.Store)
	st, be := t.kind, t.be
	if be == nil || be.CapacityBytes() <= 0 {
		m.dropPending(p, e.obj, &q.dropsFull)
		return 0
	}
	if be.UsedBytes()+e.obj.Size > be.CapacityBytes() {
		// Make room under the target's eviction token; VM locks sit
		// below tokens in the hierarchy, so release ours first. The
		// enforcement may itself queue demotions one tier further down
		// (SSD → remote); the drain loop picks those up, and the ladder
		// terminates because remote evictions are plain drops.
		v.mu.Unlock()
		lat += m.enforceCapacity(now+lat, st, e.obj.Size)
		v.mu.Lock()
		if !e.obj.Pending {
			retireQueued(p, e.obj) // cancelled while unlocked
			return lat
		}
		if be.UsedBytes()+e.obj.Size > be.CapacityBytes() {
			m.dropPending(p, e.obj, &q.dropsFull)
			return lat
		}
	}
	if !t.breaker.allow(now + lat) {
		m.dropPending(p, e.obj, &q.dropsBreaker)
		return lat
	}
	slat, err := be.Store(now+lat, e.obj.Size)
	lat += slat
	t.breaker.feed(now+lat, err)
	if err != nil {
		m.dropPending(p, e.obj, &q.dropsError)
		return lat
	}
	e.obj.Pending = false
	e.obj.Queued = false // landed: resident in its target tier, the ring is done with it
	q.settle(e.obj.Size, &q.drained)
	return lat
}

// retireQueued ends the ring's hold on a dead object whose slot the
// drain has popped, and hands it back to its pool for reuse. Callers
// hold the owning VM's lock.
//
// ddlint:requires-lock mu
func retireQueued(p *poolState, obj *index.Object) {
	obj.Queued = false
	p.idx.Recycle(obj)
}

// dropPending turns a queued demotion into a true eviction: the object
// leaves the index, the dirtiness accounting settles under the given
// outcome counter, the pool's eviction counters tick, and the struct is
// retired. No backend Release — a Pending object holds no backend
// storage. Only the drain calls this, with the object's slot popped.
// Callers hold the owning VM's lock.
//
// ddlint:requires-lock mu
func (m *Manager) dropPending(p *poolState, obj *index.Object, outcome *atomic.Int64) {
	p.idx.Remove(obj)
	obj.Pending = false
	m.demote.settle(obj.Size, outcome)
	p.counters.evictions.Add(1)
	m.totalEvictions.Add(1)
	retireQueued(p, obj)
}
