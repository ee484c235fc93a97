// Package ddcache implements the paper's primary contribution: the
// DoubleDecker hypervisor cache store. It ties together the indexing
// module (package index), the policy module (package policy) and the
// storage module (package store) behind the cleancache.Backend interface,
// and supports:
//
//   - two-level differentiated partitioning: per-VM weights set by the
//     host administrator, per-container <T, W> tuples set from inside each
//     VM;
//   - memory and SSD cache stores, plus the hybrid (mem with SSD spill)
//     configuration option the paper describes, plus an optional third
//     tier: a modeled remote object store (see internal/store/remote)
//     that cold objects demote into through an asynchronous write-behind
//     queue (see demote.go) — mem evicts to SSD, SSD evicts to remote,
//     remote evictions are true drops;
//   - resource-conservative eviction: objects are evicted only when a
//     store reaches capacity, using the paper's Algorithm 1 victim
//     selection (VM level first, then container level) in 2 MiB batches;
//   - dynamic reconfiguration of weights, store types and capacities;
//   - the nesting-agnostic Global baseline (tmem-like): pools are still
//     tracked per container (so experiments can observe occupancy, as the
//     paper does), but eviction follows strict cross-pool FIFO order and
//     ignores weights — no container fairness. This is the paper's
//     comparison point in the motivation and evaluation sections.
//
// # Concurrency model
//
// A Manager is safe for use by any number of goroutines — the intended
// deployment is one or more goroutines per guest VM all sharing one
// manager, exactly as concurrent guests share the hypervisor cache.
//
// The design splits configuration state from data state so that the
// common path (Get/Put/Flush) never takes a store-wide lock:
//
//   - Configuration state — registered VMs, weights, pool specs and the
//     two-level entitlements derived from them — is published as an
//     immutable epoch snapshot (see epoch.go) swapped through an atomic
//     pointer. Data-path operations load the current epoch with one
//     atomic read; configuration operations build a successor epoch
//     under Manager.configMu and publish it atomically.
//   - Object state — each pool's index structure — is striped per VM:
//     poolState.idx and poolState.dead are guarded by the owning VM's
//     vmState.mu, so guests operating on different VMs never contend.
//   - Everything the manager knows about one tier — its backend, its
//     circuit breaker, its eviction token — is one row of the tier table
//     (Manager.tiers, built once in NewManager). Capacity enforcement
//     batches under the row's token, so at most one evictor per store
//     runs Algorithm 1 at a time while readers and same-store putters
//     keep flowing.
//
// The lock hierarchy, from outermost to innermost:
//
//  1. Manager.configMu — serializes configuration/structural operations
//     (VM registration, pool create/destroy, weight/spec/capacity
//     changes). Never taken by data-path operations.
//  2. Eviction tokens (tier.token, one per row of Manager.tiers) — one
//     evictor per store. Taken with configMu held (capacity shrink) or
//     with no lock held (Put slow path, demotion drain).
//  3. vmState.mu — one VM's pool indexes and liveness flags. Cross-VM
//     migration acquires two VM locks in VM-id order; every other
//     operation holds at most one.
//  4. Leaf locks: the breakers' internal locks and the demotion queue's
//     ring mutex.
//
// The order is machine-checked: ddlint's lockorder analyzer verifies
// every acquisition (including through callees) against the chains
// below; every tier's token is the one node tier.token.
//
// ddlint:lock-order Manager.configMu < tier.token < vmState.mu < breaker.mu
// ddlint:lock-order Manager.configMu < tier.token < vmState.mu < demoteQueue.mu
//
// A goroutine may hold an epoch that a concurrent configuration change
// has already superseded. That is safe by construction: epochs are
// immutable, byte accounting lives in index.Accounting atomics shared by
// all epochs, and destroyed pools are tombstoned via poolState.dead
// (checked under the VM lock) before they leave the epoch, so a stale
// reference can never resurrect a drained pool.
//
// Capacity checks on the Put fast path remain check-then-act: concurrent
// putters may transiently overshoot a full store by up to one object each
// before the next put takes the slow path and evicts under the store's
// eviction token. The index (package index) and storage (package store)
// modules document their own sides of this contract: index relies on the
// VM locks above, store and blockdev are self-locking.
package ddcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/index"
	"doubledecker/internal/metrics"
	"doubledecker/internal/policy"
	"doubledecker/internal/store"
)

// ObjectSize is the size of every cached object: one guest page.
const ObjectSize = 4096

// Mode selects container awareness.
type Mode int

// Modes of operation.
const (
	// ModeDD is full DoubleDecker: per-container pools and two-level
	// weighted partitioning.
	ModeDD Mode = iota + 1
	// ModeGlobal is the nesting-agnostic baseline: every container of a
	// VM shares one pool, evicted FIFO with no container fairness.
	ModeGlobal
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDD:
		return "doubledecker"
	case ModeGlobal:
		return "global"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes a Manager.
type Config struct {
	Mode Mode
	// Mem and SSD are the cache stores; either may be nil to disable
	// that backend.
	Mem store.Backend
	SSD store.Backend
	// Remote is the third-tier object-store backend (typically
	// store/remote); nil disables the tier. With a remote backend in
	// ModeDD, evictions demote down the tier ladder through the
	// write-behind queue instead of dropping (see demote.go).
	Remote store.Backend
	// Demotion tunes the write-behind demotion queue; the zero value
	// selects the defaults documented on DemotionConfig. Only meaningful
	// with a Remote backend in ModeDD.
	Demotion DemotionConfig
	// EvictBatchBytes is the eviction granularity; the paper uses 2 MiB.
	EvictBatchBytes int64
	// OpOverhead is the manager-internal CPU cost per operation.
	OpOverhead time.Duration
	// VictimSelector allows the ablation benchmarks to swap out the
	// Algorithm 1 variant; nil selects the paper's algorithm.
	VictimSelector func(ents []policy.Entity, evictionSize int64) int
	// Inclusive disables the exclusive-caching protocol: gets leave the
	// object in the cache, so guest page cache and hypervisor cache hold
	// duplicate copies — the wasteful design the paper's §2 argues
	// against. For the ablation benchmark only.
	Inclusive bool
	// Metrics receives the SSD circuit breaker's trip/probe/restore
	// events, the epoch.* gauges, and the breaker state gauge;
	// nil disables recording.
	Metrics *metrics.Registry
	// Breaker tunes the SSD circuit breaker; the zero value selects the
	// defaults documented on BreakerConfig. The breaker exists whenever
	// an SSD store is configured.
	Breaker BreakerConfig
	// RemoteBreaker tunes the remote tier's circuit breaker, which
	// exists whenever a Remote backend is configured: while open, remote
	// placements fall back to SSD-or-miss, remote-resident gets miss
	// without invalidating, and queued demotions are dropped.
	RemoteBreaker BreakerConfig
	// MaxInflightOps is the hypervisor-wide admission budget: the number
	// of data-path operations (gets, puts, readahead) allowed through
	// Dispatch concurrently across every VM. Submissions over the budget
	// are shed as immediate misses — counted on ShedOps, never errors —
	// so a flood from one guest degrades to disk reads instead of
	// queueing behind the cache. Control ops and flushes are always
	// admitted: a shed flush would break the cleancache invalidation
	// contract. Zero disables admission control.
	MaxInflightOps int64
}

// DefaultEvictBatch is the paper's 2 MiB eviction batch.
const DefaultEvictBatch = 2 << 20

// vmState is the mutable per-VM state record. It is shared by every
// epoch that includes the VM; the frozen attributes (weight, pool list)
// live on the epoch instead.
type vmState struct {
	id cleancache.VMID
	// mu is the per-VM data lock (level 3 of the hierarchy); it guards
	// the VM's pool index structures and liveness flags.
	mu sync.Mutex
}

// poolCounters are the per-pool statistics, atomic so GET_STATS snapshots
// never block the data path.
type poolCounters struct {
	gets          atomic.Int64
	getHits       atomic.Int64
	puts          atomic.Int64
	putRejects    atomic.Int64
	evictions     atomic.Int64
	demotions     atomic.Int64
	readaheadGets atomic.Int64
	readaheadHits atomic.Int64
}

func (c *poolCounters) snapshot() cleancache.PoolStats {
	return cleancache.PoolStats{
		Gets:          c.gets.Load(),
		GetHits:       c.getHits.Load(),
		Puts:          c.puts.Load(),
		PutRejects:    c.putRejects.Load(),
		Evictions:     c.evictions.Load(),
		Demotions:     c.demotions.Load(),
		ReadAheadGets: c.readaheadGets.Load(),
		ReadAheadHits: c.readaheadHits.Load(),
	}
}

// poolState is the mutable per-pool state record, shared by every epoch
// that includes the pool. The pool's spec and entitlements are frozen on
// the epoch (epochPool); only the index structure, the liveness flag and
// the statistics live here.
type poolState struct {
	id cleancache.PoolID
	// ddlint:guarded-by mu
	idx *index.Pool
	// acct is the pool's lock-free accounting view (atomic reads of
	// occupancy), shared with every epoch referencing this pool.
	acct *index.Accounting
	vm   *vmState
	// dead tombstones a destroyed pool: set under the VM lock before the
	// pool leaves the epoch, so goroutines holding a stale epoch reject
	// the pool instead of resurrecting drained state.
	// ddlint:guarded-by mu
	dead     bool
	counters poolCounters
}

// Manager is the DoubleDecker hypervisor cache manager. See the package
// documentation for the concurrency model.
type Manager struct {
	cfg Config

	// configMu (level 1 of the hierarchy) serializes configuration and
	// structural operations; the data path never takes it.
	configMu sync.Mutex
	// nextPool allocates pool ids.
	// ddlint:guarded-by configMu
	nextPool cleancache.PoolID

	// epoch is the current immutable configuration snapshot, read
	// lock-free by the data path and swapped by configuration ops.
	epoch atomic.Pointer[epoch]

	// tiers is the tier table, indexed by entSlot and immutable after
	// NewManager apart from each row's token. Slots no tier of tierOrder
	// maps to (unknown, hybrid) stay zero: no backend, so nothing is ever
	// placed, fetched or enforced there.
	tiers [entSlots]tier

	// demote is the write-behind demotion queue (see demote.go); nil
	// unless a remote backend is configured in ModeDD.
	demote *demoteQueue

	// run-wide counters
	nextSeq        atomic.Uint64
	totalEvictions atomic.Int64

	// admission control: inflightOps tracks data-path ops currently
	// inside Dispatch, shedOps counts the ones rejected over
	// Config.MaxInflightOps.
	inflightOps atomic.Int64
	shedOps     atomic.Int64
}

// tier is one row of the manager's tier table.
type tier struct {
	kind cgroup.StoreType
	// be is the tier's store; nil when the tier is not configured.
	be store.Backend
	// breaker guards be against a failing device: after Threshold errors
	// in the sliding window the tier's traffic is shed (placements walk
	// up to a faster tier or are rejected, resident gets miss) until
	// half-open probes re-admit the device. Self-locking (a leaf below
	// the VM locks); nil for memory and for unconfigured tiers, and a nil
	// breaker allows all traffic.
	breaker *breaker
	// token is the tier's eviction token (level 2 of the hierarchy):
	// capacity enforcement batches under it instead of blocking readers
	// store-wide.
	token sync.Mutex
}

var _ cleancache.Backend = (*Manager)(nil)

// NewManager returns a manager over the configured stores; zero Config
// fields select the documented defaults.
func NewManager(cfg Config) *Manager {
	if cfg.EvictBatchBytes <= 0 {
		cfg.EvictBatchBytes = DefaultEvictBatch
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeDD
	}
	if cfg.OpOverhead == 0 {
		cfg.OpOverhead = 300 * time.Nanosecond
	}
	if cfg.VictimSelector == nil {
		cfg.VictimSelector = policy.SelectVictim
	}
	m := &Manager{
		cfg:      cfg,
		nextPool: 1,
	}
	m.epoch.Store(emptyEpoch())
	// The tier table: the one place a tier's backend, breaker tuning and
	// metric prefix are named. Memory has no breaker.
	for _, row := range []struct {
		kind    cgroup.StoreType
		be      store.Backend
		breaker *BreakerConfig
		metric  string
	}{
		{cgroup.StoreMem, cfg.Mem, nil, ""},
		{cgroup.StoreSSD, cfg.SSD, &cfg.Breaker, "breaker.ssd"},
		{cgroup.StoreRemote, cfg.Remote, &cfg.RemoteBreaker, "breaker.remote"},
	} {
		t := m.tier(row.kind)
		t.kind, t.be = row.kind, row.be
		if row.be != nil && row.breaker != nil {
			t.breaker = newBreaker(*row.breaker, cfg.Metrics, row.metric)
		}
	}
	if cfg.Remote != nil && cfg.Mode == ModeDD {
		m.demote = newDemoteQueue(cfg.Demotion)
	}
	return m
}

// Mode reports the configured container-awareness mode.
func (m *Manager) Mode() Mode { return m.cfg.Mode }

// tier returns st's row of the tier table (hybrid resolves elsewhere).
func (m *Manager) tier(st cgroup.StoreType) *tier { return &m.tiers[entSlot(st)] }

// --- host administrator interface -----------------------------------------

// RegisterVM announces a VM with its cache-distribution weight.
func (m *Manager) RegisterVM(id cleancache.VMID, weight int64) {
	m.configMu.Lock()
	defer m.configMu.Unlock()
	m.mutateEpoch(func(b *epochBuilder) {
		bv := b.ensureVM(id, weight)
		bv.weight = weight
	})
}

// UnregisterVM drops a VM and all its pools.
func (m *Manager) UnregisterVM(id cleancache.VMID) {
	m.configMu.Lock()
	defer m.configMu.Unlock()
	ev, ok := m.epoch.Load().vmByID[id]
	if !ok {
		return
	}
	for _, pe := range ev.pools {
		m.killPool(pe.state)
	}
	m.mutateEpoch(func(b *epochBuilder) { b.removeVM(id) })
}

// SetVMWeight updates a VM's weight (dynamic re-provisioning, Figure 14).
func (m *Manager) SetVMWeight(id cleancache.VMID, weight int64) {
	m.configMu.Lock()
	defer m.configMu.Unlock()
	if _, ok := m.epoch.Load().vmByID[id]; !ok {
		return
	}
	m.mutateEpoch(func(b *epochBuilder) {
		if bv := b.findVM(id); bv != nil {
			bv.weight = weight
		}
	})
}

// SetCapacity resizes the st store at runtime (a no-op when the tier is
// not configured), evicts down to the new capacity if needed, and
// returns the latency the resize incurred — the eviction cost is charged
// to the configuration op, not smeared over unrelated data ops.
func (m *Manager) SetCapacity(now time.Duration, st cgroup.StoreType, n int64) time.Duration {
	be := m.tier(st).be
	if be == nil {
		return 0
	}
	m.configMu.Lock()
	defer m.configMu.Unlock()
	be.SetCapacityBytes(n)
	// Entitlements are capacity-derived: publish a recomputed epoch.
	m.mutateEpoch(nil)
	lat := m.cfg.OpOverhead
	lat += m.enforceCapacity(now+lat, st, 0)
	// A shrink may have demoted objects down the tier ladder; settle the
	// queue before returning so the resize's cost is charged here.
	lat += m.drainDemotions(now + lat)
	return lat
}

// --- op handlers (routed through Dispatch, see dispatch.go) ----------------

// CreatePool handles the CREATE_CGROUP op.
func (m *Manager) CreatePool(_ time.Duration, vm cleancache.VMID, name string, spec cgroup.HCacheSpec) (cleancache.PoolID, time.Duration) {
	m.configMu.Lock()
	defer m.configMu.Unlock()
	if spec.Store == 0 {
		spec.Store = cgroup.StoreMem
		if spec.Weight <= 0 {
			spec.Weight = 100
		}
	}
	if spec.Weight < 0 {
		spec.Weight = 0
	}
	id := m.nextPool
	m.nextPool++
	m.mutateEpoch(func(b *epochBuilder) {
		// Auto-register unknown VMs with a default weight, mirroring a
		// hypervisor admitting an unconfigured guest.
		bv := b.ensureVM(vm, 100)
		idx := index.NewPool(id, bv.state.id, name)
		p := &poolState{id: id, idx: idx, acct: idx.Acct(), vm: bv.state}
		bv.pools = append(bv.pools, &builderPool{id: id, state: p, spec: spec})
	})
	return id, m.cfg.OpOverhead
}

// DestroyPool handles the DESTROY_CGROUP op.
func (m *Manager) DestroyPool(_ time.Duration, _ cleancache.VMID, pool cleancache.PoolID) time.Duration {
	m.configMu.Lock()
	defer m.configMu.Unlock()
	pe, ok := m.epoch.Load().pools[pool]
	if !ok {
		return 0
	}
	m.killPool(pe.state)
	m.mutateEpoch(func(b *epochBuilder) { b.removePool(pool) })
	return m.cfg.OpOverhead
}

// killPool tombstones and drains one pool under its VM lock. Goroutines
// holding a stale epoch observe dead and treat the pool as gone.
//
// ddlint:requires-lock configMu
func (m *Manager) killPool(p *poolState) {
	v := p.vm
	v.mu.Lock()
	defer v.mu.Unlock()
	p.dead = true
	for _, obj := range p.idx.DrainAll() {
		m.releaseObject(p, obj)
	}
}

// SetSpec handles the SET_CG_WEIGHT op. Changing the store type flushes
// objects from stores the pool no longer uses; the freed share is
// redistributed implicitly by the entitlement math of the new epoch.
func (m *Manager) SetSpec(_ time.Duration, _ cleancache.VMID, pool cleancache.PoolID, spec cgroup.HCacheSpec) time.Duration {
	m.configMu.Lock()
	defer m.configMu.Unlock()
	pe, ok := m.epoch.Load().pools[pool]
	if !ok {
		return 0
	}
	if m.cfg.Mode == ModeGlobal {
		return m.cfg.OpOverhead // baseline ignores container policy
	}
	old := pe.spec
	if spec.Weight <= 0 {
		spec.Weight = old.Weight
	}
	if spec.Store == 0 {
		spec.Store = old.Store
	}
	next := m.mutateEpoch(func(b *epochBuilder) { b.setSpec(pool, spec) })
	npe := next.pools[pool]
	p := pe.state
	v := p.vm
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, st := range tierOrder {
		if npe.usesStore(st) || p.acct.UsedBytes(st) == 0 {
			continue
		}
		// Drop objects stranded in a de-configured store.
		for {
			obj := p.idx.Oldest(st)
			if obj == nil {
				break
			}
			p.idx.Remove(obj)
			m.releaseObject(p, obj)
			p.counters.evictions.Add(1)
			m.totalEvictions.Add(1)
		}
	}
	return m.cfg.OpOverhead
}

// Get handles the GET op: exclusive lookup — a hit removes the
// object and pays the store's fetch latency.
//
// Failure handling follows the cleancache contract: a fetch error
// invalidates the entry and reports a miss — the guest re-reads the page
// from its virtual disk, so dropping is always safe. While a tier's
// breaker is open, gets of objects resident there miss without
// invalidating (the stored bytes are intact; only the device is being
// avoided). A get that misses SSD but hits the remote tier is a slow
// hit: the modeled round trip is charged in full. An object whose
// demotion is still queued (Pending) hits at metadata cost — its bytes
// sit in the write-behind buffer, no device is touched — and the hit
// cancels the queued demotion.
func (m *Manager) Get(now time.Duration, _ cleancache.VMID, key cleancache.Key) (bool, time.Duration) {
	pe, ok := m.epoch.Load().pools[key.Pool]
	if !ok {
		return false, 0
	}
	p := pe.state
	v := p.vm
	v.mu.Lock()
	defer v.mu.Unlock()
	if p.dead {
		return false, 0
	}
	p.counters.gets.Add(1)
	lat := m.cfg.OpOverhead
	obj := p.idx.Lookup(key.Inode, key.Block)
	if obj == nil {
		return false, lat
	}
	if !obj.Pending {
		t := m.tier(obj.Store)
		if !t.breaker.allow(now + lat) {
			return false, lat
		}
		if t.be != nil {
			flat, err := t.be.Fetch(now+lat, obj.Size)
			lat += flat
			t.breaker.feed(now+lat, err)
			if err != nil {
				p.idx.Remove(obj)
				m.releaseObject(p, obj)
				return false, lat
			}
		}
	}
	p.counters.getHits.Add(1)
	if !m.cfg.Inclusive {
		p.idx.Remove(obj)
		m.releaseObject(p, obj)
	}
	return true, lat
}

// ReadAhead handles the READ_AHEAD op: a bulk get of up to count
// contiguous blocks starting at key.Block, stopping at the first block
// the pool does not hold. Each extracted block follows the GET data
// semantics — fetched from its store, removed under the exclusive
// protocol — but is accounted under the separate readahead counters
// (every probe, including the terminating miss, counts a ReadAheadGet;
// every extraction a ReadAheadHit): a staged block may never reach the
// guest, so folding extractions into Gets/GetHits would skew the pool
// hit-rate metrics. Returns the number of blocks extracted and the
// accumulated latency.
func (m *Manager) ReadAhead(now time.Duration, _ cleancache.VMID, key cleancache.Key, count int64) (int64, time.Duration) {
	pe, ok := m.epoch.Load().pools[key.Pool]
	if !ok {
		return 0, 0
	}
	p := pe.state
	v := p.vm
	v.mu.Lock()
	defer v.mu.Unlock()
	if p.dead {
		return 0, 0
	}
	lat := m.cfg.OpOverhead
	var n int64
	for i := int64(0); i < count; i++ {
		obj := p.idx.Lookup(key.Inode, key.Block+i)
		p.counters.readaheadGets.Add(1)
		if obj == nil {
			break
		}
		if !obj.Pending {
			t := m.tier(obj.Store)
			if !t.breaker.allow(now + lat) {
				break
			}
			if t.be != nil {
				flat, err := t.be.Fetch(now+lat, obj.Size)
				lat += flat
				t.breaker.feed(now+lat, err)
				if err != nil {
					p.idx.Remove(obj)
					m.releaseObject(p, obj)
					break
				}
			}
		}
		p.counters.readaheadHits.Add(1)
		if !m.cfg.Inclusive {
			p.idx.Remove(obj)
			m.releaseObject(p, obj)
		}
		n++
	}
	return n, lat
}

// SSDBreakerStats snapshots the SSD circuit breaker's state and event
// counters (zero-valued, state "closed", when no SSD store is configured).
func (m *Manager) SSDBreakerStats() BreakerStats { return m.tier(cgroup.StoreSSD).breaker.snapshot() }

// RemoteBreakerStats snapshots the remote tier's circuit breaker
// (zero-valued, state "closed", when no remote backend is configured).
func (m *Manager) RemoteBreakerStats() BreakerStats {
	return m.tier(cgroup.StoreRemote).breaker.snapshot()
}

// Put handles the PUT op: stores a clean page evicted by the
// guest, evicting per Algorithm 1 when the target store is full.
//
// The fast path runs entirely under the VM lock (epoch state is read
// lock-free); only when the target store is full does Put drop to the
// slow path, which evicts under the store's eviction token and then
// re-validates everything. Once the write-behind queue's dirty bytes
// reach the demotion batch threshold, the put drains the queue after
// releasing its locks — demotion I/O is batched onto put boundaries,
// never charged to gets.
func (m *Manager) Put(now time.Duration, vm cleancache.VMID, key cleancache.Key) (bool, time.Duration) {
	ok, lat := m.putInner(now, vm, key)
	if m.demote.ready() {
		lat += m.drainDemotions(now + lat)
	}
	return ok, lat
}

// putInner is Put minus the demotion-drain trigger; it returns with no
// locks held.
func (m *Manager) putInner(now time.Duration, _ cleancache.VMID, key cleancache.Key) (bool, time.Duration) {
	pe, ok := m.epoch.Load().pools[key.Pool]
	if !ok {
		return false, 0
	}
	p := pe.state
	v := p.vm
	v.mu.Lock()
	if p.dead {
		v.mu.Unlock()
		return false, 0
	}
	p.counters.puts.Add(1)
	lat := m.cfg.OpOverhead
	t := m.placementStore(now, pe)
	if t == nil || t.be.CapacityBytes() <= 0 {
		p.counters.putRejects.Add(1)
		v.mu.Unlock()
		return false, lat
	}
	if t.be.UsedBytes()+ObjectSize > t.be.CapacityBytes() {
		// Eviction runs under the store's eviction token; drop the VM
		// lock (tokens are above VM locks in the hierarchy) and retry on
		// the slow path.
		v.mu.Unlock()
		return m.putSlow(now, key, lat)
	}
	ok = m.commitPut(now, p, t, key, &lat)
	if !ok {
		p.counters.putRejects.Add(1)
	}
	v.mu.Unlock()
	return ok, lat
}

// putSlow is the eviction path of Put: it evicts per Algorithm 1 under
// the store's eviction token, then re-resolves the pool in the current
// epoch (the pool may have been destroyed while no lock was held) and
// stores.
func (m *Manager) putSlow(now time.Duration, key cleancache.Key, lat time.Duration) (bool, time.Duration) {
	pe, ok := m.epoch.Load().pools[key.Pool]
	if !ok {
		return false, lat
	}
	p := pe.state
	t := m.placementStore(now, pe)
	if t == nil || t.be.CapacityBytes() <= 0 {
		p.counters.putRejects.Add(1)
		return false, lat
	}
	if t.be.UsedBytes()+ObjectSize > t.be.CapacityBytes() {
		lat += m.enforceCapacity(now+lat, t.kind, ObjectSize)
		if t.be.UsedBytes()+ObjectSize > t.be.CapacityBytes() {
			p.counters.putRejects.Add(1)
			return false, lat
		}
	}
	v := p.vm
	v.mu.Lock()
	defer v.mu.Unlock()
	if p.dead {
		return false, lat
	}
	if !m.commitPut(now, p, t, key, &lat) {
		p.counters.putRejects.Add(1)
		return false, lat
	}
	return true, lat
}

// commitPut charges the store and indexes the object, reporting whether
// it was admitted. The device write happens before the index insert: a
// failed write drops the object — put returns not-stored, which the
// cleancache contract makes safe — leaving index and usage accounting
// exactly as they were. Callers hold the pool's VM lock.
//
// ddlint:requires-lock mu
func (m *Manager) commitPut(now time.Duration, p *poolState, t *tier, key cleancache.Key, lat *time.Duration) bool {
	seq := m.nextSeq.Add(1) // taken before the write: a failed put still consumes one
	slat, err := t.be.Store(now+*lat, ObjectSize)
	*lat += slat
	t.breaker.feed(now+*lat, err)
	if err != nil {
		return false
	}
	obj := p.idx.NewObject()
	obj.Inode, obj.Block, obj.Size, obj.Store, obj.Seq = key.Inode, key.Block, ObjectSize, t.kind, seq
	if replaced := p.idx.Insert(obj); replaced != nil {
		m.releaseObject(p, replaced)
	}
	return true
}

// releaseObject is where an object dies: the caller has taken obj out of
// p's index (or Insert displaced it), and releaseObject drops its
// physical storage and hands the struct back to p for reuse. A Pending
// object holds no backend storage — its bytes sit in the write-behind
// buffer — so releasing it just cancels the queued demotion; the drain
// skips the settled entry and, because the ring slot still points at
// the struct, is also what recycles it (see index.Object.Queued). This
// is the cancellation point every invalidation path (flush, exclusive
// get, destroy, replace, eviction) funnels through, which is what makes
// a demoted-then-staled block unable to resurrect: by the time the drain
// reaches the entry, Pending is false and nothing is written. Callers
// hold the owning VM's lock and do not read obj afterwards: it may
// already be back on p's free list.
//
// ddlint:requires-lock mu
func (m *Manager) releaseObject(p *poolState, obj *index.Object) {
	if obj.Pending {
		obj.Pending = false
		m.demote.cancel(obj.Size)
	} else {
		m.releaseStorage(obj)
	}
	p.idx.Recycle(obj)
}

// releaseStorage frees the backend bytes of a non-Pending object.
func (m *Manager) releaseStorage(obj *index.Object) {
	if be := m.tier(obj.Store).be; be != nil {
		be.Release(obj.Size)
	}
}

// placementStore resolves the tier a pool's next object goes to: its
// configured store, or for hybrid pools memory until the pool's memory
// entitlement is exhausted, then SSD (the paper's hybrid-mode semantics).
// An open breaker walks the placement up tierOrder to the next faster
// configured tier — remote degrades to SSD (or memory), SSD degrades to
// memory. Nil means the put is rejected (the page is simply not cached —
// cleancache-safe): the requested tier is not configured, or no healthy
// tier remains. Reads only epoch state and atomic accounting, so callers
// need no lock.
func (m *Manager) placementStore(now time.Duration, pe *epochPool) *tier {
	st := pe.spec.Store
	switch {
	case m.cfg.Mode == ModeGlobal:
		// The nesting-agnostic baseline is a plain memory cache.
		st = cgroup.StoreMem
	case st == cgroup.StoreHybrid:
		st = cgroup.StoreSSD
		if m.cfg.Mem != nil && pe.acct.UsedBytes(cgroup.StoreMem)+ObjectSize <= pe.ent[entSlot(cgroup.StoreMem)] {
			st = cgroup.StoreMem
		}
	}
	if m.tier(st).be == nil {
		return nil
	}
	reached := false
	for i := len(tierOrder) - 1; i >= 0; i-- {
		t := m.tier(tierOrder[i])
		reached = reached || t.kind == st
		if reached && t.be != nil && t.breaker.allow(now) {
			return t
		}
	}
	return nil
}

// FlushPage handles the FLUSH_PAGE op.
func (m *Manager) FlushPage(_ time.Duration, _ cleancache.VMID, key cleancache.Key) time.Duration {
	pe, ok := m.epoch.Load().pools[key.Pool]
	if !ok {
		return 0
	}
	p := pe.state
	v := p.vm
	v.mu.Lock()
	defer v.mu.Unlock()
	if p.dead {
		return 0
	}
	if obj := p.idx.Lookup(key.Inode, key.Block); obj != nil {
		p.idx.Remove(obj)
		m.releaseObject(p, obj)
	}
	return m.cfg.OpOverhead
}

// FlushInode handles the FLUSH_INODE op.
func (m *Manager) FlushInode(_ time.Duration, _ cleancache.VMID, pool cleancache.PoolID, inode uint64) time.Duration {
	pe, ok := m.epoch.Load().pools[pool]
	if !ok {
		return 0
	}
	p := pe.state
	v := p.vm
	v.mu.Lock()
	defer v.mu.Unlock()
	if p.dead {
		return 0
	}
	for _, obj := range p.idx.RemoveInode(inode) {
		m.releaseObject(p, obj)
	}
	return m.cfg.OpOverhead
}

// MigrateInode handles the MIGRATE_OBJECT op: cached blocks of a shared
// file change pool ownership without moving data. Migration within one
// VM holds that VM's lock; the cross-VM case acquires both VM locks in
// VM-id order (the one place two VM locks are held at once). The queue
// is force-drained first — flush-before-migrate ordering — so a queued
// demotion can never follow its object across a pool boundary; any
// demotion racing in after the drain is dropped by migrateLocked.
func (m *Manager) MigrateInode(now time.Duration, _ cleancache.VMID, from, to cleancache.PoolID, inode uint64) time.Duration {
	lat := m.drainDemotions(now)
	ep := m.epoch.Load()
	src, okSrc := ep.pools[from]
	dst, okDst := ep.pools[to]
	if !okSrc || !okDst {
		return lat
	}
	a, b := src.state.vm, dst.state.vm
	if a == b {
		a.mu.Lock()
		defer a.mu.Unlock()
		if src.state.dead || dst.state.dead {
			return lat
		}
		m.migrateLocked(src.state, dst.state, inode)
		return lat + m.cfg.OpOverhead
	}
	if b.id < a.id {
		a, b = b, a
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // ddlint:lock-ok two VM locks taken in VM-id order, the documented same-level exception
	defer b.mu.Unlock()
	if src.state.dead || dst.state.dead {
		return lat
	}
	m.migrateLocked(src.state, dst.state, inode)
	return lat + m.cfg.OpOverhead
}

// migrateLocked moves inode's objects from src to dst. Objects whose
// demotion is still queued are dropped instead of migrated: their bytes
// exist only in the write-behind buffer, and the queue entry pins the
// source pool, so handing them to dst would let a later drain write
// into the wrong pool's accounting. Dropping is cleancache-safe.
// Callers hold the VM lock(s) covering both pools.
//
// ddlint:requires-lock mu
func (m *Manager) migrateLocked(src, dst *poolState, inode uint64) {
	for _, obj := range src.idx.RemoveInode(inode) {
		if obj.Pending {
			m.releaseObject(src, obj)
			continue
		}
		if replaced := dst.idx.Insert(obj); replaced != nil {
			m.releaseObject(dst, replaced)
		}
	}
}

// PoolStats handles the GET_STATS op. Counters, occupancy and epoch
// entitlements are all read lock-free; under concurrent traffic the
// figures are individually exact but not one instantaneous snapshot.
func (m *Manager) PoolStats(_ cleancache.VMID, pool cleancache.PoolID) cleancache.PoolStats {
	pe, ok := m.epoch.Load().pools[pool]
	if !ok {
		return cleancache.PoolStats{}
	}
	s := pe.state.counters.snapshot()
	s.UsedBytes = pe.acct.TotalBytes()
	s.Objects = pe.acct.Count()
	var ent int64
	for _, st := range tierOrder {
		if pe.usesStore(st) {
			ent += pe.ent[entSlot(st)]
		}
	}
	s.EntitlementBytes = ent
	return s
}

// --- policy: capacity enforcement and Algorithm 1 --------------------------

// enforceCapacity evicts from the st store until incoming bytes fit,
// selecting victims per Algorithm 1: first the victim VM, then the victim
// container within it, then FIFO within the container's pool, in
// EvictBatchBytes batches. Returns the (metadata) latency incurred.
// Runs under the tier's eviction token; callers hold no VM lock. Store
// types that are never enforced directly (hybrid resolves to a concrete
// tier first) have no backend in the table and return at once.
func (m *Manager) enforceCapacity(now time.Duration, st cgroup.StoreType, incoming int64) time.Duration {
	t := m.tier(st)
	be := t.be
	if be == nil {
		return 0
	}
	t.token.Lock()
	defer t.token.Unlock()
	var lat time.Duration
	for be.UsedBytes()+incoming > be.CapacityBytes() {
		need := be.UsedBytes() + incoming - be.CapacityBytes()
		batch := m.cfg.EvictBatchBytes
		if batch < need {
			batch = need
		}
		freed := m.evictBatch(st, batch)
		if freed == 0 {
			break
		}
		lat += m.cfg.OpOverhead
	}
	return lat
}

// evictBatch frees up to batch bytes from the st store and returns the
// bytes actually freed. Victim selection reads the current epoch and the
// pools' atomic accounting lock-free; the selected pool is then evicted
// under its VM lock.
//
// With the write-behind queue active, each victim object demotes to the
// next tier its pool's spec still uses instead of dropping: the source
// bytes are freed immediately, the object is re-homed to the target tier
// as Pending, and the actual device write happens at the next drain.
// Objects fall back to a plain drop when the queue is at its dirtiness
// bound or when their own demotion is still in flight (no chained
// re-demotion).
func (m *Manager) evictBatch(st cgroup.StoreType, batch int64) int64 {
	ep := m.epoch.Load()
	if m.cfg.Mode == ModeGlobal {
		return m.evictGlobalFIFO(ep, st, batch)
	}
	victimVM := m.selectVictimVM(ep, st, batch)
	if victimVM == nil {
		return 0
	}
	victim := m.selectVictimPool(victimVM, st, batch)
	if victim == nil {
		return 0
	}
	target := m.demoteTarget(victim, st)
	p := victim.state
	v := p.vm
	v.mu.Lock()
	defer v.mu.Unlock()
	if p.dead {
		return 0
	}
	var freed int64
	for freed < batch {
		obj := p.idx.Oldest(st)
		if obj == nil {
			break
		}
		p.idx.Remove(obj)
		// Read before the drop arm: releaseObject recycles obj.
		size := obj.Size
		if target != 0 && !obj.Pending && m.demote.tryEnqueue(p, obj) {
			// The queue admitted the object: free the source tier's
			// bytes and re-home it to the target tier as Pending. The
			// drain cannot touch the entry yet — it reads Pending under
			// the VM lock we hold.
			m.releaseStorage(obj)
			obj.Store = target
			obj.Pending = true
			p.idx.Insert(obj)
			p.counters.demotions.Add(1)
		} else {
			m.releaseObject(p, obj)
			p.counters.evictions.Add(1)
			m.totalEvictions.Add(1)
		}
		freed += size
	}
	return freed
}

// demoteTarget resolves where evictions from st in pe's pool demote to:
// the next tier of tierOrder the pool's spec uses and a backend exists
// for, or 0 when evictions are plain drops (no queue, mem-only or
// remote-tier evictions, Global mode).
func (m *Manager) demoteTarget(pe *epochPool, st cgroup.StoreType) cgroup.StoreType {
	if m.demote == nil {
		return 0
	}
	past := false
	for _, t := range tierOrder {
		if t == st {
			past = true
			continue
		}
		if past && pe.usesStore(t) && m.tier(t).be != nil {
			return t
		}
	}
	return 0
}

// evictGlobalFIFO implements the baseline's container-agnostic policy:
// evict the globally oldest objects regardless of which container (or VM)
// inserted them. The scan takes each VM's lock in turn; the chosen pool
// is re-validated under its VM lock before removal.
func (m *Manager) evictGlobalFIFO(ep *epoch, st cgroup.StoreType, batch int64) int64 {
	var freed int64
	for freed < batch {
		var (
			victim    *epochPool
			oldestSeq uint64
		)
		for _, ev := range ep.vms {
			ev.state.mu.Lock()
			for _, pe := range ev.pools {
				if pe.state.dead {
					continue
				}
				obj := pe.state.idx.Oldest(st)
				if obj == nil {
					continue
				}
				if victim == nil || obj.Seq < oldestSeq {
					victim, oldestSeq = pe, obj.Seq
				}
			}
			ev.state.mu.Unlock()
		}
		if victim == nil {
			break
		}
		p := victim.state
		v := p.vm
		v.mu.Lock()
		obj := p.idx.Oldest(st)
		if obj == nil || p.dead {
			// The candidate vanished between scan and lock: someone else
			// freed bytes, so stop rather than rescan (conservative).
			v.mu.Unlock()
			break
		}
		p.idx.Remove(obj)
		freed += obj.Size
		m.releaseObject(p, obj)
		p.counters.evictions.Add(1)
		m.totalEvictions.Add(1)
		v.mu.Unlock()
	}
	return freed
}

// selectVictimVM picks the Algorithm 1 victim VM for an eviction of batch
// bytes from st, reading only epoch state and atomic accounting.
func (m *Manager) selectVictimVM(ep *epoch, st cgroup.StoreType, batch int64) *epochVM {
	candidates := make([]*epochVM, 0, len(ep.vms))
	ents := make([]policy.Entity, 0, len(ep.vms))
	for _, ev := range ep.vms {
		used := ev.usedBytes(st)
		if used == 0 {
			continue
		}
		candidates = append(candidates, ev)
		ents = append(ents, policy.Entity{
			Weight:      ev.weight,
			Entitlement: ev.ent[entSlot(st)],
			Used:        used,
		})
	}
	if len(candidates) == 0 {
		return nil
	}
	i := m.cfg.VictimSelector(ents, batch)
	if i < 0 {
		i = largestUser(ents)
	}
	if i < 0 {
		return nil
	}
	return candidates[i]
}

// selectVictimPool picks the Algorithm 1 victim container within ev,
// reading only epoch state and atomic accounting.
func (m *Manager) selectVictimPool(ev *epochVM, st cgroup.StoreType, batch int64) *epochPool {
	candidates := make([]*epochPool, 0, len(ev.pools))
	ents := make([]policy.Entity, 0, len(ev.pools))
	for _, pe := range ev.pools {
		used := pe.acct.UsedBytes(st)
		if used == 0 {
			continue
		}
		candidates = append(candidates, pe)
		ents = append(ents, policy.Entity{
			Weight:      int64(pe.spec.Weight),
			Entitlement: pe.ent[entSlot(st)],
			Used:        used,
		})
	}
	if len(candidates) == 0 {
		return nil
	}
	i := m.cfg.VictimSelector(ents, batch)
	if i < 0 {
		i = largestUser(ents)
	}
	if i < 0 {
		return nil
	}
	return candidates[i]
}

func largestUser(ents []policy.Entity) int {
	best, bestUsed := -1, int64(0)
	for i, e := range ents {
		if e.Used > bestUsed {
			best, bestUsed = i, e.Used
		}
	}
	return best
}

// --- observation helpers for experiments -----------------------------------

// Contains reports whether a block is currently cached, without the
// exclusive-get side effect — an inspection hook for tests and tooling.
func (m *Manager) Contains(key cleancache.Key) bool {
	pe, ok := m.epoch.Load().pools[key.Pool]
	if !ok {
		return false
	}
	p := pe.state
	v := p.vm
	v.mu.Lock()
	defer v.mu.Unlock()
	if p.dead {
		return false
	}
	return p.idx.Lookup(key.Inode, key.Block) != nil
}

// PoolUsedBytes reports a pool's occupancy in the given store. Byte
// accounting is atomic, so this never blocks the data path.
func (m *Manager) PoolUsedBytes(pool cleancache.PoolID, st cgroup.StoreType) int64 {
	pe, ok := m.epoch.Load().pools[pool]
	if !ok {
		return 0
	}
	return pe.acct.UsedBytes(st)
}

// PoolTotalBytes reports a pool's occupancy across stores.
func (m *Manager) PoolTotalBytes(pool cleancache.PoolID) int64 {
	pe, ok := m.epoch.Load().pools[pool]
	if !ok {
		return 0
	}
	return pe.acct.TotalBytes()
}

// VMUsedBytes reports a VM's total occupancy in the given store.
func (m *Manager) VMUsedBytes(vm cleancache.VMID, st cgroup.StoreType) int64 {
	ev, ok := m.epoch.Load().vmByID[vm]
	if !ok {
		return 0
	}
	return ev.usedBytes(st)
}

// VMEntitlement reports a VM's current epoch entitlement in the given
// store (0 for unknown VMs). Lock-free.
func (m *Manager) VMEntitlement(vm cleancache.VMID, st cgroup.StoreType) int64 {
	ev, ok := m.epoch.Load().vmByID[vm]
	if !ok {
		return 0
	}
	return ev.ent[entSlot(st)]
}

// PoolEntitlement reports a pool's current epoch entitlement in the
// given store (0 for unknown pools). Lock-free.
func (m *Manager) PoolEntitlement(pool cleancache.PoolID, st cgroup.StoreType) int64 {
	pe, ok := m.epoch.Load().pools[pool]
	if !ok {
		return 0
	}
	return pe.ent[entSlot(st)]
}

// EpochSeq reports the sequence number of the currently published epoch
// (0 before any configuration op).
func (m *Manager) EpochSeq() uint64 { return m.epoch.Load().seq }

// StoreUsedBytes reports a store's total occupancy.
func (m *Manager) StoreUsedBytes(st cgroup.StoreType) int64 {
	be := m.tier(st).be
	if be == nil {
		return 0
	}
	return be.UsedBytes()
}

// TotalEvictions reports objects evicted by capacity enforcement since
// start.
func (m *Manager) TotalEvictions() int64 { return m.totalEvictions.Load() }

// ShedOps reports data-path operations rejected by the hypervisor-wide
// admission budget (Config.MaxInflightOps) since start.
func (m *Manager) ShedOps() int64 { return m.shedOps.Load() }

// InflightOps reports the data-path operations currently inside Dispatch;
// it must drain to zero at quiesce.
func (m *Manager) InflightOps() int64 { return m.inflightOps.Load() }
