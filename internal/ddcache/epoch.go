package ddcache

import (
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/index"
	"doubledecker/internal/policy"
)

// entSlots bounds the per-store entitlement arrays carried by an epoch
// (store types are small consecutive constants, as in package index).
const entSlots = 5

// tierOrder lists the backend tiers fastest first, which is also the
// demotion order: mem evicts to SSD, SSD evicts to remote, remote
// evictions are true drops; breaker fallback walks it the other way.
// Every per-tier loop iterates this slice and every per-tier lookup reads
// Manager.tiers, so adding a tier is an entry here, a row of the table in
// NewManager, and the pool specs that may use it (usesStore).
var tierOrder = []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD, cgroup.StoreRemote}

// entSlot maps a store type onto the entitlement arrays, folding
// out-of-range values onto slot 0.
func entSlot(st cgroup.StoreType) int {
	if st < 0 || int(st) >= entSlots {
		return 0
	}
	return int(st)
}

// epoch is one immutable snapshot of the manager's configuration state:
// registered VMs (with weights), pools (with specs) and the two-level
// entitlements derived from them. Data-path operations load the current
// epoch from Manager.epoch with a single atomic pointer read and never
// take a lock to consult policy state; configuration operations build a
// replacement epoch under Manager.configMu and publish it atomically.
//
// Everything reachable from an epoch is frozen at build time except the
// mutable per-VM/per-pool state records (vmState, poolState), which carry
// their own locks: a goroutine holding a stale epoch can still operate
// safely because liveness is re-checked on poolState.dead under the VM
// lock, and byte accounting lives in index.Accounting atomics.
//
// ddlint:immutable-after-publish
type epoch struct {
	// seq increments on every publish; exported through the epoch.seq
	// gauge so experiments can watch reconfiguration churn.
	seq    uint64
	vms    []*epochVM // registration order, for deterministic iteration
	vmByID map[cleancache.VMID]*epochVM
	pools  map[cleancache.PoolID]*epochPool
}

// epochVM is one VM's frozen view: weight, pool list and per-store
// entitlement at this epoch.
//
// ddlint:immutable-after-publish
type epochVM struct {
	state  *vmState
	weight int64
	pools  []*epochPool // creation order
	ent    [entSlots]int64
}

// usedBytes sums the VM's occupancy in st across its pools. Reads only
// the pools' atomic accounting, so it is safe without any lock (the sum
// is not an instantaneous snapshot under concurrency, exactly like the
// per-pool accounting it is built from).
func (ev *epochVM) usedBytes(st cgroup.StoreType) int64 {
	var u int64
	for _, pe := range ev.pools {
		u += pe.acct.UsedBytes(st)
	}
	return u
}

// epochPool is one pool's frozen view: spec and per-store entitlement at
// this epoch, plus the pool's mutable state record and its lock-free
// accounting view.
//
// ddlint:immutable-after-publish
type epochPool struct {
	state *poolState
	vm    *epochVM
	spec  cgroup.HCacheSpec
	acct  *index.Accounting
	ent   [entSlots]int64
}

// usesStore reports whether the pool may place objects in st under this
// epoch's spec. The demotion ladder follows from these sets: an eviction
// demotes to the next tier of tierOrder the spec still uses, so hybrid
// pools ride mem→SSD→remote, SSD pools ride SSD→remote, and mem-only or
// remote-only pools drop on eviction. When no remote backend is
// configured, build() skips the remote tier entirely (entitlement stays
// zero) and two-tier behaviour is unchanged.
func (pe *epochPool) usesStore(st cgroup.StoreType) bool {
	switch pe.spec.Store {
	case cgroup.StoreHybrid:
		return st == cgroup.StoreMem || st == cgroup.StoreSSD || st == cgroup.StoreRemote
	case cgroup.StoreSSD:
		return st == cgroup.StoreSSD || st == cgroup.StoreRemote
	default:
		return pe.spec.Store == st
	}
}

// epochBuilder assembles the next epoch from the previous one plus one
// structural mutation. Builders run only under Manager.configMu.
type epochBuilder struct {
	vms []*builderVM
}

type builderVM struct {
	state  *vmState
	weight int64
	pools  []*builderPool
}

type builderPool struct {
	id    cleancache.PoolID
	state *poolState
	spec  cgroup.HCacheSpec
}

// builderFrom copies the previous epoch's shape into mutable form.
func builderFrom(prev *epoch) *epochBuilder {
	b := &epochBuilder{vms: make([]*builderVM, 0, len(prev.vms))}
	for _, ev := range prev.vms {
		bv := &builderVM{state: ev.state, weight: ev.weight, pools: make([]*builderPool, 0, len(ev.pools))}
		for _, pe := range ev.pools {
			bv.pools = append(bv.pools, &builderPool{id: pe.state.id, state: pe.state, spec: pe.spec})
		}
		b.vms = append(b.vms, bv)
	}
	return b
}

// findVM returns the builder record for id, or nil.
func (b *epochBuilder) findVM(id cleancache.VMID) *builderVM {
	for _, bv := range b.vms {
		if bv.state.id == id {
			return bv
		}
	}
	return nil
}

// ensureVM returns the builder record for id, registering the VM with
// the given weight when unknown.
func (b *epochBuilder) ensureVM(id cleancache.VMID, weight int64) *builderVM {
	if bv := b.findVM(id); bv != nil {
		return bv
	}
	bv := &builderVM{state: &vmState{id: id}, weight: weight}
	b.vms = append(b.vms, bv)
	return bv
}

// removeVM drops the VM from the next epoch (its pools go with it).
func (b *epochBuilder) removeVM(id cleancache.VMID) {
	for i, bv := range b.vms {
		if bv.state.id == id {
			b.vms = append(b.vms[:i], b.vms[i+1:]...)
			return
		}
	}
}

// removePool drops one pool from the next epoch.
func (b *epochBuilder) removePool(id cleancache.PoolID) {
	for _, bv := range b.vms {
		for i, bp := range bv.pools {
			if bp.id == id {
				bv.pools = append(bv.pools[:i], bv.pools[i+1:]...)
				return
			}
		}
	}
}

// setSpec replaces one pool's spec in the next epoch.
func (b *epochBuilder) setSpec(id cleancache.PoolID, spec cgroup.HCacheSpec) {
	for _, bv := range b.vms {
		for _, bp := range bv.pools {
			if bp.id == id {
				bp.spec = spec
				return
			}
		}
	}
}

// build freezes the builder into an epoch, recomputing both levels of
// entitlements per store with the pure policy.TwoLevel pass. It is the
// one place the snapshot family is written after assembly begins.
//
// ddlint:constructs epoch epochVM epochPool
func (b *epochBuilder) build(m *Manager, seq uint64) *epoch {
	ep := &epoch{
		seq:    seq,
		vms:    make([]*epochVM, 0, len(b.vms)),
		vmByID: make(map[cleancache.VMID]*epochVM, len(b.vms)),
		pools:  make(map[cleancache.PoolID]*epochPool),
	}
	for _, bv := range b.vms {
		ev := &epochVM{state: bv.state, weight: bv.weight, pools: make([]*epochPool, 0, len(bv.pools))}
		for _, bp := range bv.pools {
			pe := &epochPool{state: bp.state, vm: ev, spec: bp.spec, acct: bp.state.acct}
			ev.pools = append(ev.pools, pe)
			ep.pools[bp.id] = pe
		}
		ep.vms = append(ep.vms, ev)
		ep.vmByID[bv.state.id] = ev
	}
	for _, st := range tierOrder {
		be := m.tier(st).be
		if be == nil {
			continue
		}
		slot := entSlot(st)
		vmWeights := make([]int64, len(ep.vms))
		poolWeights := make([][]int64, len(ep.vms))
		for v, ev := range ep.vms {
			vmWeights[v] = ev.weight
			pw := make([]int64, len(ev.pools))
			for p, pe := range ev.pools {
				if pe.usesStore(st) {
					pw[p] = int64(pe.spec.Weight)
				}
			}
			poolWeights[v] = pw
		}
		vmShares, poolShares := policy.TwoLevel(be.CapacityBytes(), vmWeights, poolWeights)
		for v, ev := range ep.vms {
			ev.ent[slot] = vmShares[v]
			for p, pe := range ev.pools {
				pe.ent[slot] = poolShares[v][p]
			}
		}
	}
	return ep
}

// mutateEpoch builds the successor of the current epoch (mutate may be
// nil for a pure entitlement recomputation, e.g. after a capacity
// change), publishes it, and returns it.
//
// ddlint:requires-lock configMu
func (m *Manager) mutateEpoch(mutate func(b *epochBuilder)) *epoch {
	prev := m.epoch.Load()
	b := builderFrom(prev)
	if mutate != nil {
		mutate(b)
	}
	ep := b.build(m, prev.seq+1)
	m.publishEpoch(ep)
	return ep
}

// publishEpoch atomically installs ep as the current epoch and records
// the epoch.* observability gauges.
//
// ddlint:requires-lock configMu
func (m *Manager) publishEpoch(ep *epoch) {
	m.epoch.Store(ep)
	if reg := m.cfg.Metrics; reg != nil {
		reg.Counter("epoch.swaps").Inc()
		reg.Gauge("epoch.seq").Set(int64(ep.seq))
		reg.Gauge("epoch.vms").Set(int64(len(ep.vms)))
		reg.Gauge("epoch.pools").Set(int64(len(ep.pools)))
	}
}

// emptyEpoch is the epoch published at construction time.
func emptyEpoch() *epoch {
	return &epoch{
		vmByID: make(map[cleancache.VMID]*epochVM),
		pools:  make(map[cleancache.PoolID]*epochPool),
	}
}
