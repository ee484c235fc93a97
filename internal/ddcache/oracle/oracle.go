// Package oracle is the sequential model oracle for the DoubleDecker
// hypervisor cache manager (internal/ddcache): a deliberately naive,
// single-threaded reference implementation of the same cleancache.Backend
// dispatch, used by the differential and fuzz tests to check the sharded
// manager op-for-op.
//
// Everything here optimizes for obviousness over speed: plain maps and
// slices, entitlements recomputed from first principles on every query,
// no locks, no atomics, no epochs. The only modules shared with the real
// manager are the ones that ARE the specification — policy (weighted
// shares and Algorithm 1 victim selection) and store (device latency and
// usage accounting) — so a divergence between oracle and manager always
// points at the manager's concurrency machinery, not at a second
// implementation of the math.
//
// An Oracle is NOT safe for concurrent use. The linearizability variant
// of the differential test replays concurrent logs through it one op at
// a time.
package oracle

import (
	"sort"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/policy"
	"doubledecker/internal/store"
)

// ObjectSize mirrors ddcache.ObjectSize (one guest page). Declared
// independently: the oracle must not import the package it checks.
const ObjectSize = 4096

// Mode mirrors ddcache.Mode.
type Mode int

// Modes of operation, numerically identical to ddcache's.
const (
	ModeDD Mode = iota + 1
	ModeGlobal
)

// Config parameterizes an Oracle; fields mirror ddcache.Config. The
// oracle models healthy devices (no circuit breakers): differential runs
// must not inject device faults, since breaker state is timing-dependent
// and deliberately outside the sequential model.
type Config struct {
	Mode            Mode
	Mem             store.Backend
	SSD             store.Backend
	Remote          store.Backend
	Demotion        DemotionConfig
	EvictBatchBytes int64
	OpOverhead      time.Duration
	VictimSelector  func(ents []policy.Entity, evictionSize int64) int
	Inclusive       bool
}

// DemotionConfig mirrors ddcache.DemotionConfig (declared independently:
// the oracle must not import the package it checks).
type DemotionConfig struct {
	MaxDirtyBytes int64
	BatchBytes    int64
}

// DemotionStats mirrors ddcache.DemotionStats field-for-field, so the
// differential tests can compare the two by struct conversion.
type DemotionStats struct {
	Enqueued       int64
	Drained        int64
	Cancelled      int64
	DroppedFull    int64
	DroppedError   int64
	DroppedBreaker int64
	DirtyBytes     int64
	DirtyObjects   int64
	MaxDirtyBytes  int64
}

// tierOrder mirrors ddcache's demotion ladder: mem evicts to SSD, SSD
// evicts to remote, remote evictions are true drops.
var tierOrder = []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD, cgroup.StoreRemote}

type objKey struct {
	inode uint64
	block int64
}

type obj struct {
	inode uint64
	block int64
	size  int64
	store cgroup.StoreType
	seq   uint64
	// pending mirrors index.Object.Pending: a write-behind demotion in
	// flight, bytes buffered in the demotion queue, charged to no backend.
	pending bool
}

// demoteEntry is one queued write-behind demotion.
type demoteEntry struct {
	p  *pool
	ob *obj
}

// demoteQueue mirrors ddcache's bounded write-behind ring, including its
// refusal semantics: the ring has exactly MaxDirtyBytes/ObjectSize
// slots (at least 1) and cancelled entries occupy theirs until popped.
type demoteQueue struct {
	cfg   DemotionConfig
	slots int64
	ring  []demoteEntry
	stats DemotionStats
}

func newDemoteQueue(cfg DemotionConfig) *demoteQueue {
	if cfg.MaxDirtyBytes <= 0 {
		cfg.MaxDirtyBytes = 8 << 20
	}
	if cfg.BatchBytes <= 0 {
		cfg.BatchBytes = 2 << 20
	}
	return &demoteQueue{cfg: cfg, slots: max(cfg.MaxDirtyBytes/ObjectSize, 1)}
}

func (q *demoteQueue) tryEnqueue(p *pool, ob *obj) bool {
	if int64(len(q.ring)) == q.slots ||
		q.stats.DirtyObjects >= q.slots ||
		q.stats.DirtyBytes+ob.size > q.cfg.MaxDirtyBytes {
		return false
	}
	q.ring = append(q.ring, demoteEntry{p: p, ob: ob})
	q.stats.DirtyObjects++
	q.stats.DirtyBytes += ob.size
	if q.stats.DirtyBytes > q.stats.MaxDirtyBytes {
		q.stats.MaxDirtyBytes = q.stats.DirtyBytes
	}
	q.stats.Enqueued++
	return true
}

func (q *demoteQueue) pop() (demoteEntry, bool) {
	if len(q.ring) == 0 {
		return demoteEntry{}, false
	}
	e := q.ring[0]
	q.ring = q.ring[1:]
	return e, true
}

func (q *demoteQueue) ready() bool {
	return q != nil && q.stats.DirtyBytes >= q.cfg.BatchBytes
}

func (q *demoteQueue) cancel(size int64) {
	q.stats.DirtyBytes -= size
	q.stats.DirtyObjects--
	q.stats.Cancelled++
}

func (q *demoteQueue) settle(size int64, outcome *int64) {
	q.stats.DirtyBytes -= size
	q.stats.DirtyObjects--
	*outcome++
}

type pool struct {
	id   cleancache.PoolID
	vm   *vm
	name string
	spec cgroup.HCacheSpec

	objs map[objKey]*obj
	// fifo holds per-store insertion order (front = oldest), mirroring
	// the real index's FIFO lists: a migrated object keeps its seq but
	// joins the BACK of the destination pool's queue.
	fifo map[cgroup.StoreType][]*obj
	used map[cgroup.StoreType]int64

	stats cleancache.PoolStats
}

type vm struct {
	id     cleancache.VMID
	weight int64
	pools  []*pool // creation order
}

// Oracle is the sequential reference manager.
type Oracle struct {
	cfg      Config
	vms      []*vm // registration order
	vmByID   map[cleancache.VMID]*vm
	pools    map[cleancache.PoolID]*pool
	nextPool cleancache.PoolID
	nextSeq  uint64

	totalEvictions int64

	// demote is the write-behind demotion queue mirror; nil unless a
	// remote backend is configured in ModeDD, exactly as in ddcache.
	demote *demoteQueue
}

var _ cleancache.Backend = (*Oracle)(nil)

// New returns an oracle over the configured stores, applying the same
// defaults as ddcache.NewManager.
func New(cfg Config) *Oracle {
	if cfg.EvictBatchBytes <= 0 {
		cfg.EvictBatchBytes = 2 << 20
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
	o := &Oracle{
		cfg:      cfg,
		vmByID:   make(map[cleancache.VMID]*vm),
		pools:    make(map[cleancache.PoolID]*pool),
		nextPool: 1,
	}
	if cfg.Remote != nil && cfg.Mode == ModeDD {
		o.demote = newDemoteQueue(cfg.Demotion)
	}
	return o
}

// Dispatch implements cleancache.Backend with the same routing as the
// real manager's dispatch.
func (o *Oracle) Dispatch(now time.Duration, req cleancache.Request) cleancache.Response {
	resp := cleancache.Response{Op: req.Op}
	switch req.Op {
	case cleancache.OpGet:
		resp.Ok, resp.Latency = o.Get(now, req.VM, req.Key)
	case cleancache.OpPut:
		resp.Ok, resp.Latency = o.Put(now, req.VM, req.Key)
	case cleancache.OpFlushPage:
		resp.Latency = o.FlushPage(now, req.VM, req.Key)
	case cleancache.OpFlushInode:
		resp.Latency = o.FlushInode(now, req.VM, req.Key.Pool, req.Key.Inode)
	case cleancache.OpCreateCgroup:
		resp.Pool, resp.Latency = o.CreatePool(now, req.VM, req.Name, req.Spec)
		resp.Ok = resp.Pool != 0
	case cleancache.OpDestroyCgroup:
		resp.Latency = o.DestroyPool(now, req.VM, req.Key.Pool)
	case cleancache.OpSetCgWeight:
		resp.Latency = o.SetSpec(now, req.VM, req.Key.Pool, req.Spec)
	case cleancache.OpMigrateObject:
		resp.Latency = o.MigrateInode(now, req.VM, req.Key.Pool, req.To, req.Key.Inode)
	case cleancache.OpGetStats:
		resp.Ok = true
		resp.Stats = o.PoolStats(req.VM, req.Key.Pool)
	case cleancache.OpReadAhead:
		resp.Count, resp.Latency = o.ReadAhead(now, req.VM, req.Key, req.Count)
		resp.Ok = resp.Count > 0
	}
	return resp
}

func (o *Oracle) backend(st cgroup.StoreType) store.Backend {
	switch st {
	case cgroup.StoreMem:
		return o.cfg.Mem
	case cgroup.StoreSSD:
		return o.cfg.SSD
	case cgroup.StoreRemote:
		return o.cfg.Remote
	default:
		return nil
	}
}

// --- host administrator interface ------------------------------------------

// RegisterVM announces a VM with its weight.
func (o *Oracle) RegisterVM(id cleancache.VMID, weight int64) {
	if v, ok := o.vmByID[id]; ok {
		v.weight = weight
		return
	}
	v := &vm{id: id, weight: weight}
	o.vmByID[id] = v
	o.vms = append(o.vms, v)
}

// UnregisterVM drops a VM and all its pools.
func (o *Oracle) UnregisterVM(id cleancache.VMID) {
	v, ok := o.vmByID[id]
	if !ok {
		return
	}
	for _, p := range append([]*pool(nil), v.pools...) {
		o.destroyPool(p)
	}
	delete(o.vmByID, id)
	for i, other := range o.vms {
		if other == v {
			o.vms = append(o.vms[:i], o.vms[i+1:]...)
			break
		}
	}
}

// SetVMWeight updates a VM's weight; unknown VMs are ignored.
func (o *Oracle) SetVMWeight(id cleancache.VMID, weight int64) {
	if v, ok := o.vmByID[id]; ok {
		v.weight = weight
	}
}

// SetCapacity resizes the st store and returns the latency, as the real
// manager does.
func (o *Oracle) SetCapacity(now time.Duration, st cgroup.StoreType, n int64) time.Duration {
	be := o.backend(st)
	if be == nil {
		return 0
	}
	be.SetCapacityBytes(n)
	lat := o.cfg.OpOverhead
	lat += o.enforceCapacity(now+lat, st, 0)
	lat += o.drainDemotions(now + lat)
	return lat
}

// --- op handlers ------------------------------------------------------------

// CreatePool mirrors the manager's CREATE_CGROUP defaults exactly.
func (o *Oracle) CreatePool(_ time.Duration, vmid cleancache.VMID, name string, spec cgroup.HCacheSpec) (cleancache.PoolID, time.Duration) {
	v, ok := o.vmByID[vmid]
	if !ok {
		o.RegisterVM(vmid, 100)
		v = o.vmByID[vmid]
	}
	if spec.Store == 0 {
		spec.Store = cgroup.StoreMem
		if spec.Weight <= 0 {
			spec.Weight = 100
		}
	}
	if spec.Weight < 0 {
		spec.Weight = 0
	}
	id := o.nextPool
	o.nextPool++
	p := &pool{
		id:   id,
		vm:   v,
		name: name,
		spec: spec,
		objs: make(map[objKey]*obj),
		fifo: make(map[cgroup.StoreType][]*obj),
		used: make(map[cgroup.StoreType]int64),
	}
	o.pools[id] = p
	v.pools = append(v.pools, p)
	return id, o.cfg.OpOverhead
}

// DestroyPool mirrors DESTROY_CGROUP.
func (o *Oracle) DestroyPool(_ time.Duration, _ cleancache.VMID, id cleancache.PoolID) time.Duration {
	p, ok := o.pools[id]
	if !ok {
		return 0
	}
	o.destroyPool(p)
	return o.cfg.OpOverhead
}

func (o *Oracle) destroyPool(p *pool) {
	for _, ob := range o.drainAll(p) {
		o.releaseObject(ob)
	}
	delete(o.pools, p.id)
	for i, other := range p.vm.pools {
		if other == p {
			p.vm.pools = append(p.vm.pools[:i], p.vm.pools[i+1:]...)
			break
		}
	}
}

// SetSpec mirrors SET_CG_WEIGHT, including the keep-old-on-zero rules and
// the strand-flush of de-configured stores.
func (o *Oracle) SetSpec(_ time.Duration, _ cleancache.VMID, id cleancache.PoolID, spec cgroup.HCacheSpec) time.Duration {
	p, ok := o.pools[id]
	if !ok {
		return 0
	}
	if o.cfg.Mode == ModeGlobal {
		return o.cfg.OpOverhead
	}
	old := p.spec
	if spec.Weight <= 0 {
		spec.Weight = old.Weight
	}
	if spec.Store == 0 {
		spec.Store = old.Store
	}
	p.spec = spec
	for _, st := range tierOrder {
		if usesStore(p.spec, st) || p.used[st] == 0 {
			continue
		}
		for {
			ob := o.oldest(p, st)
			if ob == nil {
				break
			}
			o.unlink(p, ob)
			o.releaseObject(ob)
			p.stats.Evictions++
			o.totalEvictions++
		}
	}
	return o.cfg.OpOverhead
}

// Get mirrors the exclusive GET.
func (o *Oracle) Get(now time.Duration, _ cleancache.VMID, key cleancache.Key) (bool, time.Duration) {
	p, ok := o.pools[key.Pool]
	if !ok {
		return false, 0
	}
	p.stats.Gets++
	lat := o.cfg.OpOverhead
	ob := p.objs[objKey{key.Inode, key.Block}]
	if ob == nil {
		return false, lat
	}
	if !ob.pending {
		if be := o.backend(ob.store); be != nil {
			flat, err := be.Fetch(now+lat, ob.size)
			lat += flat
			if err != nil {
				o.unlink(p, ob)
				o.releaseObject(ob)
				return false, lat
			}
		}
	}
	p.stats.GetHits++
	if !o.cfg.Inclusive {
		o.releaseObject(ob)
		o.unlink(p, ob)
	}
	return true, lat
}

// ReadAhead mirrors READ_AHEAD: a bulk get of up to count contiguous
// blocks from key.Block, stopping at the first absent block, each block
// following the GET data semantics but accounted under the separate
// readahead counters (every probe, including the terminating miss,
// counts a ReadAheadGet; every extraction a ReadAheadHit), exactly as
// the real manager does.
func (o *Oracle) ReadAhead(now time.Duration, _ cleancache.VMID, key cleancache.Key, count int64) (int64, time.Duration) {
	p, ok := o.pools[key.Pool]
	if !ok {
		return 0, 0
	}
	lat := o.cfg.OpOverhead
	var n int64
	for i := int64(0); i < count; i++ {
		ob := p.objs[objKey{key.Inode, key.Block + i}]
		p.stats.ReadAheadGets++
		if ob == nil {
			break
		}
		if !ob.pending {
			be := o.backend(ob.store)
			if be != nil {
				flat, err := be.Fetch(now+lat, ob.size)
				lat += flat
				if err != nil {
					o.unlink(p, ob)
					o.releaseObject(ob)
					break
				}
			}
		}
		p.stats.ReadAheadHits++
		if !o.cfg.Inclusive {
			o.releaseObject(ob)
			o.unlink(p, ob)
		}
		n++
	}
	return n, lat
}

// Put mirrors PUT: placement, capacity enforcement, commit, and the
// batched write-behind drain once dirty bytes reach the threshold.
func (o *Oracle) Put(now time.Duration, vmid cleancache.VMID, key cleancache.Key) (bool, time.Duration) {
	ok, lat := o.putInner(now, vmid, key)
	if o.demote.ready() {
		lat += o.drainDemotions(now + lat)
	}
	return ok, lat
}

func (o *Oracle) putInner(now time.Duration, _ cleancache.VMID, key cleancache.Key) (bool, time.Duration) {
	p, ok := o.pools[key.Pool]
	if !ok {
		return false, 0
	}
	p.stats.Puts++
	lat := o.cfg.OpOverhead
	st, stOK := o.placementStore(p)
	be := o.backend(st)
	if !stOK || be == nil || be.CapacityBytes() <= 0 {
		p.stats.PutRejects++
		return false, lat
	}
	if be.UsedBytes()+ObjectSize > be.CapacityBytes() {
		lat += o.enforceCapacity(now+lat, st, ObjectSize)
		if be.UsedBytes()+ObjectSize > be.CapacityBytes() {
			p.stats.PutRejects++
			return false, lat
		}
	}
	ob := &obj{inode: key.Inode, block: key.Block, size: ObjectSize, store: st}
	o.nextSeq++
	ob.seq = o.nextSeq
	slat, err := be.Store(now+lat, ObjectSize)
	lat += slat
	if err != nil {
		p.stats.PutRejects++
		return false, lat
	}
	o.insert(p, ob)
	return true, lat
}

// FlushPage mirrors FLUSH_PAGE.
func (o *Oracle) FlushPage(_ time.Duration, _ cleancache.VMID, key cleancache.Key) time.Duration {
	p, ok := o.pools[key.Pool]
	if !ok {
		return 0
	}
	if ob := p.objs[objKey{key.Inode, key.Block}]; ob != nil {
		o.unlink(p, ob)
		o.releaseObject(ob)
	}
	return o.cfg.OpOverhead
}

// FlushInode mirrors FLUSH_INODE.
func (o *Oracle) FlushInode(_ time.Duration, _ cleancache.VMID, id cleancache.PoolID, inode uint64) time.Duration {
	p, ok := o.pools[id]
	if !ok {
		return 0
	}
	for _, ob := range o.removeInode(p, inode) {
		o.releaseObject(ob)
	}
	return o.cfg.OpOverhead
}

// MigrateInode mirrors MIGRATE_OBJECT: objects keep their seq but join
// the back of the destination pool's FIFO, in ascending block order (the
// real index's radix-tree iteration order). The write-behind queue is
// force-drained first (flush-before-migrate), and any pending object is
// dropped instead of migrated, exactly as the real manager does.
func (o *Oracle) MigrateInode(now time.Duration, _ cleancache.VMID, from, to cleancache.PoolID, inode uint64) time.Duration {
	lat := o.drainDemotions(now)
	src, okSrc := o.pools[from]
	dst, okDst := o.pools[to]
	if !okSrc || !okDst {
		return lat
	}
	for _, ob := range o.removeInode(src, inode) {
		if ob.pending {
			o.releaseObject(ob)
			continue
		}
		o.insert(dst, ob)
	}
	return lat + o.cfg.OpOverhead
}

// PoolStats mirrors GET_STATS.
func (o *Oracle) PoolStats(_ cleancache.VMID, id cleancache.PoolID) cleancache.PoolStats {
	p, ok := o.pools[id]
	if !ok {
		return cleancache.PoolStats{}
	}
	s := p.stats
	var used, count int64
	for _, u := range p.used {
		used += u
	}
	count = int64(len(p.objs))
	s.UsedBytes = used
	s.Objects = count
	var ent int64
	for _, st := range tierOrder {
		if usesStore(p.spec, st) {
			ent += o.poolEntitlement(p, st)
		}
	}
	s.EntitlementBytes = ent
	return s
}

// --- placement, structure and accounting ------------------------------------

func usesStore(spec cgroup.HCacheSpec, st cgroup.StoreType) bool {
	switch spec.Store {
	case cgroup.StoreHybrid:
		return st == cgroup.StoreMem || st == cgroup.StoreSSD || st == cgroup.StoreRemote
	case cgroup.StoreSSD:
		return st == cgroup.StoreSSD || st == cgroup.StoreRemote
	default:
		return spec.Store == st
	}
}

func (o *Oracle) placementStore(p *pool) (cgroup.StoreType, bool) {
	if o.cfg.Mode == ModeGlobal {
		return cgroup.StoreMem, true
	}
	st := p.spec.Store
	if st == cgroup.StoreHybrid {
		if o.cfg.Mem != nil && p.used[cgroup.StoreMem]+ObjectSize <= o.poolEntitlement(p, cgroup.StoreMem) {
			return cgroup.StoreMem, true
		}
		st = cgroup.StoreSSD
	}
	return st, true
}

// insert adds ob to p, releasing any replaced object under the same key
// (as the real index's Insert does).
func (o *Oracle) insert(p *pool, ob *obj) {
	k := objKey{ob.inode, ob.block}
	if prev := p.objs[k]; prev != nil {
		o.unlink(p, prev)
		o.releaseObject(prev)
	}
	p.objs[k] = ob
	p.fifo[ob.store] = append(p.fifo[ob.store], ob)
	p.used[ob.store] += ob.size
}

// unlink detaches ob from p's index, FIFO and accounting.
func (o *Oracle) unlink(p *pool, ob *obj) {
	delete(p.objs, objKey{ob.inode, ob.block})
	q := p.fifo[ob.store]
	for i, other := range q {
		if other == ob {
			p.fifo[ob.store] = append(q[:i], q[i+1:]...)
			break
		}
	}
	p.used[ob.store] -= ob.size
	if p.used[ob.store] < 0 {
		p.used[ob.store] = 0
	}
}

// oldest returns the front of p's st FIFO, or nil.
func (o *Oracle) oldest(p *pool, st cgroup.StoreType) *obj {
	if q := p.fifo[st]; len(q) > 0 {
		return q[0]
	}
	return nil
}

// removeInode removes and returns inode's objects in ascending block
// order.
func (o *Oracle) removeInode(p *pool, inode uint64) []*obj {
	var objs []*obj
	for _, ob := range p.objs {
		if ob.inode == inode {
			objs = append(objs, ob)
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].block < objs[j].block })
	for _, ob := range objs {
		o.unlink(p, ob)
	}
	return objs
}

func (o *Oracle) drainAll(p *pool) []*obj {
	var objs []*obj
	for _, ob := range p.objs {
		objs = append(objs, ob)
	}
	p.objs = make(map[objKey]*obj)
	p.fifo = make(map[cgroup.StoreType][]*obj)
	p.used = make(map[cgroup.StoreType]int64)
	return objs
}

// releaseObject frees ob's physical bytes. A pending object holds no
// backend storage: releasing it cancels the queued demotion instead.
func (o *Oracle) releaseObject(ob *obj) {
	if ob.pending {
		ob.pending = false
		o.demote.cancel(ob.size)
		return
	}
	if be := o.backend(ob.store); be != nil {
		be.Release(ob.size)
	}
}

// --- entitlements and Algorithm 1 -------------------------------------------

// vmEntitlement recomputes the VM's share of st from first principles on
// every call.
func (o *Oracle) vmEntitlement(v *vm, st cgroup.StoreType) int64 {
	be := o.backend(st)
	if be == nil {
		return 0
	}
	weights := make([]int64, len(o.vms))
	idx := -1
	for i, other := range o.vms {
		weights[i] = other.weight
		if other == v {
			idx = i
		}
	}
	if idx < 0 {
		return 0
	}
	return policy.Shares(be.CapacityBytes(), weights)[idx]
}

func (o *Oracle) poolEntitlement(p *pool, st cgroup.StoreType) int64 {
	if !usesStore(p.spec, st) {
		return 0
	}
	vmShare := o.vmEntitlement(p.vm, st)
	weights := make([]int64, len(p.vm.pools))
	idx := -1
	for i, other := range p.vm.pools {
		if usesStore(other.spec, st) {
			weights[i] = int64(other.spec.Weight)
		}
		if other == p {
			idx = i
		}
	}
	if idx < 0 {
		return 0
	}
	return policy.Shares(vmShare, weights)[idx]
}

func (o *Oracle) enforceCapacity(_ time.Duration, st cgroup.StoreType, incoming int64) time.Duration {
	be := o.backend(st)
	if be == nil {
		return 0
	}
	var lat time.Duration
	for be.UsedBytes()+incoming > be.CapacityBytes() {
		need := be.UsedBytes() + incoming - be.CapacityBytes()
		batch := o.cfg.EvictBatchBytes
		if batch < need {
			batch = need
		}
		freed := o.evictBatch(st, batch)
		if freed == 0 {
			break
		}
		lat += o.cfg.OpOverhead
	}
	return lat
}

func (o *Oracle) evictBatch(st cgroup.StoreType, batch int64) int64 {
	if o.cfg.Mode == ModeGlobal {
		return o.evictGlobalFIFO(st, batch)
	}
	victimVM := o.selectVictimVM(st, batch)
	if victimVM == nil {
		return 0
	}
	victim := o.selectVictimPool(victimVM, st, batch)
	if victim == nil {
		return 0
	}
	target := o.demoteTarget(victim, st)
	var freed int64
	for freed < batch {
		ob := o.oldest(victim, st)
		if ob == nil {
			break
		}
		o.unlink(victim, ob)
		if target != 0 && !ob.pending && o.demote.tryEnqueue(victim, ob) {
			o.releaseObject(ob)
			ob.store = target
			ob.pending = true
			o.insert(victim, ob)
			victim.stats.Demotions++
		} else {
			o.releaseObject(ob)
			victim.stats.Evictions++
			o.totalEvictions++
		}
		freed += ob.size
	}
	return freed
}

// demoteTarget mirrors ddcache's: the next tier of tierOrder the pool's
// spec uses and a backend exists for, or 0 for a plain drop.
func (o *Oracle) demoteTarget(p *pool, st cgroup.StoreType) cgroup.StoreType {
	if o.demote == nil {
		return 0
	}
	past := false
	for _, t := range tierOrder {
		if t == st {
			past = true
			continue
		}
		if past && usesStore(p.spec, t) && o.backend(t) != nil {
			return t
		}
	}
	return 0
}

// drainDemotions mirrors ddcache's drain loop.
func (o *Oracle) drainDemotions(now time.Duration) time.Duration {
	if o.demote == nil {
		return 0
	}
	var lat time.Duration
	for {
		e, ok := o.demote.pop()
		if !ok {
			return lat
		}
		lat += o.drainOne(now+lat, e)
	}
}

// drainOne mirrors ddcache's: land one queued demotion, settling the
// dirtiness accounting exactly once per terminal outcome. The oracle has
// no breakers, so the breaker-drop branch never fires here (differential
// runs never inject faults).
func (o *Oracle) drainOne(now time.Duration, e demoteEntry) time.Duration {
	q := o.demote
	var lat time.Duration
	if !e.ob.pending {
		return 0 // cancelled before the drain got here
	}
	st := e.ob.store
	be := o.backend(st)
	if be == nil || be.CapacityBytes() <= 0 {
		o.dropPending(e.p, e.ob, &q.stats.DroppedFull)
		return 0
	}
	if be.UsedBytes()+e.ob.size > be.CapacityBytes() {
		lat += o.enforceCapacity(now+lat, st, e.ob.size)
		if !e.ob.pending {
			return lat // the enforcement itself evicted (cancelled) this entry
		}
		if be.UsedBytes()+e.ob.size > be.CapacityBytes() {
			o.dropPending(e.p, e.ob, &q.stats.DroppedFull)
			return lat
		}
	}
	slat, err := be.Store(now+lat, e.ob.size)
	lat += slat
	if err != nil {
		o.dropPending(e.p, e.ob, &q.stats.DroppedError)
		return lat
	}
	e.ob.pending = false
	q.settle(e.ob.size, &q.stats.Drained)
	return lat
}

// dropPending mirrors ddcache's: a queued demotion becomes a true
// eviction.
func (o *Oracle) dropPending(p *pool, ob *obj, outcome *int64) {
	o.unlink(p, ob)
	ob.pending = false
	o.demote.settle(ob.size, outcome)
	p.stats.Evictions++
	o.totalEvictions++
}

func (o *Oracle) evictGlobalFIFO(st cgroup.StoreType, batch int64) int64 {
	var freed int64
	for freed < batch {
		var (
			victim *pool
			oldest *obj
		)
		for _, v := range o.vms {
			for _, p := range v.pools {
				ob := o.oldest(p, st)
				if ob == nil {
					continue
				}
				if oldest == nil || ob.seq < oldest.seq {
					victim, oldest = p, ob
				}
			}
		}
		if victim == nil {
			break
		}
		o.unlink(victim, oldest)
		o.releaseObject(oldest)
		freed += oldest.size
		victim.stats.Evictions++
		o.totalEvictions++
	}
	return freed
}

func (o *Oracle) selectVictimVM(st cgroup.StoreType, batch int64) *vm {
	candidates := make([]*vm, 0, len(o.vms))
	ents := make([]policy.Entity, 0, len(o.vms))
	for _, v := range o.vms {
		var used int64
		for _, p := range v.pools {
			used += p.used[st]
		}
		if used == 0 {
			continue
		}
		candidates = append(candidates, v)
		ents = append(ents, policy.Entity{Weight: v.weight, Entitlement: o.vmEntitlement(v, st), Used: used})
	}
	if len(candidates) == 0 {
		return nil
	}
	i := o.cfg.VictimSelector(ents, batch)
	if i < 0 {
		i = largestUser(ents)
	}
	if i < 0 {
		return nil
	}
	return candidates[i]
}

func (o *Oracle) selectVictimPool(v *vm, st cgroup.StoreType, batch int64) *pool {
	candidates := make([]*pool, 0, len(v.pools))
	ents := make([]policy.Entity, 0, len(v.pools))
	for _, p := range v.pools {
		used := p.used[st]
		if used == 0 {
			continue
		}
		candidates = append(candidates, p)
		ents = append(ents, policy.Entity{Weight: int64(p.spec.Weight), Entitlement: o.poolEntitlement(p, st), Used: used})
	}
	if len(candidates) == 0 {
		return nil
	}
	i := o.cfg.VictimSelector(ents, batch)
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

// --- observation helpers (for the differential tests) -----------------------

// Contains reports whether a block is cached, without get side effects.
func (o *Oracle) Contains(key cleancache.Key) bool {
	p, ok := o.pools[key.Pool]
	if !ok {
		return false
	}
	return p.objs[objKey{key.Inode, key.Block}] != nil
}

// PoolUsedBytes reports a pool's occupancy in st.
func (o *Oracle) PoolUsedBytes(id cleancache.PoolID, st cgroup.StoreType) int64 {
	p, ok := o.pools[id]
	if !ok {
		return 0
	}
	return p.used[st]
}

// PoolTotalBytes reports a pool's occupancy across stores.
func (o *Oracle) PoolTotalBytes(id cleancache.PoolID) int64 {
	p, ok := o.pools[id]
	if !ok {
		return 0
	}
	var t int64
	for _, u := range p.used {
		t += u
	}
	return t
}

// VMEntitlement reports a VM's share of st (0 for unknown VMs).
func (o *Oracle) VMEntitlement(id cleancache.VMID, st cgroup.StoreType) int64 {
	v, ok := o.vmByID[id]
	if !ok {
		return 0
	}
	return o.vmEntitlement(v, st)
}

// PoolEntitlement reports a pool's share of st (0 for unknown pools).
func (o *Oracle) PoolEntitlement(id cleancache.PoolID, st cgroup.StoreType) int64 {
	p, ok := o.pools[id]
	if !ok {
		return 0
	}
	return o.poolEntitlement(p, st)
}

// TotalEvictions reports objects evicted by capacity enforcement.
func (o *Oracle) TotalEvictions() int64 { return o.totalEvictions }

// DemotionStats snapshots the write-behind queue mirror (all zeros when
// no remote backend is configured).
func (o *Oracle) DemotionStats() DemotionStats {
	if o.demote == nil {
		return DemotionStats{}
	}
	return o.demote.stats
}

// FlushDemotions force-drains the write-behind queue mirror.
func (o *Oracle) FlushDemotions(now time.Duration) time.Duration {
	return o.drainDemotions(now)
}
