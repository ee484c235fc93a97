// Package hypervisor models the host: the physical devices backing the
// DoubleDecker cache stores, the cache manager itself, the VM registry and
// the host-administrator policy controller (per-VM weights, store
// capacities) — the hypervisor half of the cooperative design.
package hypervisor

import (
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/fault"
	"doubledecker/internal/guest"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/policy"
	"doubledecker/internal/sim"
	"doubledecker/internal/store"
	"doubledecker/internal/store/remote"
)

// Config parameterizes a host.
type Config struct {
	// Mode selects DoubleDecker vs the nesting-agnostic Global baseline.
	Mode ddcache.Mode
	// MemCacheBytes is the memory store capacity (0 disables it).
	MemCacheBytes int64
	// SSDCacheBytes is the SSD store capacity (0 disables it).
	SSDCacheBytes int64
	// RemoteCacheBytes is the third-tier remote object-store capacity (0
	// disables the tier). With the tier enabled in ModeDD, SSD (and
	// hybrid) evictions demote into it through the manager's write-behind
	// queue, and gets that miss SSD but hit the remote tier return as
	// slow hits charged the modeled round trip.
	RemoteCacheBytes int64
	// Remote overrides the modeled remote store's latency, throughput and
	// cost parameters (zero fields keep the store/remote defaults). The
	// CapacityBytes, Faults and Metrics fields are overwritten from the
	// host configuration.
	Remote remote.Config
	// Demotion tunes the manager's write-behind demotion queue.
	Demotion ddcache.DemotionConfig
	// EvictBatchBytes overrides the paper's 2 MiB eviction batch.
	EvictBatchBytes int64
	// DisableCaching turns the second-chance path off entirely: VMs boot
	// with no cleancache front or transport (pure guest-only caching).
	DisableCaching bool
	// VMDiskFactory builds each VM's virtual disk; nil selects the
	// default 7200 RPM HDD per VM.
	VMDiskFactory func(id cleancache.VMID) blockdev.Device
	// VictimSelector overrides the eviction victim-selection algorithm
	// (nil = the paper's Algorithm 1); used by ablation benchmarks.
	VictimSelector func(ents []policy.Entity, evictionSize int64) int
	// Transport parameterizes each VM's hypercall transport (batch
	// bounds, costs, unbatched baseline, the per-op latency budget
	// OpBudget, the per-VM admission caps MaxInflightGets and
	// MaxQueuedOps). The zero value selects the batched defaults.
	Transport hypercall.Options
	// NoPipeline withholds the stock pipelined-read defaults — async
	// tagged gets, zero-copy bulk responses and the
	// guest.DefaultReadAheadWindow window — so the one read path runs at
	// window 1 over a transport without async gets: one probe
	// outstanding, each paying its own crossing, which is the
	// pre-pipeline baseline. Explicitly-set Transport options still
	// apply, so the knob isolates exactly what the stock defaults add.
	// The A/B baseline for the end-to-end readpath experiment.
	NoPipeline bool
	// Faults attaches a fault-injection plan to the host: the SSD cache
	// device consults it at sites "host-ssd.read"/"host-ssd.write" and
	// every VM's transport at "transport.batch"/"transport.call". Nil
	// disables injection.
	Faults *fault.Injector
	// Breaker tunes the cache manager's SSD circuit breaker; the zero
	// value keeps the defaults.
	Breaker ddcache.BreakerConfig
	// WatchdogPeriod is each guest's deadline-watchdog tick period; zero
	// with Transport.OpBudget set defaults to that budget (a waiter is
	// failed at most one budget late).
	WatchdogPeriod time.Duration
	// MaxInflightOps is the hypervisor-wide admission budget on the cache
	// manager (see ddcache.Config.MaxInflightOps); zero disables it.
	MaxInflightOps int64
}

// Host is a physical machine running the DoubleDecker-enabled hypervisor.
type Host struct {
	engine     *sim.Engine
	manager    *ddcache.Manager
	ram        *blockdev.RAM
	ssd        *blockdev.SSD
	remote     *remote.Store
	caching    bool
	diskFor    func(id cleancache.VMID) blockdev.Device
	vms        []*guest.VM
	topts      hypercall.Options
	rawin      int
	wdog       time.Duration
	transports map[cleancache.VMID]*hypercall.Transport
}

// New builds a host with the given cache configuration.
func New(engine *sim.Engine, cfg Config) *Host {
	topts := cfg.Transport
	if topts.Faults == nil {
		topts.Faults = cfg.Faults
	}
	// Stock hosts run the pipelined read path end to end: async tagged
	// gets and zero-copy bulk responses on every VM's transport, plus the
	// default readahead/async-probe window in every guest. NoPipeline (or
	// the explicitly-unbatched baseline) opts out wholesale.
	rawin := 0
	if !cfg.NoPipeline && !topts.Unbatched && !cfg.DisableCaching {
		topts.AsyncGets = true
		topts.ZeroCopy = true
		rawin = guest.DefaultReadAheadWindow
	}
	// A budget without a watchdog period gets one — a waiter is then
	// failed at most one budget past its deadline.
	if cfg.WatchdogPeriod == 0 && topts.OpBudget > 0 {
		cfg.WatchdogPeriod = topts.OpBudget
	}
	h := &Host{
		engine:     engine,
		ram:        blockdev.NewRAM("host-ram"),
		ssd:        blockdev.NewSSD("host-ssd", blockdev.WithFaults(cfg.Faults)),
		caching:    !cfg.DisableCaching,
		diskFor:    cfg.VMDiskFactory,
		topts:      topts,
		rawin:      rawin,
		wdog:       cfg.WatchdogPeriod,
		transports: make(map[cleancache.VMID]*hypercall.Transport),
	}
	mcfg := ddcache.Config{
		Mode:            cfg.Mode,
		EvictBatchBytes: cfg.EvictBatchBytes,
		VictimSelector:  cfg.VictimSelector,
		Breaker:         cfg.Breaker,
		Demotion:        cfg.Demotion,
		MaxInflightOps:  cfg.MaxInflightOps,
	}
	if cfg.MemCacheBytes > 0 {
		mcfg.Mem = store.NewMem(h.ram, cfg.MemCacheBytes)
	}
	if cfg.SSDCacheBytes > 0 {
		mcfg.SSD = store.NewSSD(h.ssd, cfg.SSDCacheBytes)
	}
	if cfg.RemoteCacheBytes > 0 {
		rcfg := cfg.Remote
		rcfg.CapacityBytes = cfg.RemoteCacheBytes
		rcfg.Faults = cfg.Faults
		h.remote = remote.New(rcfg)
		mcfg.Remote = h.remote
	}
	h.manager = ddcache.NewManager(mcfg)
	return h
}

// Remote exposes the modeled remote object store (nil when the tier is
// disabled) — experiments read its cost accounting from here.
func (h *Host) Remote() *remote.Store { return h.remote }

// Engine returns the simulation engine.
func (h *Host) Engine() *sim.Engine { return h.engine }

// Manager exposes the DoubleDecker cache manager.
func (h *Host) Manager() *ddcache.Manager { return h.manager }

// NewVM boots a VM with the given memory size and hypervisor cache
// weight, wiring its cleancache front over a fresh batched hypercall
// transport.
func (h *Host) NewVM(id cleancache.VMID, memBytes int64, weight int64) *guest.VM {
	h.manager.RegisterVM(id, weight)
	var front *cleancache.Front
	if h.caching {
		tr := hypercall.NewTransport(h.manager, h.topts)
		h.transports[id] = tr
		front = cleancache.NewFront(id, tr)
	}
	gcfg := guest.Config{ID: id, MemBytes: memBytes, ReadAheadWindow: h.rawin}
	if h.topts.OpBudget > 0 {
		gcfg.WatchdogPeriod = h.wdog
	}
	if h.diskFor != nil {
		gcfg.Disk = h.diskFor(id)
	}
	vm := guest.New(h.engine, gcfg, front)
	h.vms = append(h.vms, vm)
	return vm
}

// DestroyVM tears a VM down: its containers, pools and registration.
func (h *Host) DestroyVM(vm *guest.VM) {
	for _, c := range vm.Containers() {
		vm.DestroyContainer(c)
	}
	vm.Shutdown()
	h.manager.UnregisterVM(vm.ID())
	for i, other := range h.vms {
		if other == vm {
			h.vms = append(h.vms[:i], h.vms[i+1:]...)
			break
		}
	}
}

// Transport exposes a VM's hypercall transport (nil when caching is
// disabled or the VM is unknown).
func (h *Host) Transport(id cleancache.VMID) *hypercall.Transport {
	return h.transports[id]
}

// TransportStats aggregates hypercall traffic across every VM booted on
// this host, including VMs destroyed since.
func (h *Host) TransportStats() hypercall.TransportStats {
	var agg hypercall.TransportStats
	for _, tr := range h.transports {
		s := tr.Stats()
		agg.Calls += s.Calls
		agg.PagesCopied += s.PagesCopied
		agg.PagesMapped += s.PagesMapped
		agg.Batches += s.Batches
		agg.BatchedOps += s.BatchedOps
		agg.SyncOps += s.SyncOps
		agg.AsyncGets += s.AsyncGets
		agg.StagedHits += s.StagedHits
		agg.StagedFills += s.StagedFills
		agg.StagedEvictions += s.StagedEvictions
		agg.StagedPages += s.StagedPages
		agg.Pending += s.Pending
		agg.Retries += s.Retries
		agg.Backoff += s.Backoff
		agg.Drops += s.Drops
		agg.Corrupts += s.Corrupts
		agg.DroppedBatches += s.DroppedBatches
		agg.RequeuedOps += s.RequeuedOps
		agg.FlushAbandoned += s.FlushAbandoned
		agg.SyncFailures += s.SyncFailures
		agg.DeadlineMisses += s.DeadlineMisses
		agg.WatchdogFails += s.WatchdogFails
		agg.ShedGets += s.ShedGets
		agg.ShedOps += s.ShedOps
		agg.CompletionDrops += s.CompletionDrops
		agg.Waiters += s.Waiters
		if s.MaxGetLatency > agg.MaxGetLatency {
			agg.MaxGetLatency = s.MaxGetLatency
		}
	}
	return agg
}

// VMs returns the live VMs in boot order.
func (h *Host) VMs() []*guest.VM {
	out := make([]*guest.VM, len(h.vms))
	copy(out, h.vms)
	return out
}

// SetVMWeight is the host-administrator policy knob for VM shares.
func (h *Host) SetVMWeight(id cleancache.VMID, weight int64) {
	h.manager.SetVMWeight(id, weight)
}

// SetCacheBytes resizes one cache store (mem, SSD or remote) at runtime.
func (h *Host) SetCacheBytes(st cgroup.StoreType, n int64) {
	h.manager.SetCapacity(h.engine.Now(), st, n)
}

// RunFor advances the simulation by d of virtual time.
func (h *Host) RunFor(d time.Duration) error {
	return h.engine.Run(h.engine.Now() + d)
}
