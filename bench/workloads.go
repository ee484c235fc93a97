// The five fixed-work workloads. Each pins its geometry, its warm-up and its
// measured window here; the windows are virtual time (op count for
// mgr-mixed) sized so that a run measures about referenceSeconds of host
// time on the 2-core reference box, and scale linearly with -seconds.

package main

import (
	"math/rand"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/fsmodel"
	"doubledecker/internal/guest"
	"doubledecker/internal/workload"
)

// referenceSeconds is the -seconds value the pinned windows are sized for.
const referenceSeconds = 10

// fullStack describes one guest→hypervisor workload.
type fullStack struct {
	host hostSpec
	vms  []vmSpec
	// threads is the closed-loop thread count per container.
	threads int
	// profile builds the workload of one container. Whatever it draws from
	// rng while it is built and prepared is the workload's geometry, the
	// same on every run; rng is then reseeded from -seed, so the seed
	// decides the sequence of operations (see setupFullStack).
	profile func(rng *rand.Rand, vm *guest.VM) workload.Profile
	// warmup and window are virtual time at referenceSeconds. A scaled
	// warm-up is never shorter than minWarmup: even a -quick run measures
	// a cache that has something in it.
	warmup    time.Duration
	minWarmup time.Duration
	window    time.Duration
}

// workloadNames lists the workloads in reporting order.
var workloadNames = []string{"stream-hit", "zipf-evict", "tier-overcommit", "mail-fsync", "mgr-mixed"}

// fullStacks holds the four workloads that run the whole stack; mgr-mixed
// is in mgrmixed.go.
var fullStacks = map[string]fullStack{
	// experiments/readpath.go geometry: steady state is page-cache miss →
	// second-chance hit, so the pipelined read path does nearly all the work.
	"stream-hit": {
		host: hostSpec{memBytes: 2 * 64 * mib},
		vms: []vmSpec{
			{id: 1, memBytes: 96 * mib, weight: 100, containers: []containerSpec{{"rp", 16 * mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100}}}},
			{id: 2, memBytes: 96 * mib, weight: 100, containers: []containerSpec{{"rp", 16 * mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100}}}},
		},
		threads:   1,
		profile:   newStreamProfile,
		warmup:    time.Second,
		minWarmup: 600 * time.Millisecond,
		window:    7 * time.Second,
	},
	// The paper's contended case: random whole-file reads defeat readahead,
	// the cache is always full, every put runs Algorithm 1 across two levels.
	"zipf-evict": {
		host: hostSpec{memBytes: 96 * mib},
		vms: []vmSpec{
			{id: 1, memBytes: 256 * mib, weight: 100, containers: []containerSpec{
				{"web-a", 32 * mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 60}},
				{"web-b", 32 * mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 40}},
			}},
			{id: 2, memBytes: 256 * mib, weight: 200, containers: []containerSpec{
				{"web-a", 32 * mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 60}},
				{"web-b", 32 * mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 40}},
			}},
		},
		threads: 2,
		profile: func(rng *rand.Rand, _ *guest.VM) workload.Profile {
			return workload.NewWebserver(workload.WebserverConfig{Files: 600, MeanBlocks: 32, Think: 200 * time.Microsecond}, rng)
		},
		warmup:    5 * time.Second,
		minWarmup: 2 * time.Second,
		window:    240 * time.Second,
	},
	// experiments/tier.go remote-on geometry: the only workload with the SSD
	// and remote backends, the demotion ring and the breakers on the path.
	"tier-overcommit": {
		host: hostSpec{memBytes: 2 * mib, ssdBytes: 4 * mib, remoteBytes: 64 * mib},
		vms: []vmSpec{
			{id: 1, memBytes: 8 * mib, weight: 100, containers: []containerSpec{{"overcommit", 4 * mib, cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100}}}},
		},
		threads:   1,
		profile:   newTierProfile,
		warmup:    2 * time.Second,
		minWarmup: time.Second,
		window:    3200 * time.Second,
	},
	// The guest layers the other way round: delete/write/fsync/append drive
	// the write, writeback and invalidation paths through the transport.
	"mail-fsync": {
		host: hostSpec{memBytes: 32 * mib, ssdDisks: true},
		vms: []vmSpec{
			{id: 1, memBytes: 128 * mib, weight: 100, containers: []containerSpec{{"mail", 16 * mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100}}}},
		},
		threads: 4,
		profile: func(rng *rand.Rand, _ *guest.VM) workload.Profile {
			return workload.NewVarmail(workload.VarmailConfig{Files: 8000, MeanBlocks: 4, Think: 200 * time.Microsecond}, rng)
		},
		warmup:    5 * time.Second,
		minWarmup: 2 * time.Second,
		window:    135 * time.Second,
	},
}

// Stream geometry, per guest: three files of 16 MiB streamed in 64-block
// bursts through a 16 MiB container, plus an 8-block rewrite of a 64-block
// hot log region per burst (~89 % reads). After each burst the thread
// thinks for a seeded time below streamThinkMax, which keeps the two
// guests from running in lockstep with each other and with the flush tick.
const (
	streamFiles       = 3
	streamFileBlocks  = 4096
	streamBurstBlocks = 64
	streamWriteBlocks = 8
	streamHotBlocks   = 64
	streamThinkMax    = 2 * time.Microsecond
)

// streamProfile is the closed-loop streaming reader of stream-hit. The
// stream itself is deterministic; the seed places the read head and draws
// the think times.
type streamProfile struct {
	rng     *rand.Rand
	files   []*fsmodel.File
	total   int64
	started bool
	pos     int64 // read head, in fileset blocks
	hot     int64 // hot-region write head
}

func newStreamProfile(rng *rand.Rand, vm *guest.VM) workload.Profile {
	p := &streamProfile{rng: rng, total: streamFiles * streamFileBlocks}
	for i := 0; i < streamFiles; i++ {
		p.files = append(p.files, vm.Allocator().Alloc(streamFileBlocks))
	}
	return p
}

func (p *streamProfile) Name() string { return "stream" }

// Prepare primes the container: one full pass loads the fileset from disk
// and spills the overflow into the hypervisor pool.
func (p *streamProfile) Prepare(now time.Duration, c *guest.Container) {
	for _, f := range p.files {
		c.Read(now, f, 0, f.Blocks)
	}
}

func (p *streamProfile) Step(now time.Duration, c *guest.Container, _ int) (time.Duration, int64) {
	if !p.started {
		p.started = true
		p.pos = p.rng.Int63n(p.total/streamBurstBlocks) * streamBurstBlocks
	}
	// Bursts never straddle a file: the sizes are multiples of the burst.
	f, off := p.files[p.pos/streamFileBlocks], p.pos%streamFileBlocks
	lat := c.Read(now, f, off, streamBurstBlocks)
	p.pos = (p.pos + streamBurstBlocks) % p.total
	lat += c.Write(now+lat, p.files[0], p.hot, streamWriteBlocks)
	p.hot = (p.hot + streamWriteBlocks) % streamHotBlocks
	lat += time.Duration(p.rng.Int63n(int64(streamThinkMax)))
	return lat, (streamBurstBlocks + streamWriteBlocks) * fsmodel.BlockSize
}

// Tier geometry: a 32 MiB file cycled with 64 sequential and 32 strided
// blocks per tick.
const (
	tierFileBlocks = 8192
	tierSeqBlocks  = 64
	tierSkipBlocks = 32
)

// tierProfile is the closed-loop driver of tier-overcommit. The cycle is
// deterministic; the seed places its start.
type tierProfile struct {
	rng     *rand.Rand
	file    *fsmodel.File
	started bool
	pos     int64
}

func newTierProfile(rng *rand.Rand, vm *guest.VM) workload.Profile {
	return &tierProfile{rng: rng, file: vm.Allocator().Alloc(tierFileBlocks)}
}

func (p *tierProfile) Name() string { return "tier" }

func (p *tierProfile) Prepare(time.Duration, *guest.Container) {}

// Step issues one tick's reads. The tier experiment gates a 500 µs ticker
// on the previous tick's completion; a tick takes about 80 ms here, so the
// plain closed loop is the same load without quantising the latencies.
func (p *tierProfile) Step(now time.Duration, c *guest.Container, _ int) (time.Duration, int64) {
	if !p.started {
		p.started = true
		p.pos = p.rng.Int63n(tierFileBlocks/tierSeqBlocks) * tierSeqBlocks
	}
	lat := c.Read(now, p.file, p.pos%p.file.Blocks, tierSeqBlocks)
	lat += c.Read(now+lat, p.file, (p.pos*7)%p.file.Blocks, tierSkipBlocks)
	p.pos += tierSeqBlocks
	return lat, (tierSeqBlocks + tierSkipBlocks) * fsmodel.BlockSize
}
