// End-to-end readpath experiment: guest-observed read throughput with
// the pipelined read path on (stock defaults: async tagged gets,
// zero-copy bulk responses, readahead window) vs off (the same read
// loop at window 1 over a transport without async gets: one probe
// outstanding, each paying its own crossing — the pre-pipeline guest).
// Unlike the transport-level readpath-transport experiment, the traffic
// here flows through the full guest stack — pagecache.Cache.Read issuing
// Front.GetAsync handles over each VM's hypercall transport — on the
// paper's Table 2 / Fig 7 read-heavy profile shape (~89% reads).

package experiments

import (
	"fmt"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/fsmodel"
	"doubledecker/internal/guest"
	"doubledecker/internal/hypervisor"
	"doubledecker/internal/sim"
	"doubledecker/internal/workload"
)

// Scenario geometry: each guest streams a 48 MiB fileset (3 × 16 MiB
// files) through a 16 MiB container, so two thirds of every pass was
// reclaimed into the hypervisor pool — steady state is page-cache miss →
// second-chance hit, the path the pipeline accelerates. Each step reads
// a 64-block burst and rewrites 8 blocks of a small hot log region
// (~89% reads; re-dirtying resident pages keeps the dirty backlog
// bounded, so writeback never saturates the virtual disk).
const (
	rpFilesPerVM   = 3
	rpFileBlocks   = 4096 // 16 MiB
	rpContainerMiB = 16
	rpVMMemMiB     = 96
	rpHostMemMiB   = 64 // per guest
	rpBurstBlocks  = 64
	rpWriteBlocks  = 8
	rpHotBlocks    = 64
	rpWarmup       = time.Second
	rpMinWarmup    = 600 * time.Millisecond // must outlast the priming pass's disk backlog
	rpMeasure      = 2 * time.Second
)

// rpGuestCounts is the guest sweep; the registry's gate reads the 8-guest row.
var rpGuestCounts = []int{1, 4, 8}

// rpProfile is the per-container closed-loop workload.
type rpProfile struct {
	files []*fsmodel.File
	total int64 // fileset blocks
	pos   int64 // read head
	hot   int64 // hot-region write head

	readBlocks  int64
	writeBlocks int64
}

func (p *rpProfile) Name() string { return "readpath-stream" }

// Prepare primes the container: one full pass loads the fileset from
// disk and spills the overflow into the hypervisor pool (exclusive
// protocol), so the measured window starts in steady state.
func (p *rpProfile) Prepare(now time.Duration, c *guest.Container) {
	for _, f := range p.files {
		c.Read(now, f, 0, f.Blocks)
	}
}

func (p *rpProfile) Step(now time.Duration, c *guest.Container, _ int) (time.Duration, int64) {
	var lat time.Duration
	for remaining := int64(rpBurstBlocks); remaining > 0; {
		f := p.files[p.pos/rpFileBlocks]
		off := p.pos % rpFileBlocks
		n := remaining
		if left := rpFileBlocks - off; n > left {
			n = left
		}
		lat += c.Read(now+lat, f, off, n)
		p.pos = (p.pos + n) % p.total
		remaining -= n
	}
	p.readBlocks += rpBurstBlocks
	lat += c.Write(now+lat, p.files[0], p.hot, rpWriteBlocks)
	p.hot = (p.hot + rpWriteBlocks) % rpHotBlocks
	p.writeBlocks += rpWriteBlocks
	return lat, rpBurstBlocks * fsmodel.BlockSize
}

// ReadPathE2EMode summarizes one (pipeline, guest count) run.
type ReadPathE2EMode struct {
	Label  string
	Guests int
	// ReadBlocksPerSec is the aggregate guest-observed read throughput
	// (blocks per virtual second) over the steady-state window.
	ReadBlocksPerSec float64
	// ReadMBPerSec is the same in MiB/s.
	ReadMBPerSec float64
	// ReadPct is the guest op mix: read blocks / (read + write blocks).
	ReadPct float64
	// CCHitPct is the fraction of page-cache misses served by the
	// second-chance cache over the whole run.
	CCHitPct float64
	// Transport aggregates (whole run, all guests).
	Calls         int64
	AsyncGets     int64
	StagedHits    int64
	PagesCopied   int64
	PagesMapped   int64
	ReadAheadGets int64
	ReadAheadHits int64
	DiskReads     int64
}

// runReadPathE2EMode runs one full-stack configuration.
func runReadPathE2EMode(o Opts, guests int, pipeline bool) ReadPathE2EMode {
	engine := sim.New(o.Seed + int64(guests))
	label := "pipeline-on"
	if !pipeline {
		label = "pipeline-off"
	}
	host := hypervisor.New(engine, hypervisor.Config{
		Mode:          ddcache.ModeDD,
		MemCacheBytes: int64(guests) * rpHostMemMiB * MiB,
		NoPipeline:    !pipeline,
	})

	type vmState struct {
		vm      *guest.VM
		c       *guest.Container
		profile *rpProfile
		runner  *workload.Runner
		pool    cleancache.PoolID
	}
	vms := make([]*vmState, 0, guests)
	for g := 1; g <= guests; g++ {
		vm := host.NewVM(cleancache.VMID(g), rpVMMemMiB*MiB, 100)
		c := vm.NewContainer("rp", rpContainerMiB*MiB,
			cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
		p := &rpProfile{total: rpFilesPerVM * rpFileBlocks}
		for i := 0; i < rpFilesPerVM; i++ {
			p.files = append(p.files, vm.Allocator().Alloc(rpFileBlocks))
		}
		vms = append(vms, &vmState{
			vm: vm, c: c, profile: p,
			pool: cleancache.PoolID(c.Group().PoolID()),
		})
	}
	for _, s := range vms {
		s.runner = workload.Start(engine, s.c, s.profile, 1)
	}

	warmup := o.scaled(rpWarmup)
	if warmup < rpMinWarmup {
		warmup = rpMinWarmup
	}
	engine.Run(warmup)
	type snap struct{ read, write int64 }
	start := make([]snap, len(vms))
	for i, s := range vms {
		start[i] = snap{s.profile.readBlocks, s.profile.writeBlocks}
	}
	startAt := engine.Now()
	engine.Run(startAt + o.scaled(rpMeasure))
	window := engine.Now() - startAt

	res := ReadPathE2EMode{Label: label, Guests: guests}
	var readDelta, writeDelta int64
	var misses, ccHits int64
	for i, s := range vms {
		readDelta += s.profile.readBlocks - start[i].read
		writeDelta += s.profile.writeBlocks - start[i].write
		io := s.c.IOStats()
		misses += io.Misses
		ccHits += io.CCHits
		res.DiskReads += io.DiskReads
		ps := host.Manager().PoolStats(s.vm.ID(), s.pool)
		res.ReadAheadGets += ps.ReadAheadGets
		res.ReadAheadHits += ps.ReadAheadHits
	}
	if window > 0 {
		res.ReadBlocksPerSec = float64(readDelta) / window.Seconds()
		res.ReadMBPerSec = res.ReadBlocksPerSec * fsmodel.BlockSize / float64(MiB)
	}
	if total := readDelta + writeDelta; total > 0 {
		res.ReadPct = 100 * float64(readDelta) / float64(total)
	}
	if misses > 0 {
		res.CCHitPct = 100 * float64(ccHits) / float64(misses)
	}
	ts := host.TransportStats()
	res.Calls = ts.Calls
	res.AsyncGets = ts.AsyncGets
	res.StagedHits = ts.StagedHits
	res.PagesCopied = ts.PagesCopied
	res.PagesMapped = ts.PagesMapped
	return res
}

// ReadPathExp is the registered "readpath" experiment: the end-to-end
// pipelined read path vs the synchronous baseline.
func ReadPathExp(o Opts) *Result {
	r := newResult("readpath", "End-to-end pipelined guest read path vs synchronous baseline")

	t := Table{
		Title: "Guest-observed read throughput (steady state)",
		Columns: []string{"guests", "mode", "read MiB/s", "read %", "cc hit %",
			"hypercalls", "async gets", "staged hits", "ra hits", "pages copied", "pages mapped"},
	}
	for _, g := range rpGuestCounts {
		on := runReadPathE2EMode(o, g, true)
		off := runReadPathE2EMode(o, g, false)
		for _, m := range []ReadPathE2EMode{off, on} {
			t.Rows = append(t.Rows, []string{
				f0(float64(g)), m.Label, f1(m.ReadMBPerSec), f1(m.ReadPct), f1(m.CCHitPct),
				f0(float64(m.Calls)), f0(float64(m.AsyncGets)), f0(float64(m.StagedHits)),
				f0(float64(m.ReadAheadHits)), f0(float64(m.PagesCopied)), f0(float64(m.PagesMapped)),
			})
			row := fmt.Sprintf("%s/%dg.", m.Label, g)
			r.metric(row+"read_blocks_per_vsec", m.ReadBlocksPerSec)
			r.metric(row+"read_mib_per_vsec", m.ReadMBPerSec)
			r.metric(row+"read_pct", m.ReadPct)
			r.metric(row+"cc_hit_pct", m.CCHitPct)
			r.metric(row+"hypercalls", float64(m.Calls))
			r.metric(row+"async_gets", float64(m.AsyncGets))
			r.metric(row+"staged_hits", float64(m.StagedHits))
			r.metric(row+"readahead_gets", float64(m.ReadAheadGets))
			r.metric(row+"readahead_hits", float64(m.ReadAheadHits))
			r.metric(row+"pages_copied", float64(m.PagesCopied))
			r.metric(row+"pages_mapped", float64(m.PagesMapped))
			r.metric(row+"disk_reads", float64(m.DiskReads))
		}
		// Guest-observed read throughput, pipeline on over off.
		speedup := 0.0
		if off.ReadBlocksPerSec > 0 {
			speedup = on.ReadBlocksPerSec / off.ReadBlocksPerSec
		}
		r.metric(fmt.Sprintf("pipeline_speedup_%dg", g), speedup)
		r.note("%d guests: %.2fx guest-observed read throughput with the pipeline on", g, speedup)
	}
	r.Tables = append(r.Tables, t)

	r.note("steady state is page-cache miss → second-chance hit: the pipeline converts the per-block synchronous crossing (call + page copy) into staged consumption fed by READ_AHEAD, async tagged gets, and zero-copy handover")
	return r
}
