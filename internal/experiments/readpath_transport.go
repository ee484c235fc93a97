// Transport-level readpath experiment: one streaming guest replays
// sequential passes over its files through a bare hypercall transport,
// with synchronous gets (each paying its own crossing) versus the
// pipelined read path (readahead staging, tagged async gets sharing batch
// crossings, zero-copy bulk responses). No guest stack, engine or
// randomness: the measurement isolates crossing overhead in virtual
// time, so the result is the same for every seed, and one guest is the
// whole story — each guest would own its manager, device and transport.
// The readpath experiment covers the full guest stack.

package experiments

import (
	"math"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/store"
)

// readpath-transport geometry: 4 files of 16 blocks, read front to back
// rtRounds times at full length; the first half of each file is covered
// by the readahead window.
const (
	rtFiles    = uint64(4)
	rtBlocks   = int64(16)
	rtRAWindow = int64(8)
	rtMemCap   = int64(256 << 20) // ample: populate never evicts
	rtRounds   = 32
)

// rtMode summarizes one mode's read phase.
type rtMode struct {
	label   string
	gets    int64
	virtual time.Duration // modeled read-phase time
	stats   hypercall.TransportStats
}

// getsPerVSec is get throughput per modeled second of the read phase.
func (m rtMode) getsPerVSec() float64 {
	if m.virtual <= 0 {
		return 0
	}
	return float64(m.gets) / m.virtual.Seconds()
}

// runReadPathTransportMode populates the files, then reads them rounds
// times. With async=false every get is a synchronous Submit; with
// async=true the guest issues a readahead over the first half of each
// file (staging those blocks hypervisor-side) and pipelines the whole
// file as tagged gets awaited after one flush — staged blocks resolve
// in-batch without a backend dispatch, the rest overlap.
func runReadPathTransportMode(async bool, rounds int) rtMode {
	mgr := ddcache.NewManager(ddcache.Config{
		Mode:      ddcache.ModeDD,
		Mem:       store.NewMem(blockdev.NewRAM("readpath.ram"), rtMemCap),
		Inclusive: true, // streaming rounds re-read files: keep objects on get
	})
	const vm = cleancache.VMID(1)
	mgr.RegisterVM(vm, 100)
	pool := mgr.Dispatch(0, cleancache.Request{
		Op: cleancache.OpCreateCgroup, VM: vm, Name: "rp",
		Spec: cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100},
	}).Pool
	tr := hypercall.NewTransport(mgr, hypercall.Options{AsyncGets: async, ZeroCopy: async})
	key := func(f uint64, b int64) cleancache.Key {
		return cleancache.Key{Pool: pool, Inode: f, Block: b}
	}

	now := time.Duration(0)
	for f := uint64(1); f <= rtFiles; f++ {
		for b := int64(0); b < rtBlocks; b++ {
			now += tr.Submit(now, cleancache.Request{Op: cleancache.OpPut, VM: vm, Key: key(f, b)}).Latency
		}
	}
	now += tr.Flush(now)
	readStart := now
	for r := 0; r < rounds; r++ {
		for f := uint64(1); f <= rtFiles; f++ {
			if !async {
				for b := int64(0); b < rtBlocks; b++ {
					now += tr.Submit(now, cleancache.Request{Op: cleancache.OpGet, VM: vm, Key: key(f, b)}).Latency
				}
				continue
			}
			now += tr.Submit(now, cleancache.Request{
				Op: cleancache.OpReadAhead, VM: vm, Key: key(f, 0), Count: rtRAWindow,
			}).Latency
			var pending []*hypercall.PendingGet
			for b := int64(0); b < rtBlocks; b++ {
				pg, lat := tr.SubmitAsync(now, cleancache.Request{Op: cleancache.OpGet, VM: vm, Key: key(f, b)})
				now += lat
				pending = append(pending, pg)
			}
			now += tr.Flush(now)
			for _, p := range pending {
				now += tr.Await(now, p).Latency
			}
		}
	}
	m := rtMode{
		label:   "sync",
		gets:    int64(rtFiles) * rtBlocks * int64(rounds),
		virtual: now - readStart,
		stats:   tr.Stats(),
	}
	if async {
		m.label = "async"
	}
	return m
}

// ReadPathTransportExp is the registered "readpath-transport"
// experiment: async vs sync get throughput over a bare transport.
func ReadPathTransportExp(o Opts) *Result {
	rounds := int(math.Ceil(rtRounds * o.Stretch))
	if rounds < 1 {
		rounds = 1
	}
	syncMode := runReadPathTransportMode(false, rounds)
	asyncMode := runReadPathTransportMode(true, rounds)
	improvement := 0.0
	if syncMode.getsPerVSec() > 0 {
		improvement = asyncMode.getsPerVSec() / syncMode.getsPerVSec()
	}
	r := newResult("readpath-transport", "Transport-level read path: pipelined async gets vs synchronous gets")

	t := Table{
		Title: "One streaming guest over a bare hypercall transport",
		Columns: []string{"mode", "gets", "crossings", "async gets", "staged hits",
			"pages copied", "pages mapped", "virtual ms", "gets/vsec"},
	}
	for _, m := range []rtMode{syncMode, asyncMode} {
		virtualMS := float64(m.virtual) / float64(time.Millisecond)
		t.Rows = append(t.Rows, []string{
			m.label, f0(float64(m.gets)), f0(float64(m.stats.Calls)), f0(float64(m.stats.AsyncGets)),
			f0(float64(m.stats.StagedHits)), f0(float64(m.stats.PagesCopied)), f0(float64(m.stats.PagesMapped)),
			f2(virtualMS), f0(m.getsPerVSec()),
		})
		r.metric(m.label+".gets", float64(m.gets))
		r.metric(m.label+".calls", float64(m.stats.Calls))
		r.metric(m.label+".async_gets", float64(m.stats.AsyncGets))
		r.metric(m.label+".staged_hits", float64(m.stats.StagedHits))
		r.metric(m.label+".pages_copied", float64(m.stats.PagesCopied))
		r.metric(m.label+".pages_mapped", float64(m.stats.PagesMapped))
		r.metric(m.label+".virtual_ms", virtualMS)
		r.metric(m.label+".gets_per_vsec", m.getsPerVSec())
	}
	r.Tables = append(r.Tables, t)
	r.metric("rounds", float64(rounds))
	r.metric("async_improvement", improvement)

	r.note("async read path: %.2fx synchronous get throughput in virtual time over %d rounds (%d → %d crossings)",
		improvement, rounds, syncMode.stats.Calls, asyncMode.stats.Calls)
	return r
}
