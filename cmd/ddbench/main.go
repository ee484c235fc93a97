// Command ddbench runs the paper-reproduction experiments and prints the
// tables and series the paper reports.
//
// Usage:
//
//	ddbench -list
//	ddbench [-quick] [-seed N] <experiment-id>...
//	ddbench [-quick] all
//	ddbench -parallel N
//	ddbench [-quick] -transportjson BENCH_transport.json
//	ddbench [-quick] -faultjson BENCH_fault.json
//	ddbench [-quick] -livenessjson BENCH_liveness.json
//	ddbench [-quick] -scalingjson BENCH_scaling.json [-minscaling F]
//	ddbench [-quick] -tierjson BENCH_tier.json
//	ddbench [-quick] -readpathjson BENCH_readpath.json [-minreadpath F]
//	ddbench [-quick] -readpathmode e2e -readpathjson BENCH_readpath_e2e.json [-minreadpath F]
//
// -readpathjson runs the read-path experiment: streaming guests replay a
// read-heavy (~89% get) workload through full hypercall transports in two
// modes — synchronous gets (each paying its own crossing) versus the
// pipelined read path (tagged async gets sharing batch crossings,
// sequential readahead into the staging buffer, zero-copy bulk
// responses) — at 1, 2, 4 and 8 guests. Throughput is measured in
// virtual (modeled) time, so the gate tracks the latency model rather
// than host speed. -minreadpath F fails the run unless the async 8-guest
// get throughput is at least F times the synchronous one.
//
// -readpathmode e2e runs the end-to-end flavor instead: guest file reads
// flow through the whole stack — pagecache.Cache.Read issuing
// Front.GetAsync handles over each VM's hypercall transport — with the
// stock pipelined defaults on vs off (hypervisor NoPipeline), and the
// gate applies to guest-observed read throughput at 8 guests.
//
// -scalingjson runs the hot-path scaling experiment: closed-loop guests
// (each pacing its modeled device latency) drive the sharded manager and
// a single-lock baseline (the sequential oracle behind one mutex that is
// held across each operation's device wait) at 1, 2, 4 and 8 guests, and
// writes throughput rows plus the 8-vs-1 speedups. -minscaling F makes
// the run fail unless the sharded 8-guest throughput is at least F times
// the sharded 1-guest throughput.
//
// -tierjson runs the capacity-overcommit tier experiment: one guest
// works a 32 MiB set against 2 MiB of memory cache plus 4 MiB of SSD,
// with and without a 64 MiB remote object-store third tier behind the
// write-behind demotion queue. The run fails unless the remote-on hit
// ratio is strictly above the remote-off baseline at identical mem+SSD —
// the gate that keeps the third tier earning its keep.
//
// -transportjson runs the batched-vs-unbatched hypercall transport
// benchmark and writes machine-readable results (hypercalls/op, ns/op,
// reduction factor) for CI perf tracking.
//
// -faultjson runs the SSD-stall robustness scenario healthy and under a
// canned fault plan, and writes hit ratios, per-phase latencies and
// breaker trip/restore counts for CI chaos tracking.
//
// -livenessjson runs the latency-budget liveness matrix — {healthy,
// stall-heavy transport faults} × {deadlines on, off} — and writes
// guest-observed get latency percentiles, deadline/shed accounting and
// post-teardown leak counters. The run fails unless the stall-heavy
// deadlines-on p99 and max get latency are within the budget and the
// healthy hit ratio moves at most two points with deadlines armed.
//
// -parallel N skips the experiments and instead drives the concurrent
// stress workload (4 guest VMs, N goroutines each, mixed traffic with
// pool churn) against one shared cache manager, reporting aggregate
// throughput. Useful for eyeballing lock-contention scaling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/ddcache/oracle"
	"doubledecker/internal/experiments"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ddbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ddbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment ids and exit")
	quick := fs.Bool("quick", false, "run shortened smoke versions")
	seed := fs.Int64("seed", 42, "simulation seed")
	stretch := fs.Float64("stretch", 0, "override duration stretch factor (0 = default)")
	parallel := fs.Int("parallel", 0, "run the concurrent stress driver with N workers per VM and exit")
	transportJSON := fs.String("transportjson", "", "write the transport benchmark as JSON to this file and exit")
	faultJSON := fs.String("faultjson", "", "write the fault-injection benchmark as JSON to this file and exit")
	scalingJSON := fs.String("scalingjson", "", "write the hot-path scaling benchmark as JSON to this file and exit")
	minScaling := fs.Float64("minscaling", 0, "fail unless sharded 8-guest throughput is at least this multiple of 1-guest (0 = no gate)")
	livenessJSON := fs.String("livenessjson", "", "write the liveness benchmark as JSON to this file and exit")
	tierJSON := fs.String("tierjson", "", "write the remote-tier overcommit benchmark as JSON to this file and exit")
	readPathJSON := fs.String("readpathjson", "", "write the read-path benchmark as JSON to this file and exit")
	readPathMode := fs.String("readpathmode", "transport", "read-path benchmark flavor: 'transport' (raw transport gets) or 'e2e' (full guest stack through pagecache.Cache.Read)")
	minReadPath := fs.Float64("minreadpath", 0, "fail unless the pipelined 8-guest read throughput is at least this multiple of the sync baseline (0 = no gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel > 0 {
		return runParallel(*parallel, *seed)
	}
	if *transportJSON != "" {
		return writeTransportJSON(*transportJSON, *seed, *quick, *stretch)
	}
	if *faultJSON != "" {
		return writeFaultJSON(*faultJSON, *seed, *quick, *stretch)
	}
	if *livenessJSON != "" {
		return writeLivenessJSON(*livenessJSON, *seed, *quick, *stretch)
	}
	if *scalingJSON != "" {
		return writeScalingJSON(*scalingJSON, *seed, *quick, *minScaling)
	}
	if *tierJSON != "" {
		return writeTierJSON(*tierJSON, *seed, *quick, *stretch)
	}
	if *readPathJSON != "" {
		switch *readPathMode {
		case "transport":
			return writeReadPathJSON(*readPathJSON, *seed, *quick, *minReadPath)
		case "e2e":
			return writeReadPathE2EJSON(*readPathJSON, *seed, *quick, *stretch, *minReadPath)
		default:
			return fmt.Errorf("unknown -readpathmode %q (want 'transport' or 'e2e')", *readPathMode)
		}
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("no experiment given; try -list")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	opts := experiments.DefaultOpts()
	if *quick {
		opts = experiments.QuickOpts()
	}
	opts.Seed = *seed
	if *stretch > 0 {
		opts.Stretch = *stretch
	}
	for _, id := range ids {
		runner, ok := experiments.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		start := time.Now()
		res := runner(opts)
		fmt.Print(res.Format())
		fmt.Printf("(wall time %.1fs)\n\n", time.Since(start).Seconds())
	}
	return nil
}

// runParallel exercises the concurrent stress driver: 4 guest VMs with n
// workers each issue mixed Get/Put/Flush/SetSpec traffic while churn
// goroutines create and destroy pools, all against one shared manager.
func runParallel(n int, seed int64) error {
	m := ddcache.NewManager(ddcache.Config{
		Mode: ddcache.ModeDD,
		Mem:  store.NewMem(blockdev.NewRAM("ram"), 256<<20),
		SSD:  store.NewSSD(blockdev.NewSSD("ssd"), 1<<30),
	})
	res := ddcache.RunStress(m, ddcache.StressOptions{
		VMs:          4,
		WorkersPerVM: n,
		PoolsPerVM:   3,
		Ops:          50000,
		Seed:         seed,
		PoolChurn:    true,
	})
	fmt.Printf("parallel stress: 4 VMs x %d workers, %d ops in %.2fs (%.0f ops/s)\n",
		n, res.Ops, res.Wall.Seconds(), res.OpsPerSec())
	fmt.Printf("  puts accepted %d, get hits %d, pool create/destroy cycles %d\n",
		res.Puts, res.GetHits, res.PoolOps)
	return nil
}

// transportMode is the JSON shape of one transport configuration's run.
type transportMode struct {
	Transport       string           `json:"transport"`
	Hypercalls      int64            `json:"hypercalls"`
	Ops             int64            `json:"ops"`
	HypercallsPerOp float64          `json:"hypercalls_per_op"`
	PagesCopied     int64            `json:"pages_copied"`
	Batches         int64            `json:"batches"`
	MeanBatchOps    float64          `json:"mean_batch_ops"`
	HitPct          float64          `json:"hit_pct"`
	NSPerOp         float64          `json:"ns_per_op"`
	OpLatencyNS     map[string]int64 `json:"op_latency_ns"`
}

// writeTransportJSON runs the transport benchmark and emits
// BENCH_transport.json-style output for CI perf tracking.
func writeTransportJSON(path string, seed int64, quick bool, stretch float64) error {
	opts := experiments.DefaultOpts()
	if quick {
		opts = experiments.QuickOpts()
	}
	opts.Seed = seed
	if stretch > 0 {
		opts.Stretch = stretch
	}
	b := experiments.TransportBench(opts)
	toMode := func(m experiments.TransportModeResult) transportMode {
		return transportMode{
			Transport:       m.Label,
			Hypercalls:      m.Calls,
			Ops:             m.Ops,
			HypercallsPerOp: m.CallsPerOp,
			PagesCopied:     m.PagesCopied,
			Batches:         m.Batches,
			MeanBatchOps:    m.MeanBatchOps,
			HitPct:          m.HitPct,
			NSPerOp:         m.WallNSPerOp,
			OpLatencyNS:     m.OpLatencyNS,
		}
	}
	out := struct {
		Benchmark string          `json:"benchmark"`
		Seed      int64           `json:"seed"`
		Stretch   float64         `json:"stretch"`
		Modes     []transportMode `json:"modes"`
		Reduction float64         `json:"hypercall_reduction"`
	}{
		Benchmark: "transport",
		Seed:      seed,
		Stretch:   opts.Stretch,
		Modes:     []transportMode{toMode(b.Unbatched), toMode(b.Batched)},
		Reduction: b.Reduction,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %.1fx hypercall reduction (%d → %d) at hit %% %.1f/%.1f\n",
		path, out.Reduction, b.Unbatched.Calls, b.Batched.Calls,
		b.Unbatched.HitPct, b.Batched.HitPct)
	return nil
}

// scalingRow is the JSON shape of one (implementation, guest count) cell
// of the scaling experiment.
type scalingRow struct {
	Impl      string  `json:"impl"` // "sharded" or "single-lock"
	CPUs      int     `json:"cpus"` // GOMAXPROCS for the run
	Guests    int     `json:"guests"`
	Ops       int64   `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	GetHits   int64   `json:"get_hits"`
	Puts      int64   `json:"puts"`
	WallMS    float64 `json:"wall_ms"`
}

// scalingBackends builds one fresh sharded manager and one fresh
// single-lock baseline (the sequential oracle behind a mutex held across
// each op's modeled device wait) with identical capacities.
func scalingBackends() (*ddcache.Manager, *oracle.Sequential) {
	const (
		memCap = int64(64 << 20)
		ssdCap = int64(256 << 20)
	)
	m := ddcache.NewManager(ddcache.Config{
		Mode: ddcache.ModeDD,
		Mem:  store.NewMem(blockdev.NewRAM("ram"), memCap),
		SSD:  store.NewSSD(blockdev.NewSSD("ssd"), ssdCap),
	})
	o := oracle.New(oracle.Config{
		Mode: oracle.ModeDD,
		Mem:  store.NewMem(blockdev.NewRAM("scale.ram"), memCap),
		SSD:  store.NewSSD(blockdev.NewSSD("scale.ssd"), ssdCap),
	})
	return m, oracle.NewSequential(o, true)
}

// writeScalingJSON runs the hot-path scaling experiment and emits
// BENCH_scaling.json for CI tracking. Closed-loop guests issue an
// SSD-heavy mix (the modeled ~90µs device reads dominate): against the
// sharded manager each guest paces its own latency, so guests overlap
// their device waits and throughput grows with the guest count; against
// the single-lock baseline the wait is served while holding the global
// mutex, so adding guests adds no throughput. minScaling > 0 gates the
// run on sharded 8-guest vs 1-guest throughput.
func writeScalingJSON(path string, seed int64, quick bool, minScaling float64) error {
	opsPerGuest := 2000
	if quick {
		opsPerGuest = 500
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var rows []scalingRow
	byImpl := map[string]map[int]float64{"sharded": {}, "single-lock": {}}
	for _, guests := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(guests)
		opts := ddcache.BackendStressOptions{
			Guests:   guests,
			Ops:      opsPerGuest,
			Seed:     seed,
			SSDHeavy: true,
		}
		m, baseline := scalingBackends()
		shardedOpts := opts
		shardedOpts.Pace = true // guest sleeps its own latency: waits overlap
		res := ddcache.RunStressBackend(m, shardedOpts)
		rows = append(rows, scalingRow{
			Impl: "sharded", CPUs: guests, Guests: guests,
			Ops: res.Ops, OpsPerSec: res.OpsPerSec(),
			GetHits: res.GetHits, Puts: res.Puts,
			WallMS: float64(res.Wall.Milliseconds()),
		})
		byImpl["sharded"][guests] = res.OpsPerSec()

		res = ddcache.RunStressBackend(baseline, opts) // wrapper paces inside the lock
		rows = append(rows, scalingRow{
			Impl: "single-lock", CPUs: guests, Guests: guests,
			Ops: res.Ops, OpsPerSec: res.OpsPerSec(),
			GetHits: res.GetHits, Puts: res.Puts,
			WallMS: float64(res.Wall.Milliseconds()),
		})
		byImpl["single-lock"][guests] = res.OpsPerSec()
	}

	speedup := func(impl string) float64 {
		if byImpl[impl][1] <= 0 {
			return 0
		}
		return byImpl[impl][8] / byImpl[impl][1]
	}
	out := struct {
		Benchmark       string       `json:"benchmark"`
		Seed            int64        `json:"seed"`
		OpsPerGuest     int          `json:"ops_per_guest"`
		Rows            []scalingRow `json:"rows"`
		ShardedSpeedup  float64      `json:"sharded_speedup_8v1"`
		BaselineSpeedup float64      `json:"single_lock_speedup_8v1"`
	}{
		Benchmark:       "scaling",
		Seed:            seed,
		OpsPerGuest:     opsPerGuest,
		Rows:            rows,
		ShardedSpeedup:  speedup("sharded"),
		BaselineSpeedup: speedup("single-lock"),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: sharded 8v1 speedup %.2fx (%.0f → %.0f ops/s), single-lock %.2fx (%.0f → %.0f ops/s)\n",
		path, out.ShardedSpeedup, byImpl["sharded"][1], byImpl["sharded"][8],
		out.BaselineSpeedup, byImpl["single-lock"][1], byImpl["single-lock"][8])
	if minScaling > 0 && out.ShardedSpeedup < minScaling {
		return fmt.Errorf("sharded 8-guest throughput scaled only %.2fx over 1-guest, want >= %.2fx",
			out.ShardedSpeedup, minScaling)
	}
	return nil
}

// readPathRow is the JSON shape of one (mode, guest count) cell of the
// read-path experiment.
type readPathRow struct {
	Mode        string  `json:"mode"` // "sync" or "async"
	CPUs        int     `json:"cpus"` // GOMAXPROCS for the run
	Guests      int     `json:"guests"`
	Gets        int64   `json:"gets"`
	Calls       int64   `json:"calls"` // guest/hypervisor crossings
	AsyncGets   int64   `json:"async_gets"`
	StagedHits  int64   `json:"staged_hits"`
	PagesCopied int64   `json:"pages_copied"`
	PagesMapped int64   `json:"pages_mapped"`
	VirtualMS   float64 `json:"virtual_ms"` // modeled read-phase time, max over guests
	GetsPerVSec float64 `json:"gets_per_vsec"`
	WallMS      float64 `json:"wall_ms"`
}

// runReadPathMode drives one cell of the read-path experiment: `guests`
// concurrent streaming readers, each replaying `rounds` sequential
// passes over its own files through a full hypercall transport. With
// async=false every get is a synchronous Submit paying its own crossing;
// with async=true the guest issues a readahead over the first half of
// each file (staging those blocks hypervisor-side) and pipelines the
// whole file as tagged async gets awaited after one flush, with
// zero-copy bulk responses. Each guest gets its own manager and RAM
// device: the measurement isolates transport crossing overhead, and a
// shared device's busy-until queue would couple the guests' independent
// virtual clocks (a guest whose clock runs behind would queue behind
// fetches other guests issued at larger timestamps — a modeling
// artifact, not contention; the scaling benchmark covers shared-cache
// contention). Throughput is gets per modeled (virtual) second of the
// read phase, taking the slowest guest's clock since the guests run in
// parallel.
func runReadPathMode(async bool, guests, rounds int) readPathRow {
	const (
		files    = uint64(4)
		blocks   = int64(16)
		raWindow = int64(8)
		memCap   = int64(256 << 20) // ample: populate never evicts
	)
	pools := make([]cleancache.PoolID, guests)
	trs := make([]*hypercall.Transport, guests)
	for g := 0; g < guests; g++ {
		mgr := ddcache.NewManager(ddcache.Config{
			Mode:      ddcache.ModeDD,
			Mem:       store.NewMem(blockdev.NewRAM(fmt.Sprintf("readpath%d.ram", g)), memCap),
			Inclusive: true, // streaming rounds re-read files: keep objects on get
		})
		vm := cleancache.VMID(g + 1)
		mgr.RegisterVM(vm, 100)
		resp := mgr.Dispatch(0, cleancache.Request{
			Op: cleancache.OpCreateCgroup, VM: vm, Name: "rp",
			Spec: cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100},
		})
		pools[g] = resp.Pool
		trs[g] = hypercall.NewTransport(mgr, hypercall.Options{
			AsyncGets: async,
			ZeroCopy:  async,
		})
	}

	virt := make([]time.Duration, guests)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < guests; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vm := cleancache.VMID(g + 1)
			pool := pools[g]
			tr := trs[g]
			now := time.Duration(0)
			// Populate every file once; the read rounds then hit 100%.
			for f := uint64(1); f <= files; f++ {
				for b := int64(0); b < blocks; b++ {
					now += tr.Submit(now, cleancache.Request{
						Op: cleancache.OpPut, VM: vm,
						Key:     cleancache.Key{Pool: pool, Inode: f, Block: b},
						Content: uint64(g+1)<<32 | uint64(b+1),
					}).Latency
				}
			}
			now += tr.Flush(now)
			readStart := now
			for r := 0; r < rounds; r++ {
				for f := uint64(1); f <= files; f++ {
					if async {
						// Readahead stages the first half of the file; the
						// whole file is then pipelined as tagged gets behind
						// a single flush — staged blocks resolve in-batch
						// without a backend dispatch, the rest overlap.
						now += tr.Submit(now, cleancache.Request{
							Op: cleancache.OpReadAhead, VM: vm,
							Key:   cleancache.Key{Pool: pool, Inode: f, Block: 0},
							Count: raWindow,
						}).Latency
						var pending []*hypercall.PendingGet
						for b := int64(0); b < blocks; b++ {
							pg, lat := tr.SubmitAsync(now, cleancache.Request{
								Op: cleancache.OpGet, VM: vm,
								Key: cleancache.Key{Pool: pool, Inode: f, Block: b},
							})
							now += lat
							pending = append(pending, pg)
						}
						now += tr.Flush(now)
						for _, p := range pending {
							now += tr.Await(now, p).Latency
						}
					} else {
						for b := int64(0); b < blocks; b++ {
							now += tr.Submit(now, cleancache.Request{
								Op: cleancache.OpGet, VM: vm,
								Key: cleancache.Key{Pool: pool, Inode: f, Block: b},
							}).Latency
						}
					}
				}
			}
			virt[g] = now - readStart
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)

	var maxVirt time.Duration
	for _, v := range virt {
		if v > maxVirt {
			maxVirt = v
		}
	}
	var agg hypercall.TransportStats
	for _, tr := range trs {
		s := tr.Stats()
		agg.Calls += s.Calls
		agg.AsyncGets += s.AsyncGets
		agg.StagedHits += s.StagedHits
		agg.PagesCopied += s.PagesCopied
		agg.PagesMapped += s.PagesMapped
	}
	gets := int64(guests) * int64(files) * blocks * int64(rounds)
	mode := "sync"
	if async {
		mode = "async"
	}
	row := readPathRow{
		Mode: mode, CPUs: guests, Guests: guests,
		Gets:        gets,
		Calls:       agg.Calls,
		AsyncGets:   agg.AsyncGets,
		StagedHits:  agg.StagedHits,
		PagesCopied: agg.PagesCopied,
		PagesMapped: agg.PagesMapped,
		VirtualMS:   float64(maxVirt) / float64(time.Millisecond),
		WallMS:      float64(wall.Milliseconds()),
	}
	if maxVirt > 0 {
		row.GetsPerVSec = float64(gets) / maxVirt.Seconds()
	}
	return row
}

// writeReadPathJSON runs the read-path experiment and emits
// BENCH_readpath.json for CI tracking: the synchronous-get baseline
// versus the pipelined read path (async tagged gets, readahead staging,
// zero-copy responses) at 1, 2, 4 and 8 guests, plus the async-vs-sync
// throughput ratio at each guest count. minReadPath > 0 gates the run on
// the 8-guest ratio.
func writeReadPathJSON(path string, seed int64, quick bool, minReadPath float64) error {
	rounds := 12
	if quick {
		rounds = 4
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var rows []readPathRow
	ratio := map[int]float64{}
	for _, guests := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(guests)
		syncRow := runReadPathMode(false, guests, rounds)
		asyncRow := runReadPathMode(true, guests, rounds)
		rows = append(rows, syncRow, asyncRow)
		if syncRow.GetsPerVSec > 0 {
			ratio[guests] = asyncRow.GetsPerVSec / syncRow.GetsPerVSec
		}
	}

	out := struct {
		Benchmark    string          `json:"benchmark"`
		Seed         int64           `json:"seed"`
		Rounds       int             `json:"rounds"`
		Rows         []readPathRow   `json:"rows"`
		Improvement  map[int]float64 `json:"async_improvement_by_guests"`
		Improvement8 float64         `json:"async_improvement_8g"`
	}{
		Benchmark:    "readpath",
		Seed:         seed,
		Rounds:       rounds,
		Rows:         rows,
		Improvement:  ratio,
		Improvement8: ratio[8],
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: async read path %.2fx sync get throughput at 8 guests (1g %.2fx, 2g %.2fx, 4g %.2fx)\n",
		path, out.Improvement8, ratio[1], ratio[2], ratio[4])
	if minReadPath > 0 && out.Improvement8 < minReadPath {
		return fmt.Errorf("async read path only %.2fx sync get throughput at 8 guests, want >= %.2fx",
			out.Improvement8, minReadPath)
	}
	return nil
}

// readPathE2ERow is the JSON shape of one (mode, guest count) cell of
// the end-to-end read-path benchmark.
type readPathE2ERow struct {
	Mode             string  `json:"mode"`
	Guests           int     `json:"guests"`
	ReadBlocksPerSec float64 `json:"read_blocks_per_vsec"`
	ReadMBPerSec     float64 `json:"read_mib_per_vsec"`
	ReadPct          float64 `json:"read_pct"`
	CCHitPct         float64 `json:"cc_hit_pct"`
	Hypercalls       int64   `json:"hypercalls"`
	AsyncGets        int64   `json:"async_gets"`
	StagedHits       int64   `json:"staged_hits"`
	ReadAheadGets    int64   `json:"readahead_gets"`
	ReadAheadHits    int64   `json:"readahead_hits"`
	PagesCopied      int64   `json:"pages_copied"`
	PagesMapped      int64   `json:"pages_mapped"`
	DiskReads        int64   `json:"disk_reads"`
}

// writeReadPathE2EJSON runs the end-to-end read-path experiment — guest
// file reads through pagecache.Cache.Read driving Front.GetAsync over
// full hypercall transports, pipeline on vs off — and emits
// BENCH_readpath_e2e.json. Throughput is guest-observed read blocks per
// virtual second over the steady-state window. minReadPath > 0 gates the
// run on the 8-guest on/off ratio.
func writeReadPathE2EJSON(path string, seed int64, quick bool, stretch, minReadPath float64) error {
	opts := experiments.DefaultOpts()
	if quick {
		opts = experiments.QuickOpts()
	}
	opts.Seed = seed
	if stretch > 0 {
		opts.Stretch = stretch
	}
	b := experiments.ReadPathE2EBench(opts)
	toRow := func(m experiments.ReadPathE2EMode) readPathE2ERow {
		return readPathE2ERow{
			Mode:             m.Label,
			Guests:           m.Guests,
			ReadBlocksPerSec: m.ReadBlocksPerSec,
			ReadMBPerSec:     m.ReadMBPerSec,
			ReadPct:          m.ReadPct,
			CCHitPct:         m.CCHitPct,
			Hypercalls:       m.Calls,
			AsyncGets:        m.AsyncGets,
			StagedHits:       m.StagedHits,
			ReadAheadGets:    m.ReadAheadGets,
			ReadAheadHits:    m.ReadAheadHits,
			PagesCopied:      m.PagesCopied,
			PagesMapped:      m.PagesMapped,
			DiskReads:        m.DiskReads,
		}
	}
	var rows []readPathE2ERow
	for i := range b.GuestCounts {
		rows = append(rows, toRow(b.Off[i]), toRow(b.On[i]))
	}
	out := struct {
		Benchmark string           `json:"benchmark"`
		Seed      int64            `json:"seed"`
		Stretch   float64          `json:"stretch"`
		Rows      []readPathE2ERow `json:"rows"`
		Speedup   map[int]float64  `json:"pipeline_speedup_by_guests"`
		Speedup8  float64          `json:"pipeline_speedup_8g"`
	}{
		Benchmark: "readpath_e2e",
		Seed:      seed,
		Stretch:   opts.Stretch,
		Rows:      rows,
		Speedup:   b.Speedup,
		Speedup8:  b.Speedup[8],
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: pipelined read path %.2fx guest-observed read throughput at 8 guests (1g %.2fx, 4g %.2fx)\n",
		path, out.Speedup8, b.Speedup[1], b.Speedup[4])
	if minReadPath > 0 && out.Speedup8 < minReadPath {
		return fmt.Errorf("pipelined read path only %.2fx guest-observed read throughput at 8 guests, want >= %.2fx",
			out.Speedup8, minReadPath)
	}
	return nil
}

// livenessMode is the JSON shape of one liveness-scenario run.
type livenessMode struct {
	Run               string  `json:"run"`
	Deadlines         bool    `json:"deadlines"`
	Gets              int64   `json:"gets"`
	GetP50US          float64 `json:"get_p50_us"`
	GetP99US          float64 `json:"get_p99_us"`
	GetMaxUS          float64 `json:"get_max_us"`
	HitPct            float64 `json:"hit_pct"`
	MeanTickUS        float64 `json:"mean_tick_us"`
	DeadlineMisses    int64   `json:"deadline_misses"`
	WatchdogFails     int64   `json:"watchdog_fails"`
	ShedGets          int64   `json:"shed_gets"`
	ShedOps           int64   `json:"shed_ops"`
	DeadlineFallbacks int64   `json:"deadline_fallbacks"`
	LeakedWaiters     int64   `json:"leaked_waiters"`
	LeakedStaged      int64   `json:"leaked_staged"`
	LeakedPending     int64   `json:"leaked_pending"`
	InjectedFaults    int64   `json:"injected_faults"`
}

// writeLivenessJSON runs the liveness 2×2 matrix and emits
// BENCH_liveness.json for CI chaos tracking. Two gates are built in:
// the stall-heavy deadlines-on run's p99 (and max) guest-observed get
// latency must be within the budget, and on the healthy baseline the
// deadline machinery must move the hit ratio by at most two points.
func writeLivenessJSON(path string, seed int64, quick bool, stretch float64) error {
	opts := experiments.DefaultOpts()
	if quick {
		opts = experiments.QuickOpts()
	}
	opts.Seed = seed
	if stretch > 0 {
		opts.Stretch = stretch
	}
	b := experiments.LivenessBench(opts)
	toMode := func(m experiments.LivenessModeResult) livenessMode {
		return livenessMode{
			Run:               m.Label,
			Deadlines:         m.Deadlines,
			Gets:              m.Gets,
			GetP50US:          m.GetP50US,
			GetP99US:          m.GetP99US,
			GetMaxUS:          m.GetMaxUS,
			HitPct:            m.HitPct,
			MeanTickUS:        m.MeanTickUS,
			DeadlineMisses:    m.DeadlineMisses,
			WatchdogFails:     m.WatchdogFails,
			ShedGets:          m.ShedGets,
			ShedOps:           m.ShedOps,
			DeadlineFallbacks: m.DeadlineFallbacks,
			LeakedWaiters:     m.LeakedWaiters,
			LeakedStaged:      m.LeakedStaged,
			LeakedPending:     m.LeakedPending,
			InjectedFaults:    m.InjectedFaults,
		}
	}
	out := struct {
		Benchmark       string         `json:"benchmark"`
		Seed            int64          `json:"seed"`
		Stretch         float64        `json:"stretch"`
		BudgetUS        float64        `json:"budget_us"`
		Modes           []livenessMode `json:"modes"`
		HealthyHitDelta float64        `json:"healthy_hit_delta_points"`
	}{
		Benchmark:       "liveness",
		Seed:            seed,
		Stretch:         opts.Stretch,
		BudgetUS:        b.BudgetUS,
		Modes:           []livenessMode{toMode(b.HealthyOff), toMode(b.HealthyOn), toMode(b.StallOff), toMode(b.StallOn)},
		HealthyHitDelta: b.HealthyHitDelta,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: stall p99 %.0f µs (max %.0f) vs budget %.0f µs with deadlines on; %.0f µs max with them off; healthy hit delta %.2f points\n",
		path, b.StallOn.GetP99US, b.StallOn.GetMaxUS, b.BudgetUS, b.StallOff.GetMaxUS, b.HealthyHitDelta)
	if b.StallOn.GetP99US > b.BudgetUS || b.StallOn.GetMaxUS > b.BudgetUS {
		return fmt.Errorf("stall-heavy p99/max get latency %.0f/%.0f µs exceeds the %.0f µs budget with deadlines on",
			b.StallOn.GetP99US, b.StallOn.GetMaxUS, b.BudgetUS)
	}
	if b.HealthyHitDelta > 2 {
		return fmt.Errorf("deadline machinery moved the healthy hit ratio %.2f points (limit 2)", b.HealthyHitDelta)
	}
	for _, m := range out.Modes {
		if m.LeakedWaiters != 0 || m.LeakedStaged != 0 || m.LeakedPending != 0 {
			return fmt.Errorf("run %q leaked transport state after teardown: waiters=%d staged=%d pending=%d",
				m.Run, m.LeakedWaiters, m.LeakedStaged, m.LeakedPending)
		}
	}
	return nil
}

// faultMode is the JSON shape of one fault-scenario run.
type faultMode struct {
	Run            string     `json:"run"`
	VM1HitPct      float64    `json:"vm1_hit_pct"`
	VM2HitPct      float64    `json:"vm2_hit_pct"`
	VM1TickUS      [3]float64 `json:"vm1_tick_us"` // before/during/after stall
	VM2TickUS      [3]float64 `json:"vm2_tick_us"`
	Ticks          int64      `json:"ticks"`
	NSPerTick      float64    `json:"ns_per_tick"`
	BreakerState   string     `json:"breaker_state"`
	BreakerTrips   int64      `json:"breaker_trips"`
	BreakerProbes  int64      `json:"breaker_probes"`
	BreakerRestore int64      `json:"breaker_restores"`
	InjectedFaults int64      `json:"injected_faults"`
}

// writeFaultJSON runs the fault scenario and emits BENCH_fault.json-style
// output: hit ratio and throughput with and without injected SSD
// failures, plus breaker trip counts.
func writeFaultJSON(path string, seed int64, quick bool, stretch float64) error {
	opts := experiments.DefaultOpts()
	if quick {
		opts = experiments.QuickOpts()
	}
	opts.Seed = seed
	if stretch > 0 {
		opts.Stretch = stretch
	}
	b := experiments.FaultsBench(opts)
	toMode := func(m experiments.FaultsModeResult) faultMode {
		return faultMode{
			Run:            m.Label,
			VM1HitPct:      m.VM1HitPct,
			VM2HitPct:      m.VM2HitPct,
			VM1TickUS:      m.VM1TickUS,
			VM2TickUS:      m.VM2TickUS,
			Ticks:          m.Ticks,
			NSPerTick:      m.WallNSPerTick,
			BreakerState:   m.Breaker.State,
			BreakerTrips:   m.Breaker.Trips,
			BreakerProbes:  m.Breaker.Probes,
			BreakerRestore: m.Breaker.Restores,
			InjectedFaults: m.InjectedFaults,
		}
	}
	out := struct {
		Benchmark string      `json:"benchmark"`
		Seed      int64       `json:"seed"`
		Stretch   float64     `json:"stretch"`
		Modes     []faultMode `json:"modes"`
		VM1Impact float64     `json:"vm1_impact"`
	}{
		Benchmark: "faults",
		Seed:      seed,
		Stretch:   opts.Stretch,
		Modes:     []faultMode{toMode(b.Healthy), toMode(b.Faulted)},
		VM1Impact: b.VM1Impact,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: breaker trips %d, restores %d, vm2 hit %% %.1f → %.1f, vm1 impact %.2fx\n",
		path, b.Faulted.Breaker.Trips, b.Faulted.Breaker.Restores,
		b.Healthy.VM2HitPct, b.Faulted.VM2HitPct, b.VM1Impact)
	return nil
}

// tierMode is the JSON shape of one overcommit run.
type tierMode struct {
	Run              string  `json:"run"`
	RemoteMiB        int64   `json:"remote_mib"`
	HitPct           float64 `json:"hit_pct"`
	TickUS           float64 `json:"tick_us"`
	Ticks            int64   `json:"ticks"`
	NSPerTick        float64 `json:"ns_per_tick"`
	Demoted          int64   `json:"demoted"`
	DemotionsDropped int64   `json:"demotions_dropped"`
	Cancelled        int64   `json:"demotions_cancelled"`
	RemoteRequests   int64   `json:"remote_requests"`
	RemoteBytes      int64   `json:"remote_bytes"`
	RemoteCostNanos  int64   `json:"remote_cost_nanos"`
	BreakerTrips     int64   `json:"breaker_trips"`
}

// writeTierJSON runs the capacity-overcommit tier scenario with the
// remote third tier off and on (identical mem+SSD) and emits
// BENCH_tier.json for CI tracking. The built-in gate fails the run
// unless the remote-on hit ratio is strictly above the remote-off
// baseline — and sanity-checks that the on-run actually demoted.
func writeTierJSON(path string, seed int64, quick bool, stretch float64) error {
	opts := experiments.DefaultOpts()
	if quick {
		opts = experiments.QuickOpts()
	}
	opts.Seed = seed
	if stretch > 0 {
		opts.Stretch = stretch
	}
	b := experiments.TierBench(opts)
	toMode := func(m experiments.TierModeResult) tierMode {
		d := m.Demotions
		return tierMode{
			Run:              m.Label,
			RemoteMiB:        m.RemoteMiB,
			HitPct:           m.HitPct,
			TickUS:           m.TickUS,
			Ticks:            m.Ticks,
			NSPerTick:        m.WallNSPerTick,
			Demoted:          d.Drained,
			DemotionsDropped: d.DroppedFull + d.DroppedError + d.DroppedBreaker,
			Cancelled:        d.Cancelled,
			RemoteRequests:   m.Cost.Requests,
			RemoteBytes:      m.Cost.Bytes,
			RemoteCostNanos:  m.Cost.CostNanos,
			BreakerTrips:     m.Breaker.Trips,
		}
	}
	out := struct {
		Benchmark string     `json:"benchmark"`
		Seed      int64      `json:"seed"`
		Stretch   float64    `json:"stretch"`
		Modes     []tierMode `json:"modes"`
		HitGain   float64    `json:"hit_gain_points"`
	}{
		Benchmark: "tier",
		Seed:      seed,
		Stretch:   opts.Stretch,
		Modes:     []tierMode{toMode(b.Off), toMode(b.On)},
		HitGain:   b.HitGain,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: hit %% %.1f → %.1f (+%.1f points) with the remote tier on; %d demotions drained at %d modeled requests\n",
		path, b.Off.HitPct, b.On.HitPct, b.HitGain, b.On.Demotions.Drained, b.On.Cost.Requests)
	if b.On.HitPct <= b.Off.HitPct {
		return fmt.Errorf("remote-on hit ratio %.2f%% is not strictly above the remote-off baseline %.2f%%",
			b.On.HitPct, b.Off.HitPct)
	}
	if b.On.Demotions.Drained == 0 {
		return fmt.Errorf("remote-on run drained no demotions — the third tier was never exercised")
	}
	return nil
}
