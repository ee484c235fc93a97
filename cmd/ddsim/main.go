// Command ddsim runs an arbitrary derivative-cloud scenario described by
// a JSON configuration: a host cache configuration, VMs with weights, and
// containers with <T, W> tuples and workloads. It prints per-container
// throughput and cache statistics, plus optional occupancy samples.
//
// A scenario may also carry a "faults" block — a fault-injection plan
// (see internal/fault) plus circuit-breaker tuning — in which case the
// report appends the breaker's trip/restore counts and a per-site
// injection summary. The plan is validated before the run: structurally
// invalid rules abort, rules naming unknown injection sites only warn.
//
// A "deadlines" block arms the per-op latency budget (over-budget ops
// fail as misses, a watchdog sweeps over-budget waiters), and a "limits"
// block caps in-flight work (per-VM inflight gets and queued ops, plus a
// hypervisor-wide op budget); both add shed/deadline-miss columns to the
// report.
//
// Usage:
//
//	ddsim -config scenario.json
//	ddsim -example        # print a ready-to-edit example config
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/datastore"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/fault"
	"doubledecker/internal/guest"
	"doubledecker/internal/hypervisor"
	"doubledecker/internal/sim"
	"doubledecker/internal/store/remote"
	"doubledecker/internal/workload"
)

const mib = int64(1) << 20

// Config is the top-level scenario description.
type Config struct {
	Seed            int64            `json:"seed"`
	DurationSeconds int64            `json:"durationSeconds"`
	SampleSeconds   int64            `json:"sampleSeconds"`
	Host            HostConfig       `json:"host"`
	VMs             []VMConfig       `json:"vms"`
	Faults          *FaultsConfig    `json:"faults,omitempty"`
	Deadlines       *DeadlinesConfig `json:"deadlines,omitempty"`
	Limits          *LimitsConfig    `json:"limits,omitempty"`
}

// DeadlinesConfig arms the per-op latency budget on every VM's hypercall
// transport: an op that cannot complete within the budget fails as a
// miss (the guest falls back to its virtual disk) instead of blocking,
// and a watchdog sweep fails over-budget waiters outright. A zero
// watchdog period defaults to the budget itself.
type DeadlinesConfig struct {
	BudgetMicros         int64 `json:"budgetMicros"`
	WatchdogPeriodMicros int64 `json:"watchdogPeriodMicros,omitempty"`
}

// LimitsConfig caps in-flight work: per-VM tagged-get and batch-queue
// caps on the transport, plus a hypervisor-wide in-flight op budget in
// the cache manager. Over-limit submissions are shed as immediate misses
// (counted in the report, never surfaced as errors); zero fields leave
// that limit off.
type LimitsConfig struct {
	MaxInflightGets int   `json:"maxInflightGets,omitempty"`
	MaxQueuedOps    int   `json:"maxQueuedOps,omitempty"`
	MaxInflightOps  int64 `json:"maxInflightOps,omitempty"`
}

// FaultsConfig attaches a fault-injection plan to the scenario. Rules use
// the internal/fault JSON encoding; timing fields are in nanoseconds of
// virtual time as time.Duration decodes them. A zero plan seed inherits
// the scenario seed. Breaker fields tune the SSD circuit breaker (zero
// keeps the package defaults).
type FaultsConfig struct {
	Rules             []fault.Rule `json:"rules"`
	PlanSeed          int64        `json:"planSeed,omitempty"`
	BreakerThreshold  int          `json:"breakerThreshold,omitempty"`
	BreakerWindowMs   int64        `json:"breakerWindowMs,omitempty"`
	BreakerCooldownMs int64        `json:"breakerCooldownMs,omitempty"`
	BreakerProbes     int          `json:"breakerProbes,omitempty"`
}

// RemoteConfig tunes the modeled remote object store and its
// write-behind demotion queue; zero fields keep the package defaults.
type RemoteConfig struct {
	BaseLatencyMicros   int64 `json:"baseLatencyMicros,omitempty"`
	JitterMicros        int64 `json:"jitterMicros,omitempty"`
	BytesPerSec         int64 `json:"bytesPerSec,omitempty"`
	CostPerRequestNanos int64 `json:"costPerRequestNanos,omitempty"`
	CostPerGiBNanos     int64 `json:"costPerGiBNanos,omitempty"`
	MaxDirtyMiB         int64 `json:"maxDirtyMiB,omitempty"`
	DemoteBatchKiB      int64 `json:"demoteBatchKiB,omitempty"`
}

// HostConfig describes the hypervisor cache.
type HostConfig struct {
	Mode        string `json:"mode"` // "dd" or "global"
	MemCacheMiB int64  `json:"memCacheMiB"`
	SSDCacheMiB int64  `json:"ssdCacheMiB"`
	// RemoteCacheMiB, when positive, adds the remote object-store third
	// tier: SSD evictions demote into it through the write-behind queue
	// and come back as slow hits. The optional "remote" block tunes the
	// modeled service.
	RemoteCacheMiB int64         `json:"remoteCacheMiB,omitempty"`
	Remote         *RemoteConfig `json:"remote,omitempty"`
	// NoPipeline withholds the stock pipelined-read defaults (async
	// tagged gets, zero-copy responses, readahead): the read path runs
	// one probe at a time, each paying its own crossing — the
	// pre-pipeline baseline for A/B scenarios.
	NoPipeline bool `json:"noPipeline,omitempty"`
}

// VMConfig describes one virtual machine.
type VMConfig struct {
	ID         int               `json:"id"`
	MemMiB     int64             `json:"memMiB"`
	Weight     int64             `json:"weight"`
	Containers []ContainerConfig `json:"containers"`
}

// ContainerConfig describes one container and its workload.
type ContainerConfig struct {
	Name     string         `json:"name"`
	LimitMiB int64          `json:"limitMiB"`
	Store    string         `json:"store"` // "mem", "ssd", "hybrid", "remote"
	Weight   int            `json:"weight"`
	Workload WorkloadConfig `json:"workload"`
}

// WorkloadConfig selects and sizes a workload profile.
type WorkloadConfig struct {
	Type        string `json:"type"` // webserver webproxy varmail videoserver redis mongodb mysql
	Threads     int    `json:"threads"`
	Files       int    `json:"files,omitempty"`
	MeanBlocks  int64  `json:"meanBlocks,omitempty"`
	ThinkMicros int64  `json:"thinkMicros,omitempty"`
	DatasetMiB  int64  `json:"datasetMiB,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ddsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ddsim", flag.ContinueOnError)
	path := fs.String("config", "", "path to a scenario JSON file")
	example := fs.Bool("example", false, "print an example config and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *example {
		fmt.Println(exampleConfig)
		return nil
	}
	if *path == "" {
		return fmt.Errorf("no -config given; try -example")
	}
	raw, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	cfg, err := parseConfig(raw)
	if err != nil {
		return err
	}
	return simulate(cfg, os.Stdout)
}

// parseConfig decodes a scenario strictly: an unknown key anywhere —
// including inside the embedded fault rules — is an error, because a
// misspelt knob that is silently ignored runs a different scenario from
// the one written down (fault.ParsePlan rejects them for the same reason).
func parseConfig(raw []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("parse config: %w", err)
	}
	return cfg, nil
}

func storeType(s string) (cgroup.StoreType, error) {
	switch s {
	case "", "mem":
		return cgroup.StoreMem, nil
	case "ssd":
		return cgroup.StoreSSD, nil
	case "hybrid":
		return cgroup.StoreHybrid, nil
	case "remote":
		return cgroup.StoreRemote, nil
	default:
		return 0, fmt.Errorf("unknown store %q", s)
	}
}

func buildProfile(w WorkloadConfig, engine *sim.Engine) (workload.Profile, error) {
	rng := engine.Rand()
	think := time.Duration(w.ThinkMicros) * time.Microsecond
	switch w.Type {
	case "webserver":
		cfg := workload.DefaultWebserver()
		if w.Files > 0 {
			cfg.Files = w.Files
		}
		if w.MeanBlocks > 0 {
			cfg.MeanBlocks = w.MeanBlocks
		}
		if think > 0 {
			cfg.Think = think
		}
		return workload.NewWebserver(cfg, rng), nil
	case "webproxy":
		cfg := workload.DefaultWebproxy()
		if w.Files > 0 {
			cfg.Files = w.Files
		}
		if w.MeanBlocks > 0 {
			cfg.MeanBlocks = w.MeanBlocks
		}
		if think > 0 {
			cfg.Think = think
		}
		return workload.NewWebproxy(cfg, rng), nil
	case "varmail":
		cfg := workload.DefaultVarmail()
		if w.Files > 0 {
			cfg.Files = w.Files
		}
		if w.MeanBlocks > 0 {
			cfg.MeanBlocks = w.MeanBlocks
		}
		if think > 0 {
			cfg.Think = think
		}
		return workload.NewVarmail(cfg, rng), nil
	case "videoserver":
		cfg := workload.DefaultVideoserver()
		if think > 0 {
			cfg.Think = think
		}
		return workload.NewVideoserver(cfg, rng), nil
	case "redis":
		cfg := datastore.DefaultRedis()
		if w.DatasetMiB > 0 {
			cfg.DatasetBytes = w.DatasetMiB * mib
		}
		if think > 0 {
			cfg.Think = think
		}
		return datastore.NewRedis(cfg, rng), nil
	case "mongodb":
		cfg := datastore.DefaultMongo()
		if w.DatasetMiB > 0 {
			cfg.DatasetBytes = w.DatasetMiB * mib
		}
		if think > 0 {
			cfg.Think = think
		}
		return datastore.NewMongo(cfg, rng), nil
	case "mysql":
		cfg := datastore.DefaultMySQL()
		if w.DatasetMiB > 0 {
			cfg.BufferPoolBytes = w.DatasetMiB * mib
		}
		if think > 0 {
			cfg.Think = think
		}
		return datastore.NewMySQL(cfg, rng), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", w.Type)
	}
}

func simulate(cfg Config, out *os.File) error {
	if cfg.DurationSeconds <= 0 {
		cfg.DurationSeconds = 120
	}
	engine := sim.New(cfg.Seed)
	mode := ddcache.ModeDD
	if cfg.Host.Mode == "global" {
		mode = ddcache.ModeGlobal
	}
	hcfg := hypervisor.Config{
		Mode:             mode,
		MemCacheBytes:    cfg.Host.MemCacheMiB * mib,
		SSDCacheBytes:    cfg.Host.SSDCacheMiB * mib,
		RemoteCacheBytes: cfg.Host.RemoteCacheMiB * mib,
		NoPipeline:       cfg.Host.NoPipeline,
	}
	if rc := cfg.Host.Remote; rc != nil {
		hcfg.Remote = remote.Config{
			BaseLatency:         time.Duration(rc.BaseLatencyMicros) * time.Microsecond,
			Jitter:              time.Duration(rc.JitterMicros) * time.Microsecond,
			BytesPerSec:         rc.BytesPerSec,
			CostPerRequestNanos: rc.CostPerRequestNanos,
			CostPerGiBNanos:     rc.CostPerGiBNanos,
		}
		hcfg.Demotion = ddcache.DemotionConfig{
			MaxDirtyBytes: rc.MaxDirtyMiB * mib,
			BatchBytes:    rc.DemoteBatchKiB << 10,
		}
	}
	if dc := cfg.Deadlines; dc != nil {
		hcfg.Transport.OpBudget = time.Duration(dc.BudgetMicros) * time.Microsecond
		hcfg.WatchdogPeriod = time.Duration(dc.WatchdogPeriodMicros) * time.Microsecond
	}
	if lc := cfg.Limits; lc != nil {
		hcfg.Transport.MaxInflightGets = lc.MaxInflightGets
		hcfg.Transport.MaxQueuedOps = lc.MaxQueuedOps
		hcfg.MaxInflightOps = lc.MaxInflightOps
	}
	var inj *fault.Injector
	if fc := cfg.Faults; fc != nil && len(fc.Rules) > 0 {
		planSeed := fc.PlanSeed
		if planSeed == 0 {
			planSeed = cfg.Seed
		}
		plan := fault.Plan{Seed: planSeed, Rules: fc.Rules}
		warnings, err := plan.Validate()
		if err != nil {
			return fmt.Errorf("fault plan: %w", err)
		}
		for _, w := range warnings {
			fmt.Fprintf(os.Stderr, "ddsim: fault plan warning: %s\n", w)
		}
		inj = fault.New(plan)
		hcfg.Faults = inj
		hcfg.Breaker = ddcache.BreakerConfig{
			Threshold: fc.BreakerThreshold,
			Window:    time.Duration(fc.BreakerWindowMs) * time.Millisecond,
			Cooldown:  time.Duration(fc.BreakerCooldownMs) * time.Millisecond,
			Probes:    fc.BreakerProbes,
		}
	}
	host := hypervisor.New(engine, hcfg)
	type tracked struct {
		vmID      int
		container *guest.Container
		runner    *workload.Runner
	}
	var all []tracked
	for _, vc := range cfg.VMs {
		vm := host.NewVM(cleancache.VMID(vc.ID), vc.MemMiB*mib, vc.Weight)
		for _, cc := range vc.Containers {
			st, err := storeType(cc.Store)
			if err != nil {
				return err
			}
			c := vm.NewContainer(cc.Name, cc.LimitMiB*mib, cgroup.HCacheSpec{Store: st, Weight: cc.Weight})
			profile, err := buildProfile(cc.Workload, engine)
			if err != nil {
				return fmt.Errorf("container %s: %w", cc.Name, err)
			}
			threads := cc.Workload.Threads
			if threads <= 0 {
				threads = 2
			}
			all = append(all, tracked{vc.ID, c, workload.Start(engine, c, profile, threads)})
		}
	}
	if err := engine.Run(time.Duration(cfg.DurationSeconds) * time.Second); err != nil {
		return err
	}
	now := engine.Now()
	fmt.Fprintf(out, "scenario complete at t=%v (mode %v)\n\n", now, mode)
	fmt.Fprintf(out, "%-4s %-12s %10s %10s %10s %10s %11s %12s %10s %10s\n",
		"vm", "container", "ops/s", "MB/s", "mem MiB", "ssd MiB", "remote MiB", "hit %", "evictions", "swap MiB")
	for _, t := range all {
		cs := t.container.CacheStats()
		g := t.container.Group()
		pool := cleancache.PoolID(g.PoolID())
		tierMiB := func(st cgroup.StoreType) float64 {
			return float64(host.Manager().PoolUsedBytes(pool, st)) / float64(mib)
		}
		fmt.Fprintf(out, "%-4d %-12s %10.1f %10.2f %10.1f %10.1f %11.1f %12.1f %10d %10.1f\n",
			t.vmID, t.container.Name(),
			t.runner.OpsPerSec(now), t.runner.MBPerSec(now),
			tierMiB(cgroup.StoreMem), tierMiB(cgroup.StoreSSD), tierMiB(cgroup.StoreRemote),
			cs.HitRatio(), cs.Evictions,
			float64(g.Stats().SwapOutPages)*4096/float64(mib))
	}
	fmt.Fprintf(out, "\nhypercall transport per VM:\n")
	fmt.Fprintf(out, "%-4s %12s %12s %14s %10s %12s %12s %12s\n",
		"vm", "hypercalls", "ops", "hypercalls/op", "batches", "pages", "async gets", "staged hits")
	for _, vc := range cfg.VMs {
		tr := host.Transport(cleancache.VMID(vc.ID))
		if tr == nil {
			continue
		}
		st := tr.Stats()
		ops := st.BatchedOps + st.SyncOps
		perOp := 0.0
		if ops > 0 {
			perOp = float64(st.Calls) / float64(ops)
		}
		fmt.Fprintf(out, "%-4d %12d %12d %14.3f %10d %12d %12d %12d\n",
			vc.ID, st.Calls, ops, perOp, st.Batches, st.PagesCopied, st.AsyncGets, st.StagedHits)
	}
	if cfg.Deadlines != nil || cfg.Limits != nil {
		fmt.Fprintf(out, "\ndeadlines and admission per VM:\n")
		fmt.Fprintf(out, "%-4s %15s %14s %10s %10s %10s %12s\n",
			"vm", "deadline misses", "watchdog fails", "shed gets", "shed ops", "waiters", "staged pages")
		for _, vc := range cfg.VMs {
			tr := host.Transport(cleancache.VMID(vc.ID))
			if tr == nil {
				continue
			}
			st := tr.Stats()
			fmt.Fprintf(out, "%-4d %15d %14d %10d %10d %10d %12d\n",
				vc.ID, st.DeadlineMisses, st.WatchdogFails, st.ShedGets, st.ShedOps,
				st.Waiters, st.StagedPages)
		}
		fmt.Fprintf(out, "manager admission: %d ops shed hypervisor-wide\n", host.Manager().ShedOps())
	}
	if cfg.Host.RemoteCacheMiB > 0 {
		host.Manager().FlushDemotions(engine.Now())
		ds := host.Manager().DemotionStats()
		cost := host.Remote().Cost()
		fmt.Fprintf(out, "\nremote tier: %.1f / %d MiB used, demotions drained %d cancelled %d dropped %d (full %d, error %d, breaker %d)\n",
			float64(host.Manager().StoreUsedBytes(cgroup.StoreRemote))/float64(mib),
			cfg.Host.RemoteCacheMiB,
			ds.Drained, ds.Cancelled,
			ds.DroppedFull+ds.DroppedError+ds.DroppedBreaker,
			ds.DroppedFull, ds.DroppedError, ds.DroppedBreaker)
		fmt.Fprintf(out, "remote bill: %d requests, %.1f MiB moved, %.2f m$ modeled\n",
			cost.Requests, float64(cost.Bytes)/float64(mib), float64(cost.CostNanos)/1e6)
	}
	if inj != nil {
		bs := host.Manager().SSDBreakerStats()
		fmt.Fprintf(out, "\nssd circuit breaker: state %s, trips %d, probes %d, restores %d\n",
			bs.State, bs.Trips, bs.Probes, bs.Restores)
		if cfg.Host.RemoteCacheMiB > 0 {
			rb := host.Manager().RemoteBreakerStats()
			fmt.Fprintf(out, "remote circuit breaker: state %s, trips %d, probes %d, restores %d\n",
				rb.State, rb.Trips, rb.Probes, rb.Restores)
		}
		fmt.Fprintf(out, "injected faults (%d total):\n%s", inj.Injected(fault.KindNone), inj.Summary())
	}
	return nil
}

const exampleConfig = `{
  "seed": 42,
  "durationSeconds": 180,
  "host": {"mode": "dd", "memCacheMiB": 256, "ssdCacheMiB": 4096,
           "remoteCacheMiB": 16384,
           "remote": {"baseLatencyMicros": 800, "jitterMicros": 400,
                      "maxDirtyMiB": 8, "demoteBatchKiB": 2048}},
  "deadlines": {"budgetMicros": 5000, "watchdogPeriodMicros": 2500},
  "limits": {"maxInflightGets": 128, "maxQueuedOps": 400, "maxInflightOps": 1024},
  "faults": {
    "rules": [
      {"site": "host-ssd.*", "kind": "io-error", "prob": 0.02,
       "from": 30000000000, "to": 60000000000}
    ],
    "breakerThreshold": 5, "breakerWindowMs": 1000,
    "breakerCooldownMs": 2000, "breakerProbes": 3
  },
  "vms": [
    {"id": 1, "memMiB": 512, "weight": 60, "containers": [
      {"name": "web", "limitMiB": 96, "store": "mem", "weight": 70,
       "workload": {"type": "webserver", "files": 2400, "meanBlocks": 32, "threads": 4, "thinkMicros": 1000}},
      {"name": "video", "limitMiB": 96, "store": "ssd", "weight": 100,
       "workload": {"type": "videoserver", "threads": 4, "thinkMicros": 1000}}
    ]},
    {"id": 2, "memMiB": 512, "weight": 40, "containers": [
      {"name": "redis", "limitMiB": 160, "store": "mem", "weight": 30,
       "workload": {"type": "redis", "datasetMiB": 128, "threads": 2, "thinkMicros": 200}},
      {"name": "mongo", "limitMiB": 96, "store": "mem", "weight": 70,
       "workload": {"type": "mongodb", "datasetMiB": 192, "threads": 2, "thinkMicros": 1000}}
    ]}
  ]
}`
