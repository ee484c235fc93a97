// Dynamic cache management (§5.3): runtime policy changes across
// containers (Figure 13) and across virtual machines (Figure 14).

package experiments

import (
	"fmt"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/hypervisor"
	"doubledecker/internal/metrics"
	"doubledecker/internal/sim"
	"doubledecker/internal/workload"
)

// dynamic-containers geometry, scaled 1/4: memory cache 1 GB → 256 MiB,
// containers 1 GB → 256 MiB, phase changes at 900/1800 s → 225/450 s.
const (
	dynVMBytes    = 2 * GiB
	dynContBytes  = 256 * MiB
	dynMemCache   = 256 * MiB
	dynSSDBytes   = 60 * GiB
	dynPhase1     = 225 * time.Second
	dynPhase2     = 450 * time.Second
	dynDuration   = 675 * time.Second
	dynSampleWarn = "series sampled on the memory store only, as in the paper's figure"
)

// Fig13 reproduces the dynamic container experiment: web/proxy at weights
// 60/40; at phase 1 a video container boots (weights 50/30/20); at phase
// 2 the video container is moved to the SSD store and the memory weights
// reset to 60/40.
func Fig13(o Opts) *Result {
	r := newResult("fig13", "Dynamic policy changes and cache redistribution across containers")
	engine := sim.New(o.Seed)
	host := hypervisor.New(engine, hypervisor.Config{
		Mode:          ddcache.ModeDD,
		MemCacheBytes: dynMemCache,
		SSDCacheBytes: dynSSDBytes,
	})
	vm := host.NewVM(1, dynVMBytes, 100)
	rng := engine.Rand()

	c1 := vm.NewContainer("container1-web", dynContBytes, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 60})
	c2 := vm.NewContainer("container2-proxy", dynContBytes, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 40})
	s1 := r.addSeries("container1-web")
	s2 := r.addSeries("container2-proxy")
	s3 := r.addSeries("container3-video(mem)")
	sample := func(pool cleancache.PoolID, s *metrics.Series) {
		s.Record(engine.Now(), mib(host.Manager().PoolUsedBytes(pool, cgroup.StoreMem)))
	}
	p1 := cleancache.PoolID(c1.Group().PoolID())
	p2 := cleancache.PoolID(c2.Group().PoolID())
	var p3 cleancache.PoolID
	engine.Every(o.Sample, func() {
		sample(p1, s1)
		sample(p2, s2)
		if p3 != 0 {
			sample(p3, s3)
		}
	})

	workload.Start(engine, c1, workload.NewWebserver(workload.WebserverConfig{
		Files: 4300, MeanBlocks: 32, AnonBytes: 22 * MiB, Think: time.Millisecond,
	}, rng), 4)
	workload.Start(engine, c2, workload.NewWebproxy(workload.WebproxyConfig{
		Files: 14000, MeanBlocks: 8, Think: 2 * time.Millisecond,
	}, rng), 4)

	phase1 := o.scaled(dynPhase1)
	phase2 := o.scaled(dynPhase2)
	engine.Schedule(phase1, func() {
		c3 := vm.NewContainer("container3-video", dynContBytes, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 20})
		p3 = cleancache.PoolID(c3.Group().PoolID())
		c1.SetSpec(cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
		c2.SetSpec(cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 30})
		workload.Start(engine, c3, workload.NewVideoserver(workload.VideoserverConfig{
			ActiveVideos: 2, PassiveVideos: 8, VideoBlocks: 32768, ChunkBlocks: 64,
			WriterThreads: 1, WriterThink: 5 * time.Millisecond, PassiveReadFrac: 0.06,
			Think: time.Millisecond,
		}, rng), 8)
		r.note("t=%.0fs: container3 (video) booted, weights set to 50/30/20", engine.Now().Seconds())
	})
	engine.Schedule(phase2, func() {
		for _, c := range vm.Containers() {
			if c.Name() == "container3-video" {
				c.SetSpec(cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})
			}
		}
		c1.SetSpec(cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 60})
		c2.SetSpec(cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 40})
		r.note("t=%.0fs: container3 moved to the SSD store, memory weights reset to 60/40", engine.Now().Seconds())
	})
	if err := engine.Run(o.scaled(dynDuration)); err != nil {
		r.note("engine: %v", err)
	}

	// Summaries per phase for the table view.
	phases := []struct {
		label    string
		from, to time.Duration
	}{
		{"phase 1 (two containers)", o.scaled(dynPhase1) / 2, o.scaled(dynPhase1)},
		{"phase 2 (+video, 50/30/20)", phase1 + (phase2-phase1)/2, phase2},
		{"phase 3 (video→SSD, 60/40)", phase2 + (o.scaled(dynDuration)-phase2)/2, o.scaled(dynDuration)},
	}
	t := Table{Columns: []string{"window", "web MiB", "proxy MiB", "video(mem) MiB"}}
	for _, ph := range phases {
		t.Rows = append(t.Rows, []string{
			ph.label,
			f1(seriesMeanWindow(s1, ph.from, ph.to)),
			f1(seriesMeanWindow(s2, ph.from, ph.to)),
			f1(seriesMeanWindow(s3, ph.from, ph.to)),
		})
	}
	r.Tables = append(r.Tables, t)
	r.note("paper shape: ~600/400 MB split → ~500/300/200 when video joins → back to 60:40 with video on SSD (scaled 1/4 here)")
	r.note(dynSampleWarn)
	return r
}

// Fig14 reproduces the dynamic VM experiment: four VMs booting in phases
// with weight and capacity changes.
func Fig14(o Opts) *Result {
	r := newResult("fig14", "Dynamic VM provisioning and cache redistribution across VMs")
	engine := sim.New(o.Seed)
	host := hypervisor.New(engine, hypervisor.Config{
		Mode:          ddcache.ModeDD,
		MemCacheBytes: 512 * MiB, // 2 GB scaled
		SSDCacheBytes: dynSSDBytes,
	})
	rng := engine.Rand()

	bootVideoVM := func(id cleancache.VMID, weight int64, store cgroup.StoreType) {
		vm := host.NewVM(id, 1*GiB, weight)
		c := vm.NewContainer(fmt.Sprintf("vm%d-video", id), 256*MiB, cgroup.HCacheSpec{Store: store, Weight: 100})
		workload.Start(engine, c, workload.NewVideoserver(workload.VideoserverConfig{
			ActiveVideos: 2, PassiveVideos: 10, VideoBlocks: 16384, ChunkBlocks: 64,
			WriterThreads: 1, WriterThink: 5 * time.Millisecond, PassiveReadFrac: 0.06,
			Think: time.Millisecond,
		}, rng), 4)
	}

	sv := map[cleancache.VMID]*metrics.Series{}
	for _, id := range []cleancache.VMID{1, 2, 4} {
		sv[id] = r.addSeries(fmt.Sprintf("vm%d", id))
	}
	engine.Every(o.Sample, func() {
		for id, s := range sv {
			s.Record(engine.Now(), mib(host.Manager().VMUsedBytes(id, cgroup.StoreMem)))
		}
	})

	bootVideoVM(1, 100, cgroup.StoreMem)
	engine.Schedule(o.scaled(150*time.Second), func() {
		bootVideoVM(2, 40, cgroup.StoreMem)
		host.SetVMWeight(1, 60)
		r.note("t=%.0fs: VM2 booted, weights 60/40", engine.Now().Seconds())
	})
	engine.Schedule(o.scaled(300*time.Second), func() {
		bootVideoVM(3, 0, cgroup.StoreSSD) // SSD-only VM
		r.note("t=%.0fs: VM3 booted on the SSD store only", engine.Now().Seconds())
	})
	engine.Schedule(o.scaled(450*time.Second), func() {
		bootVideoVM(4, 25, cgroup.StoreMem)
		host.SetVMWeight(1, 40)
		host.SetVMWeight(2, 35)
		host.SetCacheBytes(cgroup.StoreMem, 1*GiB) // 2 GB → 4 GB scaled
		r.note("t=%.0fs: VM4 booted, cache grown to 1 GiB, weights 40/35/25", engine.Now().Seconds())
	})
	if err := engine.Run(o.scaled(600 * time.Second)); err != nil {
		r.note("engine: %v", err)
	}

	t := Table{Columns: []string{"window", "vm1 MiB", "vm2 MiB", "vm4 MiB"}}
	windows := []struct {
		label    string
		from, to time.Duration
	}{
		{"vm1 alone", o.scaled(75 * time.Second), o.scaled(150 * time.Second)},
		{"vm1+vm2 (60/40)", o.scaled(240 * time.Second), o.scaled(300 * time.Second)},
		{"vm3 on SSD", o.scaled(390 * time.Second), o.scaled(450 * time.Second)},
		{"vm4 + bigger cache (40/35/25)", o.scaled(540 * time.Second), o.scaled(600 * time.Second)},
	}
	for _, w := range windows {
		row := []string{w.label}
		for _, id := range []cleancache.VMID{1, 2, 4} {
			row = append(row, f1(seriesMeanWindow(sv[id], w.from, w.to)))
		}
		t.Rows = append(t.Rows, row)
	}
	r.Tables = append(r.Tables, t)
	r.note("paper shape: VM1 fills the cache alone; 60/40 split with VM2; VM3 on SSD leaves the memory split untouched; growing the cache + reweighting yields ~40/35/25 (scaled 1/4)")
	return r
}
