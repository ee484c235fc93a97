// Stack assembly for the four full-stack workloads. An untraced run builds
// the host through hypervisor.New, as every experiment does. A traced run
// assembles the same stack by hand with an interposer at each boundary,
// mirroring hypervisor.New's stock defaults; the run then proves the two
// are the same stack by comparing every counter (see checks.go).

package main

import (
	"fmt"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/guest"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/hypervisor"
	"doubledecker/internal/sim"
	"doubledecker/internal/store"
	"doubledecker/internal/store/remote"
)

const mib = 1 << 20

// hostSpec is the part of hypervisor.Config the workloads vary.
type hostSpec struct {
	memBytes    int64
	ssdBytes    int64
	remoteBytes int64
	// ssdDisks gives every VM an SSD-class virtual disk in place of the
	// default 7200 RPM HDD.
	ssdDisks bool
}

// vmSpec describes one guest and its containers.
type vmSpec struct {
	id         cleancache.VMID
	memBytes   int64
	weight     int64
	containers []containerSpec
}

type containerSpec struct {
	name       string
	limitBytes int64
	spec       cgroup.HCacheSpec
}

// stack is a built host: what the run drives and what the checks read.
type stack struct {
	engine     *sim.Engine
	manager    *ddcache.Manager
	vms        []*guest.VM
	transports []*hypercall.Transport // one per VM, in vms order
	containers []*guest.Container     // every container, in spec order
}

func vmDisk(id cleancache.VMID, ssd bool) blockdev.Device {
	name := fmt.Sprintf("vm%d-disk", id)
	if ssd {
		return blockdev.NewSSD(name)
	}
	return blockdev.NewHDD(name)
}

// buildStack builds the host and boots its VMs and containers. tr nil
// selects the stock path.
func buildStack(engine *sim.Engine, hs hostSpec, vms []vmSpec, tr *tracer) *stack {
	st := &stack{engine: engine}
	if tr == nil {
		cfg := hypervisor.Config{
			Mode:             ddcache.ModeDD,
			MemCacheBytes:    hs.memBytes,
			SSDCacheBytes:    hs.ssdBytes,
			RemoteCacheBytes: hs.remoteBytes,
		}
		if hs.ssdDisks {
			cfg.VMDiskFactory = func(id cleancache.VMID) blockdev.Device { return vmDisk(id, true) }
		}
		host := hypervisor.New(engine, cfg)
		st.manager = host.Manager()
		for _, vs := range vms {
			vm := host.NewVM(vs.id, vs.memBytes, vs.weight)
			st.vms = append(st.vms, vm)
			st.transports = append(st.transports, host.Transport(vs.id))
		}
	} else {
		mcfg := ddcache.Config{Mode: ddcache.ModeDD, VictimSelector: tracedSelector(tr)}
		if hs.memBytes > 0 {
			mcfg.Mem = &tracedStore{inner: store.NewMem(blockdev.NewRAM("host-ram"), hs.memBytes), layer: layerStoreMem, tr: tr}
		}
		if hs.ssdBytes > 0 {
			mcfg.SSD = &tracedStore{inner: store.NewSSD(blockdev.NewSSD("host-ssd"), hs.ssdBytes), layer: layerStoreSSD, tr: tr}
		}
		if hs.remoteBytes > 0 {
			mcfg.Remote = &tracedStore{inner: remote.New(remote.Config{CapacityBytes: hs.remoteBytes}), layer: layerStoreRemote, tr: tr}
		}
		st.manager = ddcache.NewManager(mcfg)
		for _, vs := range vms {
			st.manager.RegisterVM(vs.id, vs.weight)
			tp := hypercall.NewTransport(&tracedBackend{inner: st.manager, tr: tr},
				hypercall.Options{AsyncGets: true, ZeroCopy: true})
			front := cleancache.NewFront(vs.id, &tracedTransport{inner: tp, tr: tr})
			vm := guest.New(engine, guest.Config{
				ID:              vs.id,
				MemBytes:        vs.memBytes,
				ReadAheadWindow: guest.DefaultReadAheadWindow,
				Disk:            &tracedDevice{inner: vmDisk(vs.id, hs.ssdDisks), tr: tr},
			}, front)
			st.vms = append(st.vms, vm)
			st.transports = append(st.transports, tp)
		}
	}
	for i, vs := range vms {
		for _, cs := range vs.containers {
			st.containers = append(st.containers, st.vms[i].NewContainer(cs.name, cs.limitBytes, cs.spec))
		}
	}
	return st
}
