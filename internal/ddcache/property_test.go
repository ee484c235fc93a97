package ddcache_test

// Property tests for the epoch-snapshot entitlement machinery, plus the
// regression test for the SetCapacity latency fix.

import (
	"testing"
	"testing/quick"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/store"
)

// TestPropertyEpochWeightMonotone checks, over random weight vectors and
// random weight updates, that every published epoch keeps entitlements
// weight-monotone (a heavier VM never holds a smaller entitlement),
// exhaustive (entitlements sum to capacity) and within quota (each VM is
// within one byte of its exact proportional share), and that each config
// mutation publishes a strictly newer epoch.
func TestPropertyEpochWeightMonotone(t *testing.T) {
	const capBytes = int64(1 << 20)
	prop := func(rawWeights [4]uint16, bump uint16, which uint8) bool {
		m := ddcache.NewManager(ddcache.Config{
			Mem: store.NewMem(blockdev.NewRAM("p.ram"), capBytes),
		})
		weights := make([]int64, len(rawWeights))
		vms := make([]cleancache.VMID, len(rawWeights))
		for i, rw := range rawWeights {
			weights[i] = int64(rw%1000) + 1 // positive, small enough to never saturate
			vms[i] = cleancache.VMID(i + 1)
			m.RegisterVM(vms[i], weights[i])
			if _, lat := m.CreatePool(0, vms[i], "p", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100}); lat == 0 {
				return false
			}
		}
		check := func() bool {
			var sum, total int64
			for _, w := range weights {
				total += w
			}
			ents := make([]int64, len(vms))
			for i, vm := range vms {
				ents[i] = m.VMEntitlement(vm, cgroup.StoreMem)
				sum += ents[i]
				// Quota: floor(cap*w/total) <= ent <= floor+1.
				floor := capBytes * weights[i] / total
				if ents[i] < floor || ents[i] > floor+1 {
					t.Logf("vm %d: entitlement %d outside quota [%d,%d]", vm, ents[i], floor, floor+1)
					return false
				}
			}
			if sum != capBytes {
				t.Logf("entitlements sum to %d, want %d", sum, capBytes)
				return false
			}
			for i := range vms {
				for j := range vms {
					if weights[i] > weights[j] && ents[i] < ents[j] {
						t.Logf("weight-monotonicity violated: w%d=%d>w%d=%d but ent %d<%d",
							i, weights[i], j, weights[j], ents[i], ents[j])
						return false
					}
				}
			}
			return true
		}
		if !check() {
			return false
		}
		// Mutate one VM's weight: the swap must publish a newer epoch and
		// the new epoch must satisfy the same properties.
		seqBefore := m.EpochSeq()
		i := int(which) % len(vms)
		weights[i] = int64(bump%1000) + 1
		m.SetVMWeight(vms[i], weights[i])
		if m.EpochSeq() <= seqBefore {
			t.Logf("SetVMWeight did not publish a new epoch (seq %d -> %d)", seqBefore, m.EpochSeq())
			return false
		}
		return check()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSetCapacityChargesEvictionLatency is the regression test for the
// capacity-op signature fix: shrinking a store below its occupancy must
// evict immediately AND report the eviction rounds in the returned
// latency, charging the work to the configuration op that caused it
// (previously the shrink was free and the cost leaked into later puts).
func TestSetCapacityChargesEvictionLatency(t *testing.T) {
	const (
		overhead = 100 * time.Nanosecond
		memCap   = int64(4 << 20)
		batch    = int64(256 << 10)
	)
	m := ddcache.NewManager(ddcache.Config{
		Mem:             store.NewMem(blockdev.NewRAM("r.ram"), memCap),
		EvictBatchBytes: batch,
		OpOverhead:      overhead,
	})
	m.RegisterVM(1, 100)
	id, _ := m.CreatePool(0, 1, "r", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})

	var now time.Duration
	for i := 0; i < 512; i++ { // 512 × 4 KiB = 2 MiB resident
		key := cleancache.Key{Pool: id, Inode: uint64(i/64 + 1), Block: int64(i % 64)}
		ok, lat := m.Put(now, 1, key)
		if !ok {
			t.Fatalf("put %d rejected while filling", i)
		}
		now += lat
	}
	if used := m.StoreUsedBytes(cgroup.StoreMem); used != 2<<20 {
		t.Fatalf("fill phase: used %d, want %d", used, 2<<20)
	}

	// A shrink that still fits costs exactly one op overhead.
	lat := m.SetCapacity(now, cgroup.StoreMem, 3<<20)
	if lat != overhead {
		t.Fatalf("non-evicting shrink latency %v, want %v", lat, overhead)
	}
	now += lat

	// Shrinking to 1 MiB must free 1 MiB immediately; the eviction pass
	// (the batch is raised to the full shortfall, so one round) is charged
	// on top of the config op itself.
	lat = m.SetCapacity(now, cgroup.StoreMem, 1<<20)
	if want := overhead * 2; lat != want {
		t.Fatalf("evicting shrink latency %v, want %v (config op + eviction round)", lat, want)
	}
	if used := m.StoreUsedBytes(cgroup.StoreMem); used > 1<<20 {
		t.Fatalf("after shrink: used %d exceeds new capacity %d", used, 1<<20)
	}
}
