package ddcache_test

import (
	"runtime"
	"testing"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/ddcache/oracle"
	"doubledecker/internal/store"
)

// minShardedScaling is the bar CI holds the sharded manager to: 8 paced
// guests must deliver at least this multiple of 1 guest's throughput
// (the modeled waits overlap, so even a 1-CPU host clears it).
const minShardedScaling = 1.05

// TestShardedScaling is the hot-path scaling run, the one measurement in
// the repository that is host wall-clock rather than virtual time.
// Closed-loop guests issue an SSD-heavy mix (the modeled ~90µs device
// reads dominate) at 1, 2, 4 and 8 guests. Against the sharded manager
// each guest sleeps its own latency, so guests overlap their device
// waits and throughput grows with the guest count; against the
// single-lock baseline (the sequential oracle behind one mutex) the wait
// is served while holding the lock, so adding guests adds nothing. The
// baseline is logged beside the sharded rows, not asserted on.
func TestShardedScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paced scaling rows in real time")
	}
	const (
		memCap      = int64(64 << 20)
		ssdCap      = int64(256 << 20)
		opsPerGuest = 500
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	opsPerSec := map[string]map[int]float64{"sharded": {}, "single-lock": {}}
	for _, guests := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(guests)
		opts := ddcache.BackendStressOptions{Guests: guests, Ops: opsPerGuest, Seed: 42, SSDHeavy: true}

		sharded := opts
		sharded.Pace = true // guest sleeps its own latency: waits overlap
		res := ddcache.RunStressBackend(ddcache.NewManager(ddcache.Config{
			Mode: ddcache.ModeDD,
			Mem:  store.NewMem(blockdev.NewRAM("ram"), memCap),
			SSD:  store.NewSSD(blockdev.NewSSD("ssd"), ssdCap),
		}), sharded)
		opsPerSec["sharded"][guests] = res.OpsPerSec()
		t.Logf("sharded     %d guests: %6d ops, %8.0f ops/s (%d hits, %d puts, %v)",
			guests, res.Ops, res.OpsPerSec(), res.GetHits, res.Puts, res.Wall)

		baseline := oracle.NewSequential(oracle.New(oracle.Config{
			Mode: oracle.ModeDD,
			Mem:  store.NewMem(blockdev.NewRAM("scale.ram"), memCap),
			SSD:  store.NewSSD(blockdev.NewSSD("scale.ssd"), ssdCap),
		}), true) // the wrapper paces inside the lock
		res = ddcache.RunStressBackend(baseline, opts)
		opsPerSec["single-lock"][guests] = res.OpsPerSec()
		t.Logf("single-lock %d guests: %6d ops, %8.0f ops/s (%d hits, %d puts, %v)",
			guests, res.Ops, res.OpsPerSec(), res.GetHits, res.Puts, res.Wall)
	}

	for _, impl := range []string{"sharded", "single-lock"} {
		t.Logf("%s 8v1 speedup %.2fx", impl, opsPerSec[impl][8]/opsPerSec[impl][1])
	}
	if got := opsPerSec["sharded"][8] / opsPerSec["sharded"][1]; !(got >= minShardedScaling) {
		t.Fatalf("sharded 8-guest throughput scaled %.2fx over 1-guest, want >= %.2fx", got, minShardedScaling)
	}
}
