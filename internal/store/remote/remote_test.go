package remote

import (
	"testing"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/fault"
	"doubledecker/internal/store"
)

var _ store.Backend = (*Store)(nil)

func TestDefaultsAndType(t *testing.T) {
	s := New(Config{CapacityBytes: 1 << 30})
	if s.Type() != cgroup.StoreRemote {
		t.Fatalf("type = %v, want remote", s.Type())
	}
	if s.CapacityBytes() != 1<<30 {
		t.Fatalf("capacity = %d", s.CapacityBytes())
	}
	s.SetCapacityBytes(2 << 30)
	if s.CapacityBytes() != 2<<30 {
		t.Fatalf("capacity after set = %d", s.CapacityBytes())
	}
}

func TestStoreFetchReleaseAccounting(t *testing.T) {
	s := New(Config{CapacityBytes: 1 << 20})
	lat, err := s.Store(0, 4096)
	if err != nil || lat != time.Microsecond {
		t.Fatalf("store: lat=%v err=%v, want 1µs submission cost", lat, err)
	}
	if got := s.UsedBytes(); got != 4096 {
		t.Fatalf("used = %d, want 4096", got)
	}
	flat, err := s.Fetch(time.Second, 4096)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if flat < s.cfg.BaseLatency {
		t.Fatalf("fetch latency %v below base %v", flat, s.cfg.BaseLatency)
	}
	if flat > s.cfg.BaseLatency+s.cfg.Jitter+time.Millisecond {
		t.Fatalf("fetch latency %v implausibly high", flat)
	}
	s.Release(4096)
	if got := s.UsedBytes(); got != 0 {
		t.Fatalf("used after release = %d", got)
	}
	s.Release(4096) // clamp: never negative
	if got := s.UsedBytes(); got != 0 {
		t.Fatalf("used after double release = %d", got)
	}
}

// TestDeterministicLatencies drives two independent instances through the
// same call sequence and requires identical latencies — the property the
// three-tier differential oracle depends on.
func TestDeterministicLatencies(t *testing.T) {
	cfg := Config{CapacityBytes: 1 << 30}
	a, b := New(cfg), New(cfg)
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		size := int64(4096 * (1 + i%4))
		la, ea := a.Store(now, size)
		lb, eb := b.Store(now, size)
		if la != lb || (ea == nil) != (eb == nil) {
			t.Fatalf("op %d: store diverged %v/%v %v/%v", i, la, lb, ea, eb)
		}
		fa, ea := a.Fetch(now, size)
		fb, eb := b.Fetch(now, size)
		if fa != fb || (ea == nil) != (eb == nil) {
			t.Fatalf("op %d: fetch diverged %v vs %v", i, fa, fb)
		}
		now += fa + time.Microsecond
	}
}

// TestJitterSpread checks the deterministic jitter actually spreads
// latencies instead of collapsing onto the base.
func TestJitterSpread(t *testing.T) {
	s := New(Config{CapacityBytes: 1 << 30})
	seen := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		lat, err := s.Fetch(time.Duration(i)*time.Second, 4096)
		if err != nil {
			t.Fatal(err)
		}
		seen[lat] = true
	}
	if len(seen) < 8 {
		t.Fatalf("jitter too narrow: %d distinct latencies in 64 fetches", len(seen))
	}
}

// TestPipeSerializesTransfersOnly: two large fetches at the same instant
// each pay the full base latency (round trips overlap) but their
// transfers queue on the pipe.
func TestPipeSerializesTransfersOnly(t *testing.T) {
	s := New(Config{CapacityBytes: 1 << 30, Jitter: -1}) // negative → no jitter
	const size = 100 << 20                               // 100 MiB at 200 MiB/s = 500 ms transfer
	l1, err1 := s.Fetch(0, size)
	l2, err2 := s.Fetch(0, size)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	transfer := time.Duration(int64(size) * int64(time.Second) / int64(DefaultBytesPerSec))
	if l1 != DefaultBaseLatency+transfer {
		t.Fatalf("first fetch %v, want base+transfer %v", l1, DefaultBaseLatency+transfer)
	}
	if l2 != DefaultBaseLatency+2*transfer {
		t.Fatalf("second fetch %v, want base+2·transfer %v (transfer queued, RTT overlapped)", l2, DefaultBaseLatency+2*transfer)
	}
}

func TestFaultFailureContract(t *testing.T) {
	inj := fault.New(fault.Plan{Rules: []fault.Rule{
		{Site: "remote.put", Kind: fault.KindIOError},
	}})
	s := New(Config{CapacityBytes: 1 << 30, Faults: inj})
	if _, err := s.Store(0, 4096); err == nil {
		t.Fatal("store under io-error fault should fail")
	}
	if got := s.UsedBytes(); got != 0 {
		t.Fatalf("failed store charged %d bytes", got)
	}

	inj2 := fault.New(fault.Plan{Rules: []fault.Rule{
		{Site: "remote.get", Kind: fault.KindStall, Delay: 5 * time.Millisecond},
	}})
	s2 := New(Config{CapacityBytes: 1 << 30, Faults: inj2})
	if _, err := s2.Store(0, 4096); err != nil {
		t.Fatal(err)
	}
	lat, err := s2.Fetch(0, 4096)
	if err == nil {
		t.Fatal("fetch under stall should fail")
	}
	if lat != 5*time.Millisecond {
		t.Fatalf("stalled fetch latency %v, want the 5ms timeout", lat)
	}
	if got := s2.UsedBytes(); got != 4096 {
		t.Fatalf("failed fetch must leave usage charged, got %d", got)
	}
}

func TestCostAccounting(t *testing.T) {
	s := New(Config{CapacityBytes: 1 << 30})
	const gib = int64(1) << 30
	if _, err := s.Store(0, gib); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch(0, gib); err != nil {
		t.Fatal(err)
	}
	cs := s.Cost()
	if cs.Requests != 2 || cs.Bytes != 2*gib {
		t.Fatalf("cost stats = %+v", cs)
	}
	want := 2*DefaultCostPerRequestNanos + 2*DefaultCostPerGiBNanos
	if cs.CostNanos != int64(want) {
		t.Fatalf("cost = %d nano$, want %d", cs.CostNanos, want)
	}
}
