package ddcache

import (
	"errors"
	"strings"
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/store"
	"doubledecker/internal/store/remote"
)

// flakyStore fails every Store while fail is set, so a test can trip a
// tier's breaker and then leave the device healthy under an open breaker.
type flakyStore struct {
	store.Backend
	fail bool
}

func (s *flakyStore) Store(now time.Duration, size int64) (time.Duration, error) {
	if s.fail {
		return 0, errors.New("injected store failure")
	}
	return s.Backend.Store(now, size)
}

// TestPlacementLadder pins where a pool's first put lands for every
// combination of configured tiers, open breakers and pool store type.
// Each want string reads <mem> <ssd> <hybrid> <remote>: m, s, r name the
// tier that took the object, - is a rejected put. An open breaker skips
// to the next faster configured tier; an unconfigured requested tier
// rejects.
func TestPlacementLadder(t *testing.T) {
	pools := []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD, cgroup.StoreHybrid, cgroup.StoreRemote}
	cases := []struct {
		tiers, open, want string
	}{
		{"", "", "- - - -"},
		{"m", "", "m - m -"},
		{"s", "", "- s s -"},
		{"s", "s", "- - - -"},
		{"r", "", "- - - r"},
		{"r", "r", "- - - -"},
		{"ms", "", "m s m -"},
		{"ms", "s", "m m m -"},
		{"mr", "", "m - m r"},
		{"mr", "r", "m - m m"},
		{"sr", "", "- s s r"},
		{"sr", "r", "- s s s"},
		{"sr", "s", "- - - r"},
		{"sr", "rs", "- - - -"},
		{"msr", "", "m s m r"},
		{"msr", "r", "m s m s"},
		{"msr", "s", "m m m r"},
		{"msr", "rs", "m m m m"},
	}
	for _, c := range cases {
		want := strings.Fields(c.want)
		for i, spec := range pools {
			got := placeOne(t, c.tiers, c.open, spec)
			if got != want[i] {
				t.Errorf("tiers=%q open=%q <%v> pool: put landed on %q, want %q",
					c.tiers, c.open, spec, got, want[i])
			}
		}
	}
}

// placeOne builds a manager over the named tiers, trips the named
// breakers, and reports where one put into a fresh pool of type spec
// lands.
func placeOne(t *testing.T, tiers, open string, spec cgroup.StoreType) string {
	t.Helper()
	backends := map[string]*flakyStore{}
	var cfg Config
	if strings.Contains(tiers, "m") {
		backends["m"] = &flakyStore{Backend: store.NewMem(blockdev.NewRAM("ram"), mib)}
		cfg.Mem = backends["m"]
	}
	if strings.Contains(tiers, "s") {
		backends["s"] = &flakyStore{Backend: store.NewSSD(blockdev.NewSSD("ssd"), mib)}
		cfg.SSD = backends["s"]
	}
	if strings.Contains(tiers, "r") {
		backends["r"] = &flakyStore{Backend: remote.New(remote.Config{CapacityBytes: mib})}
		cfg.Remote = backends["r"]
	}
	m := NewManager(cfg)
	m.RegisterVM(1, 100)

	// Trip each named breaker with the default threshold of failed
	// writes through a throwaway pool of that tier, then heal the device.
	for _, tier := range open {
		st := map[rune]cgroup.StoreType{'s': cgroup.StoreSSD, 'r': cgroup.StoreRemote}[tier]
		be := backends[string(tier)]
		be.fail = true
		tripper, _ := m.CreatePool(0, 1, "tripper", cgroup.HCacheSpec{Store: st, Weight: 100})
		for i := int64(0); i < 5; i++ {
			if ok, _ := m.Put(0, 1, key(tripper, 1, i)); ok {
				t.Fatalf("tiers=%q: put %d stored through a failing %v tier", tiers, i, st)
			}
		}
		m.DestroyPool(0, 1, tripper)
		be.fail = false
	}
	if s := m.SSDBreakerStats().State; (s == "open") != strings.Contains(open, "s") {
		t.Fatalf("tiers=%q open=%q: SSD breaker is %s", tiers, open, s)
	}
	if s := m.RemoteBreakerStats().State; (s == "open") != strings.Contains(open, "r") {
		t.Fatalf("tiers=%q open=%q: remote breaker is %s", tiers, open, s)
	}

	pool, _ := m.CreatePool(0, 1, "p", cgroup.HCacheSpec{Store: spec, Weight: 100})
	ok, _ := m.Put(0, 1, key(pool, 1, 0))
	got := "-"
	for name, be := range backends {
		if be.UsedBytes() == 0 {
			continue
		}
		if got != "-" || be.UsedBytes() != ObjectSize {
			t.Fatalf("tiers=%q open=%q <%v>: one put charged more than one object", tiers, open, spec)
		}
		got = name
	}
	if ok != (got != "-") {
		t.Fatalf("tiers=%q open=%q <%v>: put returned %v but landed on %q", tiers, open, spec, ok, got)
	}
	return got
}
