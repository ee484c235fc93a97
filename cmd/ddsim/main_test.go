package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestExampleConfigParses(t *testing.T) {
	cfg, err := parseConfig([]byte(exampleConfig))
	if err != nil {
		t.Fatalf("example config invalid: %v", err)
	}
	if len(cfg.VMs) == 0 {
		t.Fatal("example config has no VMs")
	}
}

// TestUnknownKeysRejected: a misspelt knob must fail the parse, not run
// a scenario that silently ignores it — at the host level and inside the
// embedded fault rules alike.
func TestUnknownKeysRejected(t *testing.T) {
	for _, raw := range []string{
		`{"host": {"mode": "dd", "memCacheMB": 64}}`,
		`{"host": {"noPipline": true}}`,
		`{"faults": {"rules": [{"site": "host-ssd.write", "kind": "io-error", "probability": 1}]}}`,
	} {
		if _, err := parseConfig([]byte(raw)); err == nil {
			t.Errorf("config with an unknown key accepted: %s", raw)
		}
	}
	if _, err := parseConfig([]byte(`{"host": {"mode": "dd", "memCacheMiB": 64}}`)); err != nil {
		t.Errorf("well-formed config rejected: %v", err)
	}
}

func TestStoreTypeParsing(t *testing.T) {
	for _, s := range []string{"", "mem", "ssd", "hybrid", "remote"} {
		if _, err := storeType(s); err != nil {
			t.Fatalf("storeType(%q): %v", s, err)
		}
	}
	if _, err := storeType("tape"); err == nil {
		t.Fatal("bogus store accepted")
	}
}

func TestRunMissingConfig(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -config not rejected")
	}
}

func TestRunExampleFlag(t *testing.T) {
	if err := run([]string{"-example"}); err != nil {
		t.Fatalf("-example: %v", err)
	}
}

func TestSimulateSmallScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real scenario")
	}
	cfg := `{
	  "seed": 1, "durationSeconds": 10,
	  "host": {"mode": "dd", "memCacheMiB": 64},
	  "vms": [{"id": 1, "memMiB": 256, "weight": 100, "containers": [
	    {"name": "web", "limitMiB": 32, "store": "mem", "weight": 100,
	     "workload": {"type": "webserver", "files": 200, "meanBlocks": 8, "threads": 2, "thinkMicros": 500}}
	  ]}]
	}`
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", path}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
}

func TestBadWorkloadRejected(t *testing.T) {
	cfg := Config{
		DurationSeconds: 1,
		Host:            HostConfig{Mode: "dd", MemCacheMiB: 64},
		VMs: []VMConfig{{ID: 1, MemMiB: 256, Weight: 100, Containers: []ContainerConfig{{
			Name: "x", LimitMiB: 16, Store: "mem", Weight: 100,
			Workload: WorkloadConfig{Type: "quantum"},
		}}}},
	}
	if err := simulate(cfg, os.Stdout); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
