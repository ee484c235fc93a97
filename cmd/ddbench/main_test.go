package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"doubledecker/internal/experiments"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing experiment not rejected")
	}
}

// TestFlagPrecedence pins what the per-benchmark JSON flags got wrong:
// -json without an id is an error rather than a silent default, -list
// wins over -json, and an unknown id fails before anything runs or is
// written. -parallel is not a flag: the stress drivers are tests.
func TestFlagPrecedence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run([]string{"-json", path}); err == nil {
		t.Error("-json with no experiment id accepted")
	}
	if err := run([]string{"-parallel", "4", "-json", path, "readpath-transport"}); err == nil {
		t.Error("-parallel accepted; it is not a flag")
	}
	if err := run([]string{"-json", path, "readpath-transport", "bogus"}); err == nil {
		t.Error("unknown id after a known one accepted")
	}
	if err := run([]string{"-list", "-json", path, "readpath-transport"}); err != nil {
		t.Errorf("-list -json: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("%s was written (stat err %v); want -list and the errors to write nothing", path, err)
	}
}

func TestRunQuickExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real scenario")
	}
	if err := run([]string{"-quick", "-stretch", "0.04", "fig5"}); err != nil {
		t.Fatalf("run fig5: %v", err)
	}
}

// runJSON runs ddbench with -json and returns the file's bytes.
func runJSON(t *testing.T, args ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(append([]string{"-json", path}, args...)); err != nil {
		t.Fatalf("run -json %v: %v", args, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunJSON writes two experiments into one file, decodes it against
// the schema, and checks that -seed and -stretch are applied and that a
// second identical invocation produces the same bytes.
func TestRunJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scenarios")
	}
	args := []string{"-quick", "-stretch", "0.04", "-seed", "7", "tier", "readpath-transport"}
	data := runJSON(t, args...)

	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var out report
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
	if out.Seed != 7 || out.Stretch != 0.04 || len(out.Experiments) != 2 {
		t.Fatalf("seed %d stretch %g with %d experiments, want 7, 0.04, 2", out.Seed, out.Stretch, len(out.Experiments))
	}
	for i, id := range []string{"tier", "readpath-transport"} {
		e := out.Experiments[i]
		if e.ID != id || e.Title == "" || len(e.Metrics) == 0 {
			t.Errorf("experiment %d = {%q %q, %d metrics}, want id %q with a title and metrics", i, e.ID, e.Title, len(e.Metrics), id)
		}
		if len(e.Gates) != len(experiments.Gates(id)) {
			t.Errorf("%s: %d gate verdicts, want %d", id, len(e.Gates), len(experiments.Gates(id)))
		}
		for _, g := range e.Gates {
			if got, ok := e.Metrics[g.Metric]; !ok || got != g.Value {
				t.Errorf("%s: gate value %g for %s, metrics say %g (present %v)", id, g.Value, g.Metric, got, ok)
			}
		}
	}
	// ceil(32 rounds × 0.04): -stretch reaches the transport-level run.
	if got := out.Experiments[1].Metrics["rounds"]; got != 2 {
		t.Errorf("readpath-transport rounds = %g at -stretch 0.04, want 2", got)
	}

	if again := runJSON(t, args...); !bytes.Equal(data, again) {
		t.Errorf("same invocation, different bytes:\n%s\n---\n%s", data, again)
	}
}

func TestJudge(t *testing.T) {
	res := &experiments.Result{ID: "x", Metrics: []experiments.Metric{{Name: "m", Value: 2}}}
	cases := []struct {
		gate experiments.Gate
		ok   bool
	}{
		{experiments.Gate{Metric: "m", Op: ">", Threshold: 1}, true},
		{experiments.Gate{Metric: "m", Op: ">", Threshold: 2}, false},
		{experiments.Gate{Metric: "m", Op: ">=", Threshold: 2}, true},
		{experiments.Gate{Metric: "m", Op: ">=", Threshold: 2.5}, false},
		{experiments.Gate{Metric: "m", Op: "<=", Threshold: 2}, true},
		{experiments.Gate{Metric: "m", Op: "<=", Threshold: 1.5}, false},
		{experiments.Gate{Metric: "m", Op: "==", Threshold: 2}, true},
		{experiments.Gate{Metric: "m", Op: "==", Threshold: 0}, false},
		{experiments.Gate{Metric: "absent", Op: "==", Threshold: 0}, false},
		{experiments.Gate{Metric: "m", Op: "<", Threshold: 3}, false}, // not an op
	}
	for _, c := range cases {
		verdicts, err := judge(res, []experiments.Gate{c.gate})
		if len(verdicts) != 1 || verdicts[0].OK != c.ok || (err == nil) != c.ok {
			t.Errorf("gate %+v: verdicts %+v, err %v; want ok=%v", c.gate, verdicts, err, c.ok)
		}
	}
	// One failure among passes still fails the experiment.
	if _, err := judge(res, []experiments.Gate{cases[0].gate, cases[8].gate, cases[2].gate}); err == nil {
		t.Error("a gate on an unreported metric did not fail the run")
	}
}
