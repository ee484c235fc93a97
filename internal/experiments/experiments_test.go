package experiments

import (
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"doubledecker/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_tiny.txt from this run")

const goldenTiny = "testdata/golden_tiny.txt"

// tinyOpts shrinks every experiment far enough for CI.
func tinyOpts() Opts {
	return Opts{Seed: 42, Stretch: 0.04, Sample: 2 * time.Second}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"faults", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig5", "fig6", "fig7", "fig9", "liveness", "readpath",
		"readpath-transport", "table1", "table2", "table3", "table4", "tier",
		"transport"}
	if got := IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
}

// TestGatesResolve runs every gated experiment and fails if a gate names
// a metric the result does not carry or uses an unknown operator, or if
// two metrics of one result share a name. Whether a gate holds at this
// scale is not checked: thresholds are set for -quick runs.
func TestGatesResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds each; skipped in -short")
	}
	for _, e := range registry {
		if len(e.Gates) == 0 {
			continue
		}
		res := e.Run(tinyOpts())
		seen := map[string]bool{}
		for _, m := range res.Metrics {
			if seen[m.Name] {
				t.Errorf("%s: metric %q reported twice", e.ID, m.Name)
			}
			seen[m.Name] = true
		}
		for _, v := range res.Check(e.Gates) {
			if v.missing {
				t.Errorf("%s: %v", e.ID, v)
			}
			switch v.Op {
			case ">", ">=", "<=", "==":
			default:
				t.Errorf("%s: gate on %s has unknown op %q", e.ID, v.Metric, v.Op)
			}
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

// TestEveryExperimentSmokes runs each artifact at tiny scale, checks the
// output structure is populated, and compares the concatenated Format
// bytes with the committed golden: the simulator is deterministic, so
// any difference is a behaviour change. Regenerate on purpose with
// go test ./internal/experiments -run TestEveryExperimentSmokes -update.
func TestEveryExperimentSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds each; skipped in -short")
	}
	o := tinyOpts()
	var all strings.Builder
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			runner, _ := Lookup(id)
			res := runner(o)
			if res == nil {
				t.Fatal("nil result")
			}
			if res.ID != id {
				t.Fatalf("result id %q, want %q", res.ID, id)
			}
			if len(res.Tables) == 0 && len(res.SeriesOrder) == 0 {
				t.Fatal("experiment produced neither tables nor series")
			}
			out := res.Format()
			if !strings.Contains(out, id) {
				t.Fatal("Format output missing the experiment id")
			}
			all.WriteString(out)
		})
	}
	if t.Failed() {
		return
	}
	if *update {
		if err := os.WriteFile(goldenTiny, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenTiny)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got := all.String(); got != string(want) {
		t.Fatalf("experiment output differs from %s at line %d (%d bytes, want %d); "+
			"if the behaviour change is intended, rerun with -update and explain the diff",
			goldenTiny, firstDiffLine(got, string(want)), len(got), len(want))
	}
}

// firstDiffLine returns the 1-based line of the first differing byte.
func firstDiffLine(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return 1 + strings.Count(a[:i], "\n")
}

func TestResultFormatTable(t *testing.T) {
	r := newResult("x", "demo")
	r.Tables = append(r.Tables, Table{
		Title:   "tbl",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}},
	})
	r.note("hello %d", 7)
	out := r.Format()
	for _, want := range []string{"tbl", "long-column", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestFormatSeriesDownsamples(t *testing.T) {
	s := metrics.NewSeries("s")
	for i := 0; i < 1000; i++ {
		s.Record(time.Duration(i)*time.Second, float64(i))
	}
	out := formatSeries(s, 10)
	lines := strings.Count(out, "\n")
	if lines > 15 {
		t.Fatalf("downsampling produced %d lines", lines)
	}
	if !strings.Contains(out, "999") {
		t.Fatal("last sample not included")
	}
}

func TestSeriesMeanWindow(t *testing.T) {
	s := metrics.NewSeries("s")
	s.Record(time.Second, 10)
	s.Record(2*time.Second, 20)
	s.Record(3*time.Second, 90)
	if got := seriesMeanWindow(s, time.Second, 2*time.Second); got != 15 {
		t.Fatalf("mean = %v, want 15", got)
	}
	if got := seriesMeanWindow(s, time.Hour, 2*time.Hour); got != 0 {
		t.Fatalf("empty window mean = %v", got)
	}
}

func TestScaledClampsNonPositive(t *testing.T) {
	o := Opts{Stretch: 0}
	if got := o.scaled(time.Minute); got != time.Minute {
		t.Fatalf("scaled with zero stretch = %v", got)
	}
	o.Stretch = 0.5
	if got := o.scaled(time.Minute); got != 30*time.Second {
		t.Fatalf("scaled = %v", got)
	}
}

func TestDeterministicExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	o := tinyOpts()
	a := Fig5(o).Format()
	b := Fig5(o).Format()
	if a != b {
		t.Fatal("fig5 not deterministic across runs")
	}
}
