package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// quickRun makes one -quick run in this process and returns its result
// line and the printed output.
func quickRun(t *testing.T, workload, seed, trace string) (resultLine, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{
		"-quick", "-workload", workload, "-seed", seed, "-trace", trace,
		"-out", filepath.Join(t.TempDir(), "result.json"),
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("%s seed %s trace %s: exit %d\n%s%s", workload, seed, trace, code, errb.String(), tail(out.String()))
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	return line, out.String()
}

// tail drops the long detail line from a failed run's output.
func tail(out string) string {
	var keep []string
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, detailPrefix) {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "\n")
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkEmitted checks that every wanted metric is in the result line with
// its unit, that nothing else is, and that each was printed exactly once.
func checkEmitted(t *testing.T, what string, line resultLine, printed string, want map[string]string) {
	t.Helper()
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", what, len(line.Metrics), len(want))
	}
	for name, unit := range want {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", what, name)
		}
		got, ok := line.Metrics[name]
		if !ok {
			t.Errorf("%s: %s not emitted", what, name)
			continue
		}
		if got.Unit != unit || unit == "" {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, got.Unit, unit)
		}
		n := 0
		for _, l := range strings.Split(printed, "\n") {
			if f := strings.Fields(l); len(f) == 3 && f[0] == name {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: %s printed %d times", what, name, n)
		}
	}
}

// TestSmoke runs every workload with every window divided by 50: the names
// BENCHMARK.json lists are the names emitted, the output checks pass, and
// a second seed passes too, so nothing is tuned to seed 1. A traced run
// makes an untraced pass first and compares every counter, which is check
// (b); both passes run checks (c) and (d).
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("BENCHMARK.json: %s has bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloadNames))
	}
	for _, w := range bf.Workloads {
		w := w.Name
		t.Run(w, func(t *testing.T) {
			if !slices.Contains(workloadNames, w) {
				t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", w)
			}
			line, printed := quickRun(t, w, "1", "0")
			checkEmitted(t, w+" untraced", line, printed, e2e)
			for name, v := range line.Metrics {
				if v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w, name)
				}
			}
			line, printed = quickRun(t, w, "1", "1")
			checkEmitted(t, w+" traced", line, printed, layers)
			line, printed = quickRun(t, w, "2", "1")
			checkEmitted(t, w+" traced, seed 2", line, printed, layers)
		})
	}
}

// TestTablesMatchBenchmarkFile keeps the program's metric tables and
// BENCHMARK.json in step, in order.
func TestTablesMatchBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the tables %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] is %s (%s), the table has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] is %s (%s), the table has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSelfTimesSumToRootTime pins the attribution identity: every span's
// time is either its own or a child's, so the layers' self times add up to
// the time of the root spans, and with the sim residual to the window.
func TestSelfTimesSumToRootTime(t *testing.T) {
	res, tr := onePass("zipf-evict", 1, 1.0/50, true, false)
	if len(res.problems) != 0 {
		t.Fatalf("output checks failed: %v", res.problems)
	}
	var self int64
	for l := layer(0); l < numLayers; l++ {
		if s := tr.selfNs(l); s < 0 {
			t.Errorf("%s has negative self time %d", layerNames[l], s)
		} else {
			self += s
		}
	}
	if self != tr.rootNs || self == 0 {
		t.Errorf("layer self times sum to %d ns, root spans to %d ns", self, tr.rootNs)
	}
	if wall := int64(res.windowHostS * 1e9); tr.rootNs > wall {
		t.Errorf("root spans cover %d ns of a %d ns window", tr.rootNs, wall)
	}
	if len(tr.stack) != 0 {
		t.Errorf("%d spans left open", len(tr.stack))
	}
	if len(tr.raw) == 0 {
		t.Error("no raw spans sampled")
	}
}

func TestHistBuckets(t *testing.T) {
	for _, ns := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1025, 123456789, 1 << 40} {
		b := histBucket(ns)
		if lo, hi := histLower(b), histLower(b+1); float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns lands in bucket %d = [%g, %g)", ns, b, lo, hi)
		}
	}
	var h hostHist
	for ns := int64(1000); ns < 2000; ns++ {
		h[histBucket(ns)]++
	}
	if q := h.quantile(0.5); q < 1450 || q > 1550 {
		t.Errorf("median of 1000..1999 is %g", q)
	}
}

func TestVerdict(t *testing.T) {
	s := func(min, med, max float64) metricSummary { return metricSummary{Median: med, Min: min, Max: max, N: 3} }
	for _, c := range []struct {
		name         string
		a, b         metricSummary
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same", s(99, 100, 101), s(99, 100, 101), true, 0.1, "ok"},
		{"slower, tight runs", s(99, 100, 101), s(79, 80, 81), true, 0.1, "regressed"},
		{"faster", s(99, 100, 101), s(119, 120, 121), true, 0.1, "ok"},
		{"wide overlapping runs", s(80, 100, 120), s(75, 95, 115), true, 0.1, "unresolved"},
		{"wide runs, every b better", s(80, 100, 120), s(130, 150, 170), true, 0.1, "ok"},
		{"lower is better, rose", s(9.9, 10, 10.1), s(11.9, 12, 12.1), false, 0.1, "regressed"},
		{"lower is better, fell", s(9.9, 10, 10.1), s(7.9, 8, 8.1), false, 0.1, "ok"},
		{"exact metric moved", s(50, 50, 50), s(49, 49, 49), true, 0.005, "regressed"},
	} {
		if _, got := verdict(c.a, c.b, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
