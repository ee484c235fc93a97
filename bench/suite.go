// The suite: every workload, -repeats untraced runs and one traced run,
// each in a fresh process (four back-to-back runs in one process drift by
// a quarter as the heap grows), checked against each other and summarised.

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// metricSummary is one end-to-end metric over the suite's repeats.
type metricSummary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

type workloadResult struct {
	E2E            map[string]metricSummary `json:"e2e"`
	Layers         map[string]metricValue   `json:"layers,omitempty"`
	Ops            int64                    `json:"ops"`
	WindowVirtualS float64                  `json:"window_virtual_s"`
	WindowHostS    float64                  `json:"window_host_s"`
	FailedOps      int64                    `json:"failed_ops"`
}

// resultFile is the schema of -out.
type resultFile struct {
	Commit     string                     `json:"commit"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Nproc      int                        `json:"nproc"`
	Gomaxprocs int                        `json:"gomaxprocs"`
	GoVersion  string                     `json:"go_version"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// child runs one workload once in a fresh process and returns its detail.
func child(self string, stderr io.Writer, o options, workload, trace string) (*runDetail, error) {
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace,
		"-out", o.out,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			var d runDetail
			if err := json.Unmarshal([]byte(rest), &d); err != nil {
				return nil, fmt.Errorf("%s: decode run detail: %w", workload, err)
			}
			// A run whose own checks failed exits non-zero but still
			// reports; the suite names the checks.
			return &d, nil
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: run failed: %w", workload, runErr)
	}
	return nil, fmt.Errorf("%s: run printed no detail line", workload)
}

func suite(stdout, stderr io.Writer, o options) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	workloads := workloadNames
	if o.workload != "" {
		workloads = []string{o.workload}
	}
	rf := resultFile{
		Commit: commit(), Seed: o.seed, Seconds: o.seconds,
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workloads: map[string]*workloadResult{},
	}
	fmt.Fprintf(stdout, "bench: commit %s seed %d seconds %g repeats %d nproc %d gomaxprocs %d %s\n",
		rf.Commit, rf.Seed, rf.Seconds, o.repeats, rf.Nproc, rf.Gomaxprocs, rf.GoVersion)

	var problems []string
	for _, w := range workloads {
		var runs []*runDetail
		for i := 0; i < o.repeats; i++ {
			d, err := child(self, stderr, o, w, "0")
			if err != nil {
				return err
			}
			runs = append(runs, d)
			problems = append(problems, prefixed(w, d.Problems)...)
			// Check (a): the simulator is deterministic, so repeats of a
			// workload agree on every counter (on mgr-mixed, those of
			// its ordered pass).
			if i > 0 {
				problems = append(problems, prefixed(w, diffCounters("repeats differ", runs[0].Counters, d.Counters))...)
			}
		}
		wr := summarise(runs)
		if !o.notrace {
			d, err := child(self, stderr, o, w, "1")
			if err != nil {
				return err
			}
			problems = append(problems, prefixed(w, d.Problems)...)
			// Check (b) across processes; the traced run has already
			// checked itself against an untraced pass in its own process.
			problems = append(problems, prefixed(w, diffCounters("traced run differs from untraced", runs[0].Counters, d.Counters))...)
			wr.Layers = map[string]metricValue{}
			for _, def := range perLayer {
				wr.Layers[def.name] = metricValue{Value: d.Layers[def.name], Unit: def.unit}
			}
		}
		rf.Workloads[w] = wr
		printWorkload(stdout, w, wr, runs[0])
	}

	if err := writeJSON(o.out, rf); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nresult written to %s\n", o.out)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(stdout, "FAILED CHECK:", p)
		}
		return fmt.Errorf("%d output check(s) failed", len(problems))
	}
	return nil
}

func prefixed(w string, ps []string) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = w + ": " + p
	}
	return out
}

// summarise takes the median, minimum and maximum of every end-to-end
// metric over the repeats.
func summarise(runs []*runDetail) *workloadResult {
	wr := &workloadResult{E2E: map[string]metricSummary{}}
	var host, virtual []float64
	for _, d := range runs {
		host = append(host, d.WindowHostS)
		virtual = append(virtual, d.WindowVirtualS)
		wr.Ops = d.Ops
		wr.FailedOps += d.Failed
	}
	wr.WindowHostS, wr.WindowVirtualS = medianFloat(host), medianFloat(virtual)
	for _, def := range endToEnd {
		vals := make([]float64, 0, len(runs))
		for _, d := range runs {
			vals = append(vals, d.E2E[def.name])
		}
		wr.E2E[def.name] = metricSummary{
			Median: medianFloat(vals), Min: slices.Min(vals), Max: slices.Max(vals), N: len(vals), Unit: def.unit,
		}
	}
	return wr
}

func printWorkload(w io.Writer, name string, wr *workloadResult, first *runDetail) {
	fmt.Fprintf(w, "\n== %s: %d ops, window %.3f s virtual / %.3f s host, %d latency samples (sim_op_p99_us is %s)\n",
		name, wr.Ops, wr.WindowVirtualS, wr.WindowHostS, first.Samples, first.P99Label)
	for _, def := range endToEnd {
		s := wr.E2E[def.name]
		fmt.Fprintf(w, "%-36s %16.6g %-10s [%.6g .. %.6g] n=%d\n", def.name, s.Median, s.Unit, s.Min, s.Max, s.N)
	}
	for _, def := range perLayer {
		if v, ok := wr.Layers[def.name]; ok {
			fmt.Fprintf(w, "%-36s %16.6g %s\n", def.name, v.Value, v.Unit)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// commit names the checkout, or "unknown" outside a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
