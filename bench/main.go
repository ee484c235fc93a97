// Command bench is the repository's one benchmark: five fixed-work
// workloads against the stock guest→hypervisor stack, host time beside
// virtual time, with an interposer-traced run per layer. See README.md.
//
// With -trace 0 or -trace 1 it makes one run of one workload in this
// process and prints the result as the last line of standard output; that
// is the form the benchmark driver and the suite call. Without -trace it is
// the suite: it re-executes itself in a fresh process per workload and
// repeat, checks the runs against each other, prints every metric and
// writes a result file. With -compare it compares two result files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	repeats  int
	quick    bool
	notrace  bool
	out      string
	compare  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	fl.Int64Var(&o.seed, "seed", 1, "workload seed")
	fl.Float64Var(&o.seconds, "seconds", referenceSeconds, "host seconds the pinned windows are scaled to on the reference box")
	fl.StringVar(&o.trace, "trace", "", "make one run in this process: 0 untraced (end-to-end metrics), 1 traced (per-layer metrics)")
	fl.IntVar(&o.repeats, "repeats", 3, "untraced runs per workload, each in a fresh process")
	fl.BoolVar(&o.quick, "quick", false, "every window divided by 50, one repeat, one set-up")
	fl.BoolVar(&o.notrace, "notrace", false, "skip the traced run")
	fl.StringVar(&o.out, "out", filepath.Join("bench", "out", "result.json"), "result file")
	fl.BoolVar(&o.compare, "compare", false, "compare two result files: -compare a.json b.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if o.quick {
		o.seconds = referenceSeconds / 50.0
		o.repeats = 1
	}
	if o.seconds <= 0 || o.repeats < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -repeats must be positive")
		return 2
	}
	if o.workload != "" && !slices.Contains(workloadNames, o.workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %v)\n", o.workload, workloadNames)
		return 2
	}

	var err error
	switch {
	case o.compare:
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		err = compareFiles(stdout, fl.Arg(0), fl.Arg(1))
	case o.trace == "0" || o.trace == "1":
		if o.workload == "" {
			fmt.Fprintln(stderr, "bench: -trace needs -workload")
			return 2
		}
		err = singleRun(stdout, o)
	case o.trace != "":
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	default:
		err = suite(stdout, stderr, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// An untraced run sets up at least minSetups times, and goes on up to
// maxSetups times while set-up has taken less than setupBudgetS in all: a
// 12 ms set-up needs more repeats than a 1 s one for a steady median.
// setup_s is that median, and the window is measured on the last stack built.
const (
	minSetups    = 5
	maxSetups    = 25
	setupBudgetS = 1.0
)

// setupWorkload sets one workload up, timed, and returns the function that
// measures it and hands back the tracer it recorded into (nil untraced).
func setupWorkload(name string, seed int64, scale float64, traced bool) (setupS float64, measure func() (*pass, *tracer)) {
	if name == "mgr-mixed" {
		pr := setupMgrMixed(seed, scale, traced)
		return pr.setupS, pr.measure
	}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	pr := setupFullStack(fullStacks[name], seed, scale, tr)
	return pr.setupS, func() (*pass, *tracer) { return pr.measure(), tr }
}

// onePass sets a workload up, repeatedly if repeatSetup, measures it on the
// last stack built and reports the median set-up time.
func onePass(name string, seed int64, scale float64, traced, repeatSetup bool) (*pass, *tracer) {
	var times []float64
	var total float64
	var measure func() (*pass, *tracer)
	for {
		s, m := setupWorkload(name, seed, scale, traced)
		measure = m
		times = append(times, s)
		total += s
		n := len(times)
		if !repeatSetup || n >= maxSetups || n >= minSetups && total >= setupBudgetS {
			break
		}
	}
	res, tr := measure()
	res.e2e["setup_s"] = medianFloat(times)
	return res, tr
}

// runDetail is what one run reports beyond the result line; the suite
// reads it from the line before.
type runDetail struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Traced         bool               `json:"traced"`
	Ops            int64              `json:"ops"`
	Failed         int64              `json:"failed"`
	Samples        int64              `json:"latency_samples"`
	P99Label       string             `json:"p99_is"`
	WindowVirtualS float64            `json:"window_virtual_s"`
	WindowHostS    float64            `json:"window_host_s"`
	E2E            map[string]float64 `json:"e2e"`
	Layers         map[string]float64 `json:"layers,omitempty"`
	Counters       map[string]int64   `json:"counters"`
	Problems       []string           `json:"problems"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const detailPrefix = "detail: "

// singleRun makes one run of one workload in this process.
func singleRun(stdout io.Writer, o options) error {
	scale := o.seconds / referenceSeconds
	traced := o.trace == "1"
	fmt.Fprintf(stdout, "bench: workload %s seed %d seconds %g trace %s nproc %d gomaxprocs %d %s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var res *pass
	defs := endToEnd
	if !traced {
		res, _ = onePass(o.workload, o.seed, scale, false, !o.quick)
	} else {
		// An untraced pass first: its counters must equal the traced
		// pass's exactly, and its wall time is the base of the overhead.
		defs = perLayer
		plain, _ := onePass(o.workload, o.seed, scale, false, false)
		var tr *tracer
		res, tr = onePass(o.workload, o.seed, scale, true, false)
		res.problems = append(res.problems, plain.problems...)
		res.problems = append(res.problems, diffCounters("traced run differs from untraced", plain.counters, res.counters)...)
		res.layers["trace.overhead_pct"] = 100 * (res.windowHostS - plain.windowHostS) / plain.windowHostS
		if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
		if err := tr.writeRaw(filepath.Join(filepath.Dir(o.out), "trace-"+o.workload+".jsonl")); err != nil {
			return err
		}
	}

	values := res.e2e
	if traced {
		values = res.layers
	}
	line := resultLine{
		Correct:   len(res.problems) == 0,
		Attempted: res.ops,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := values[d.name] // a layer the workload does not run reports 0
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(stdout, "ops %d  latency samples %d (sim_op_p99_us is %s)  window %.3f s virtual, %.3f s host\n",
		res.ops, res.steps, res.p99Label, res.windowVirtualS, res.windowHostS)
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "FAILED CHECK:", p)
	}

	detail, err := json.Marshal(runDetail{
		Workload: o.workload, Seed: o.seed, Traced: traced,
		Ops: res.ops, Failed: res.failed, Samples: res.steps, P99Label: res.p99Label,
		WindowVirtualS: res.windowVirtualS, WindowHostS: res.windowHostS,
		E2E: res.e2e, Layers: res.layers, Counters: res.counters, Problems: res.problems,
	})
	if err != nil {
		return fmt.Errorf("encode detail: %w", err)
	}
	fmt.Fprintf(stdout, "%s%s\n", detailPrefix, detail)
	last, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !line.Correct {
		return fmt.Errorf("%s: %d output check(s) failed", o.workload, len(res.problems))
	}
	return nil
}

// diffCounters names the counters that differ between two runs that must
// agree bit for bit.
func diffCounters(what string, a, b map[string]int64) []string {
	var out []string
	for k, av := range a {
		if bv, ok := b[k]; !ok || av != bv {
			out = append(out, fmt.Sprintf("%s: %s is %d vs %d", what, k, av, bv))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s: %s only in the second run", what, k))
		}
	}
	slices.Sort(out)
	if len(out) > 8 {
		out = append(out[:8], fmt.Sprintf("%s: and %d more counters", what, len(out)-8))
	}
	return out
}
