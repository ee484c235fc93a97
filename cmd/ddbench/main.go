// Command ddbench runs registered experiments (internal/experiments):
// the paper's tables and figures plus the transport, faults, readpath,
// readpath-transport, liveness and tier experiments beyond it.
//
// Usage:
//
//	ddbench -list
//	ddbench [-quick] [-seed N] [-stretch F] [-json FILE] <experiment-id>...
//	ddbench [-quick] all
//
// Each experiment is run, its tables are printed, and every gate the
// registry puts on it (a metric, an operator, a threshold) is evaluated
// with one verdict line; a failed gate, or a gate on a metric the result
// does not carry, makes the exit status non-zero after all ids have run.
// -json also writes every result's named virtual-time metrics and gate
// verdicts to FILE in one schema; the file is byte-identical across runs
// of the same ids, seed and stretch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"doubledecker/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ddbench:", err)
		os.Exit(1)
	}
}

// report is the -json schema.
type report struct {
	Seed        int64              `json:"seed"`
	Stretch     float64            `json:"stretch"`
	Experiments []experimentReport `json:"experiments"`
}

type experimentReport struct {
	ID      string                `json:"id"`
	Title   string                `json:"title"`
	Metrics map[string]float64    `json:"metrics"`
	Gates   []experiments.Verdict `json:"gates"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("ddbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment ids and exit")
	quick := fs.Bool("quick", false, "run shortened smoke versions")
	seed := fs.Int64("seed", 42, "simulation seed")
	stretch := fs.Float64("stretch", 0, "override duration stretch factor (0 = default)")
	jsonPath := fs.String("json", "", "also write the results' metrics and gate verdicts as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("no experiment given; try -list")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		var ok bool
		if runners[i], ok = experiments.Lookup(id); !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
	}
	opts := experiments.DefaultOpts()
	if *quick {
		opts = experiments.QuickOpts()
	}
	opts.Seed = *seed
	if *stretch > 0 {
		opts.Stretch = *stretch
	}

	out := report{Seed: opts.Seed, Stretch: opts.Stretch}
	var failed []string
	for i, id := range ids {
		start := time.Now()
		res := runners[i](opts)
		fmt.Print(res.Format())
		verdicts, err := judge(res, experiments.Gates(id))
		if err != nil {
			failed = append(failed, err.Error())
		}
		fmt.Printf("(wall time %.1fs)\n\n", time.Since(start).Seconds())

		metrics := make(map[string]float64, len(res.Metrics))
		for _, m := range res.Metrics {
			metrics[m.Name] = m.Value
		}
		out.Experiments = append(out.Experiments, experimentReport{
			ID: res.ID, Title: res.Title, Metrics: metrics, Gates: verdicts,
		})
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if len(failed) > 0 {
		return fmt.Errorf("gates failed: %s", strings.Join(failed, "; "))
	}
	return nil
}

// judge evaluates gates against res, prints one verdict line per gate
// and returns an error naming the gates that failed.
func judge(res *experiments.Result, gates []experiments.Gate) ([]experiments.Verdict, error) {
	verdicts := res.Check(gates)
	var failed []string
	for _, v := range verdicts {
		fmt.Println(v)
		if !v.OK {
			failed = append(failed, fmt.Sprintf("%s %s %g", v.Metric, v.Op, v.Threshold))
		}
	}
	if len(failed) > 0 {
		return verdicts, fmt.Errorf("%s: %s", res.ID, strings.Join(failed, ", "))
	}
	return verdicts, nil
}
