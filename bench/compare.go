// -compare: two result files against the bounds BENCHMARK.json fixes.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json from the repository root, where
// the command runs, or from the package directory, where its test runs.
func readBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("decode %s: %w", path, err)
		}
		return &bf, nil
	}
	return nil, fmt.Errorf("read BENCHMARK.json: %w", firstErr)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read result: %w", err)
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &rf, nil
}

// verdict judges one metric of side b against side a. worse is b's median
// relative to a's in the direction that is worse.
func verdict(a, b metricSummary, higherBetter bool, bound float64) (worse float64, v string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
	}
	if higherBetter {
		worse = -worse
	}
	allBetter := b.Max < a.Min
	if higherBetter {
		allBetter = b.Min > a.Max
	}
	spread := 0.0
	for _, s := range []metricSummary{a, b} {
		if s.Median != 0 {
			if r := (s.Max - s.Min) / s.Median; r > spread {
				spread = r
			}
		}
	}
	overlap := b.Min <= a.Max && a.Min <= b.Max
	switch {
	case allBetter:
		return worse, "ok"
	case spread > bound && overlap:
		// The runs cannot tell the two sides apart to within the bound.
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	default:
		return worse, "ok"
	}
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change, the bound and the verdict. Any regression is an error.
func compareFiles(w io.Writer, pathA, pathB string) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s commit %s seed %d\nb: %s commit %s seed %d\n", pathA, a.Commit, a.Seed, pathB, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-16s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "verdict")
	regressed := 0
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			worse, v := verdict(wa.E2E[m.Name], wb.E2E[m.Name], m.Better == "higher", m.Bound)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-16s %-26s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				name, m.Name, wa.E2E[m.Name].Median, wb.E2E[m.Name].Median, 100*worse, 100*m.Bound, v)
		}
		if wb.FailedOps > wa.FailedOps {
			regressed++
			fmt.Fprintf(w, "%-16s %-26s %14d %14d %31s\n", name, "failed ops", wa.FailedOps, wb.FailedOps, "regressed")
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
