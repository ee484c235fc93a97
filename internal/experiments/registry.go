// Experiment registry: the one table that says what each experiment is
// called, how it runs and which of its metrics must hold.

package experiments

import (
	"fmt"
	"sort"
)

// Runner executes one experiment.
type Runner func(Opts) *Result

// Gate is a condition on one named metric of a result: Metric Op
// Threshold, with Op one of ">", ">=", "<=", "==".
type Gate struct {
	Metric    string  `json:"metric"`
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
}

// Verdict is one evaluated gate.
type Verdict struct {
	Gate
	Value float64 `json:"value"`
	OK    bool    `json:"ok"`
	// missing marks a gate whose metric the result does not carry.
	missing bool
}

func (v Verdict) String() string {
	switch {
	case v.missing:
		return fmt.Sprintf("gate FAIL  %s %s %g: metric not reported", v.Metric, v.Op, v.Threshold)
	case !v.OK:
		return fmt.Sprintf("gate FAIL  %s = %g, want %s %g", v.Metric, v.Value, v.Op, v.Threshold)
	}
	return fmt.Sprintf("gate ok    %s = %g %s %g", v.Metric, v.Value, v.Op, v.Threshold)
}

// Check evaluates gates against r's metrics. A gate whose metric r does
// not carry, or whose op is unknown, fails.
func (r *Result) Check(gates []Gate) []Verdict {
	out := make([]Verdict, 0, len(gates))
	for _, g := range gates {
		v := Verdict{Gate: g, missing: true}
		for _, m := range r.Metrics {
			if m.Name == g.Metric {
				v.Value, v.missing = m.Value, false
				break
			}
		}
		if !v.missing {
			switch g.Op {
			case ">":
				v.OK = v.Value > g.Threshold
			case ">=":
				v.OK = v.Value >= g.Threshold
			case "<=":
				v.OK = v.Value <= g.Threshold
			case "==":
				v.OK = v.Value == g.Threshold
			}
		}
		out = append(out, v)
	}
	return out
}

// experiment is one registry entry.
type experiment struct {
	ID    string
	Run   Runner
	Gates []Gate
}

// registry lists every reproduced artifact, then the experiments beyond
// the paper: transport batching, fault-injection robustness, the
// pipelined read path end to end and at transport level, latency-budget
// liveness and the remote third tier. Gates are what CI enforces on a
// -quick run.
var registry = []experiment{
	{ID: "fig5", Run: Fig5},
	{ID: "fig6", Run: Fig6},
	{ID: "fig7", Run: Fig7},
	{ID: "table1", Run: Table1},
	{ID: "fig9", Run: Fig9},
	{ID: "fig10", Run: Fig10},
	{ID: "table2", Run: Table2},
	{ID: "table3", Run: Table3},
	{ID: "fig11", Run: Fig11},
	{ID: "fig12", Run: Fig12},
	{ID: "table4", Run: Table4},
	{ID: "fig13", Run: Fig13},
	{ID: "fig14", Run: Fig14},

	{ID: "transport", Run: TransportExp},
	{ID: "faults", Run: FaultsExp},
	{ID: "readpath", Run: ReadPathExp, Gates: []Gate{
		{"pipeline_speedup_8g", ">=", 1.5},
	}},
	{ID: "readpath-transport", Run: ReadPathTransportExp, Gates: []Gate{
		{"async_improvement", ">=", 2.0},
	}},
	{ID: "liveness", Run: LivenessExp, Gates: livenessGates()},
	{ID: "tier", Run: TierExp, Gates: []Gate{
		{"hit_gain_points", ">", 0},
		{"remote-on.demoted", ">", 0},
	}},
}

// find returns id's registry entry, or nil.
func find(id string) *experiment {
	for i := range registry {
		if registry[i].ID == id {
			return &registry[i]
		}
	}
	return nil
}

// Lookup finds an experiment's runner by id.
func Lookup(id string) (Runner, bool) {
	if e := find(id); e != nil {
		return e.Run, true
	}
	return nil, false
}

// Gates returns the gates registered for id.
func Gates(id string) []Gate {
	if e := find(id); e != nil {
		return e.Gates
	}
	return nil
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}
