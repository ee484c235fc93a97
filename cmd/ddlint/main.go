// Command ddlint is the project's static-analysis multichecker: eight
// analyzers that enforce, mechanically, the invariants the DoubleDecker
// cache store's correctness rests on.
//
//	lockcheck    *Locked / ddlint:requires-lock functions are only called
//	             with the documented mutex held; ddlint:guarded-by fields
//	             are never touched without it
//	lockorder    the interprocedural mutex-acquisition graph is acyclic
//	             and respects the declared ddlint:lock-order hierarchy
//	             (configMu → eviction tokens → vm locks → leaf locks)
//	errflow      error results from the blockdev/store/hypercall/fault
//	             layers are consumed or waived (ddlint:err-ok) — faults
//	             degrade to drops or misses, never vanish
//	immutcheck   ddlint:immutable-after-publish snapshots (the epoch
//	             family) are only written inside their constructors
//	handlecheck  ddlint:linear handles (PendingGet/PendingRead) reach a
//	             consuming call or a handoff on every path
//	opswitch     switches over ddlint:exhaustive enums (cleancache.OpCode,
//	             cgroup.StoreType) cover every value or carry an explicit
//	             ddlint:nonexhaustive waiver
//	atomiccheck  fields touched via sync/atomic are never also accessed
//	             with plain loads/stores; atomic.* values are not copied
//	clockcheck   time.Now/time.Since and timer constructors are banned
//	             outside cmd/, _test.go, internal/sim and files marked
//	             ddlint:allow-wallclock — simulations stay replayable
//
// Usage:
//
//	go run ./cmd/ddlint [-only lockcheck,clockcheck] [-json out.json] [-sarif out.sarif] [packages]
//
// Packages follow go-style patterns (default ./...). Text diagnostics
// always go to stdout; -json and -sarif additionally write the run to
// machine-readable files ("-" for stdout) for CI annotation upload. The
// exit status is 0 when the tree is clean, 1 when diagnostics were
// reported, 2 on load or usage errors. See DESIGN.md §8 for the
// annotation grammar.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"doubledecker/internal/lint"
	"doubledecker/internal/lint/atomiccheck"
	"doubledecker/internal/lint/clockcheck"
	"doubledecker/internal/lint/errflow"
	"doubledecker/internal/lint/handlecheck"
	"doubledecker/internal/lint/immutcheck"
	"doubledecker/internal/lint/lockcheck"
	"doubledecker/internal/lint/lockorder"
	"doubledecker/internal/lint/opswitch"
)

// analyzers is the full ddlint suite, in diagnostic-name order.
var analyzers = []*lint.Analyzer{
	atomiccheck.Analyzer,
	clockcheck.Analyzer,
	errflow.Analyzer,
	handlecheck.Analyzer,
	immutcheck.Analyzer,
	lockcheck.Analyzer,
	lockorder.Analyzer,
	opswitch.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ddlint", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	list := fs.Bool("list", false, "list analyzers and exit")
	jsonOut := fs.String("json", "", "also write findings as JSON to this file (\"-\" for stdout)")
	sarifOut := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddlint:", err)
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddlint:", err)
		return 2
	}
	res, err := lint.Collect(cwd, selected, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddlint:", err)
		return 2
	}
	res.WriteText(os.Stdout)
	if err := writeOutput(*jsonOut, res.WriteJSON); err != nil {
		fmt.Fprintln(os.Stderr, "ddlint:", err)
		return 2
	}
	if err := writeOutput(*sarifOut, res.WriteSARIF); err != nil {
		fmt.Fprintln(os.Stderr, "ddlint:", err)
		return 2
	}
	if n := len(res.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "ddlint: %d finding(s)\n", n)
		return 1
	}
	return 0
}

// writeOutput writes one machine-readable rendering to dest ("" skips,
// "-" is stdout).
func writeOutput(dest string, write func(io.Writer) error) error {
	if dest == "" {
		return nil
	}
	if dest == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	byName := make(map[string]*lint.Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
