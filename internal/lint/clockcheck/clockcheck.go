// Package clockcheck bans wall-clock reads outside an explicit allowlist.
//
// Every simulated component — cache, policy, transport, experiments —
// must take time from the injected `now time.Duration` argument or the
// sim engine's Now(), never from the host clock; otherwise replays stop
// being deterministic. References to time.Now, time.Since and the timer
// constructors are therefore diagnostics except in:
//
//   - files under a cmd/ directory (CLI entry points report wall time),
//   - _test.go files (wall-clock benchmarks and the scaling test),
//   - package internal/sim (the clock source itself), and
//   - files marked // ddlint:allow-wallclock (a deliberate host-time
//     measurement, such as bench/'s host clock).
package clockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"doubledecker/internal/lint"
)

// banned are the time package functions that read or arm the host clock.
var banned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Analyzer is the clockcheck pass.
var Analyzer = &lint.Analyzer{
	Name: "clockcheck",
	Doc:  "ban time.Now/time.Since and timer constructors outside the wall-clock allowlist",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/sim") {
		return nil
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if allowedFile(name) || lint.FileHasMarker(f, "allow-wallclock") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || !banned[obj.Name()] {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			report(pass, sel.Pos(), fn.Name())
			return true
		})
	}
	return nil
}

func report(pass *lint.Pass, pos token.Pos, name string) {
	pass.Reportf(pos, "time.%s reads the wall clock in simulated-time code; "+
		"thread the injected `now time.Duration` / engine.Now(), or measure "+
		"wall time in a cmd/ entry point or a _test.go file", name)
}

// allowedFile reports whether the file is allowlisted by location. The
// cmd/ rule is evaluated relative to the innermost testdata tree: a
// fixture's own cmd/ directory is allowlisted (it stands in for a real
// entry point), but a fixture is not exempt merely because the testdata
// directory itself sits under some cmd/ package.
func allowedFile(name string) bool {
	if strings.HasSuffix(name, "_test.go") {
		return true
	}
	parts := strings.Split(strings.ReplaceAll(name, "\\", "/"), "/")
	start := 0
	for i, p := range parts {
		if p == "testdata" {
			start = i + 1
		}
	}
	for _, p := range parts[start:] {
		if p == "cmd" {
			return true
		}
	}
	return false
}
