// Package analysis is a self-contained stand-in for the subset of
// golang.org/x/tools/go/analysis that nfslint's analyzers use. The repo
// deliberately has no module dependencies (every build must work from a
// bare Go toolchain, offline), so rather than vendoring x/tools this
// package re-declares the three types an analyzer touches — Analyzer,
// Pass, Diagnostic — with field-compatible shapes. Migrating an analyzer
// to the real x/tools API is a one-line import change; the driver in
// internal/lint and cmd/nfslint plays the role of multichecker.
//
// Facts, Requires-ordering, and SuggestedFixes are not implemented:
// nfslint's analyzers are independent and repo-wide state (the
// seededrand salt registry, the unusedexport summaries) is aggregated by
// lint.Check from analyzer results instead of exported facts.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one named check. Run inspects a single package and
// reports diagnostics through the Pass; its result value (may be nil) is
// collected by the driver for cross-package checks.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//lint:allow <name>" suppression comments.
	Name string
	// Doc is the one-paragraph description shown by nfslint -help:
	// the invariant, why it exists, and how to suppress it.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) (any, error)
}

// Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding, positioned in Pass.Fset.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Callee resolves the static *types.Func a call expression invokes
// (package function or method), or nil for calls through function
// values, builtins, and type conversions. Stands in for
// x/tools/go/types/typeutil.Callee.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsTestFile reports whether the file node comes from a _test.go file.
// The determinism invariants bind simulation and output paths, not
// tests, which are free to use wall time and ad-hoc randomness.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}
