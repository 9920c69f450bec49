// Package lint is nfslint's multichecker: it runs the analyzers over
// loaded packages, applies //lint:allow suppression, and performs the
// two whole-program checks a per-package analyzer cannot see
// (seededrand salt uniqueness and unusedexport).
//
// The analyzers codify the invariants DESIGN.md §11 documents:
//
//	walltime      virtual time only — no time.Now/Sleep/..., no os.Getenv
//	seededrand    every rng derives from sim.Seed() with a repo-unique salt
//	maporder      map iteration order must never reach output
//	keyfmt        no default %v/%g floats in Scenario.Key or CSV emitters
//	unusedexport  every export is used by some non-test file
//
// A diagnostic is suppressed by a comment "//lint:allow <name> [why]"
// on the same line or the line directly above; "//lint:allow all"
// suppresses every analyzer there. Suppressions are for genuinely
// deliberate exceptions and should say why.
package lint

import (
	"fmt"
	"go/token"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/keyfmt"
	"repro/internal/lint/loader"
	"repro/internal/lint/maporder"
	"repro/internal/lint/seededrand"
	"repro/internal/lint/unusedexport"
	"repro/internal/lint/walltime"
)

// Analyzers returns the full determinism suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		walltime.Analyzer,
		seededrand.Analyzer,
		maporder.Analyzer,
		keyfmt.Analyzer,
		unusedexport.Analyzer,
	}
}

// Diagnostic is one resolved finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Check runs the given analyzers (default: all) over pkgs in order,
// filters suppressed findings, and appends the two whole-program
// checks: repo-wide salt uniqueness and, when unusedexport runs, the
// exports of pkgs that no non-test file of pkgs or consumers uses.
// Consumers only contribute references; they are not checked. All of
// pkgs must share one token.FileSet (as loader.Load guarantees).
func Check(pkgs, consumers []*loader.Package, analyzers ...*analysis.Analyzer) ([]Diagnostic, error) {
	if len(analyzers) == 0 {
		analyzers = Analyzers()
	}
	var out []Diagnostic
	allow := make(map[string]map[int]map[string]bool)
	saltFirst := make(map[int64]token.Position)
	var checked []*unusedexport.Summary
	for _, pkg := range pkgs {
		allowedLines(pkg, allow)
		for _, a := range analyzers {
			var diags []analysis.Diagnostic
			res, err := a.Run(newPass(pkg, a, &diags))
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
			}
			switch res := res.(type) {
			case []seededrand.SaltUse:
				crossCheckSalts(pkg, res, saltFirst, allow, &out)
			case *unusedexport.Summary:
				checked = append(checked, res)
			}
			out = appendAllowed(out, pkg.Fset, a.Name, diags, allow)
		}
	}
	if len(checked) > 0 {
		all := checked
		for _, pkg := range consumers {
			res, _ := unusedexport.Analyzer.Run(newPass(pkg, unusedexport.Analyzer, nil)) // a summary never fails
			all = append(all, res.(*unusedexport.Summary))
		}
		out = appendAllowed(out, pkgs[0].Fset, unusedexport.Analyzer.Name, unusedexport.Unused(checked, all), allow)
	}
	return out, nil
}

func newPass(pkg *loader.Package, a *analysis.Analyzer, diags *[]analysis.Diagnostic) *analysis.Pass {
	return &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Syntax,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Report:    func(d analysis.Diagnostic) { *diags = append(*diags, d) },
	}
}

// appendAllowed resolves diags and appends the ones no //lint:allow
// comment suppresses.
func appendAllowed(out []Diagnostic, fset *token.FileSet, analyzer string, diags []analysis.Diagnostic, allow map[string]map[int]map[string]bool) []Diagnostic {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !allowed(allow, analyzer, pos) {
			out = append(out, Diagnostic{Analyzer: analyzer, Pos: pos, Message: d.Message})
		}
	}
	return out
}

// crossCheckSalts reports salts already claimed by an earlier package.
// In-package duplicates are seededrand's own job; this catches the
// cross-package collisions a modular analyzer cannot see.
func crossCheckSalts(pkg *loader.Package, salts []seededrand.SaltUse, first map[int64]token.Position, allow map[string]map[int]map[string]bool, out *[]Diagnostic) {
	for _, s := range salts {
		pos := pkg.Fset.Position(s.Pos)
		if prev, ok := first[s.Value]; ok {
			if allowed(allow, "seededrand", pos) {
				continue
			}
			*out = append(*out, Diagnostic{
				Analyzer: "seededrand",
				Pos:      pos,
				Message: fmt.Sprintf("salt %#x reused (first used at %s); derivation salts must be unique repo-wide so streams never collide",
					s.Value, prev),
			})
			continue
		}
		first[s.Value] = pos
	}
}

// allowedLines adds to out, as file -> line -> analyzer names, the
// suppressions of pkg's //lint:allow comments. A comment suppresses its
// own line (trailing form) and the next line (preceding form).
func allowedLines(pkg *loader.Package, out map[string]map[int]map[string]bool) {
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "lint:allow ") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:allow "))
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				names := out[pos.Filename]
				if names == nil {
					names = make(map[int]map[string]bool)
					out[pos.Filename] = names
				}
				set := names[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					names[pos.Line] = set
				}
				// First field is the analyzer name; the rest is the reason.
				set[fields[0]] = true
			}
		}
	}
}

func allowed(allow map[string]map[int]map[string]bool, analyzer string, pos token.Position) bool {
	lines := allow[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if set := lines[line]; set != nil && (set[analyzer] || set["all"]) {
			return true
		}
	}
	return false
}
