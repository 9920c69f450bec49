// Package analysistest runs one analyzer over fixture packages under a
// testdata/src tree and checks its diagnostics against the fixtures'
// "// want" comments — the same convention as
// golang.org/x/tools/go/analysis/analysistest, reimplemented on
// internal/lint's own loader since the repo carries no module
// dependencies.
//
// A fixture line that should trigger a diagnostic carries a trailing
// comment with one or more quoted regular expressions:
//
//	for k := range m { // want `map iteration order is randomized`
//
// Each regexp must match exactly one diagnostic reported on that line,
// and every diagnostic must be claimed by a regexp. Fixtures must
// type-check (they run through the real loader), and //lint:allow
// suppression is honored, so a fixture can also prove an allow comment
// silences its analyzer.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// wantRe extracts the quoted regexps of a "// want" comment: Go string
// literals, double-quoted or backquoted.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// TestData returns the absolute path of the calling test's testdata
// directory (the go tool runs tests with the package directory as the
// working directory).
//
//lint:allow unusedexport test support: the analyzers' tests call it
func TestData(t *testing.T) string {
	t.Helper()
	p, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Run loads each named fixture package from testdata/src/<pkg>, runs
// the analyzer through the lint driver (so suppression and the
// whole-program checks apply, with the consumers nfslint would load
// from the fixture's directory), and matches diagnostics against the
// fixtures' want comments.
//
//lint:allow unusedexport test support: the analyzers' tests call it
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, name := range pkgs {
		dir := filepath.Join(testdata, "src", name)
		loaded, consumers, err := loader.Load(dir, ".")
		if err != nil {
			t.Errorf("%s: loading fixture: %v", name, err)
			continue
		}
		for _, pkg := range loaded {
			checkPackage(t, pkg, consumers, a)
		}
	}
}

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

func checkPackage(t *testing.T, pkg *loader.Package, consumers []*loader.Package, a *analysis.Analyzer) {
	t.Helper()
	diags, err := lint.Check([]*loader.Package{pkg}, consumers, a)
	if err != nil {
		t.Errorf("%s: %v", pkg.ImportPath, err)
		return
	}

	// file -> line -> pending expectations.
	wants := make(map[string]map[int][]*expectation)
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, lit := range wantRe.FindAllString(strings.TrimPrefix(text, "want "), -1) {
					pattern, err := strconv.Unquote(lit)
					if err != nil {
						t.Errorf("%s: bad want literal %s: %v", pos, lit, err)
						continue
					}
					rx, err := regexp.Compile(pattern)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pattern, err)
						continue
					}
					if wants[pos.Filename] == nil {
						wants[pos.Filename] = make(map[int][]*expectation)
					}
					wants[pos.Filename][pos.Line] = append(wants[pos.Filename][pos.Line], &expectation{rx: rx})
				}
			}
		}
	}

	for _, d := range diags {
		claimed := false
		for _, exp := range wants[d.Pos.Filename][d.Pos.Line] {
			if !exp.matched && exp.rx.MatchString(d.Message) {
				exp.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", d.Pos, d.Message, d.Analyzer)
		}
	}
	for file, lines := range wants {
		for line, exps := range lines {
			for _, exp := range exps {
				if !exp.matched {
					t.Errorf("%s:%d: no diagnostic matching %q", file, line, exp.rx)
				}
			}
		}
	}
}
