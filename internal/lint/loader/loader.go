// Package loader turns Go package patterns into type-checked syntax
// trees without depending on golang.org/x/tools/go/packages. It shells
// out to `go list -export -deps -json`, which compiles every dependency
// into the build cache and reports the path of each package's export
// data; target packages are then parsed from source and type-checked
// against that export data with the standard go/importer.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	goimporter "go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one type-checked target package. Every Package returned by
// a single Load call shares one *token.FileSet, so positions (and the
// driver's cross-package diagnostics) are comparable.
type Package struct {
	ImportPath string
	Dir        string
	GoFiles    []string // absolute paths, non-test files only
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	ImportMap  map[string]string
}

func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, errb.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", args, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

const listFields = "-json=ImportPath,Dir,Export,Standard,GoFiles,ImportMap"

// Load resolves patterns (relative to dir) to packages, compiles their
// dependencies' export data, and returns the matched packages parsed
// and type-checked from source, in `go list` order. It also returns the
// consumers whose references a whole-program check counts: the other
// packages of dir's main module and the packages of every module nested
// under dir. Directories named testdata or starting with "." or "_"
// below dir are not searched for nested modules, as `./...` skips them.
func Load(dir string, patterns ...string) (pkgs, consumers []*Package, err error) {
	if pkgs, err = load(dir, nil, patterns...); err != nil {
		return nil, nil, err
	}
	skip := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		skip[p.ImportPath] = true
	}
	mod, err := goList(dir, "-m", "-json=Dir")
	if err != nil {
		return nil, nil, err
	}
	roots := []string{mod[0].Dir}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, nil, err
	}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch name := d.Name(); {
		case d.IsDir() && path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")):
			return filepath.SkipDir
		case name == "go.mod" && filepath.Dir(path) != roots[0]:
			roots = append(roots, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, r := range roots {
		more, err := load(r, skip, "./...")
		if err != nil {
			return nil, nil, err
		}
		consumers = append(consumers, more...)
	}
	return pkgs, consumers, nil
}

// load parses and type-checks the packages patterns match, leaving out
// the ones named in skip.
func load(dir string, skip map[string]bool, patterns ...string) ([]*Package, error) {
	targets, err := goList(dir, append([]string{listFields}, patterns...)...)
	if err != nil {
		return nil, err
	}
	deps, err := goList(dir, append([]string{"-export", "-deps", listFields}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exportFile := make(map[string]string, len(deps))
	for _, p := range deps {
		if p.Export != "" {
			exportFile[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	imp := newImporter(fset, exportFile)
	out := make([]*Package, 0, len(targets))
	for _, t := range targets {
		if len(t.GoFiles) == 0 || skip[t.ImportPath] {
			continue
		}
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		imp.importMap = t.ImportMap
		pkg, err := typeCheck(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkg.Dir = t.Dir
		out = append(out, pkg)
	}
	return out, nil
}

// typeCheck parses goFiles and type-checks them as one package resolving
// imports through imp.
func typeCheck(fset *token.FileSet, importPath string, goFiles []string, imp types.Importer) (*Package, error) {
	syntax := make([]*ast.File, 0, len(goFiles))
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, fset, syntax, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		ImportPath: importPath,
		GoFiles:    goFiles,
		Fset:       fset,
		Syntax:     syntax,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// importer resolves imports from gc export data files. importMap
// translates source-level import paths to canonical package paths (the
// vendoring and test-variant mapping `go list` reports); load swaps it
// between typeCheck calls that share the underlying cache.
type importer struct {
	importMap map[string]string
	base      types.ImporterFrom
}

// newImporter builds an importer reading export data from the files in
// exportFile (package path -> export data path).
func newImporter(fset *token.FileSet, exportFile map[string]string) *importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exportFile[path]
		if !ok {
			return nil, fmt.Errorf("loader: no export data for %q", path)
		}
		return os.Open(file)
	}
	return &importer{base: goimporter.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)}
}

// Import implements types.Importer.
func (im *importer) Import(path string) (*types.Package, error) {
	if mapped, ok := im.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return im.base.ImportFrom(path, "", 0)
}
