// Package unusedexport keeps the API to what production code uses.
//
// It reports every exported package-level func, type, const or var, and
// every exported method, of a checked non-main package that no non-test
// file references. References count from every loaded package: the
// checked ones and the consumers loader.Load returns besides them (the
// rest of the main module and every module nested under the working
// directory), so an export only bench/ uses stays. A use from a
// _test.go file does not count: an accessor only its own package's
// tests need belongs in export_test.go.
//
// A method is exempt when its type implements an interface that appears
// in the loaded packages' type information (anonymous ones included),
// or error or fmt.Stringer: such calls go through the interface, which
// no identifier reference shows.
//
// Analyzer's Run only summarises one package; lint.Check joins the
// summaries with Unused.
package unusedexport

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer summarises one package for the whole-program check. Suppress
// a deliberate exception with "//lint:allow unusedexport <why>".
var Analyzer = &analysis.Analyzer{
	Name: "unusedexport",
	Doc: "report exported identifiers no non-test file uses: delete them, " +
		"or move an accessor only its own package's tests need into " +
		"export_test.go; methods that implement an interface are exempt",
	Run: func(pass *analysis.Pass) (any, error) { return summarize(pass), nil },
}

// Summary is one package's share of the whole-program check.
type Summary struct {
	exports []export           // exported declarations, none for package main
	uses    map[string]bool    // keys non-test files reference
	ifaces  []*types.Interface // non-empty interfaces the type information mentions
}

type export struct {
	key  string
	pos  token.Pos
	recv *types.Named // the receiver's type, for a method
}

func summarize(pass *analysis.Pass) *Summary {
	s := &Summary{uses: make(map[string]bool)}
	inTest := func(pos token.Pos) bool {
		return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
	}
	// A method's receiver names its own type; that is no use of it.
	receivers := make(map[*ast.Ident]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range pass.TypesInfo.Uses {
		if k := key(obj); k != "" && !receivers[id] && !inTest(id.Pos()) {
			s.uses[k] = true
		}
	}
	seen := make(map[*types.Interface]bool)
	for _, tv := range pass.TypesInfo.Types {
		s.addInterfaces(tv.Type, seen)
	}
	if pass.Pkg.Name() == "main" {
		return s
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if inTest(obj.Pos()) {
			continue
		}
		if obj.Exported() {
			s.exports = append(s.exports, export{key: key(obj), pos: obj.Pos()})
		}
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			named, _ := tn.Type().(*types.Named)
			for m := range named.Methods() {
				if m.Exported() && !inTest(m.Pos()) {
					s.exports = append(s.exports, export{key: key(m), pos: m.Pos(), recv: named})
				}
			}
		}
	}
	return s
}

// addInterfaces records t if it is a non-empty interface, or the
// interfaces among its parameters and results if it is a signature, so
// a value handed over as an interface counts as used.
func (s *Summary) addInterfaces(t types.Type, seen map[*types.Interface]bool) {
	if sig, ok := t.(*types.Signature); ok {
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			for v := range tup.Variables() {
				s.addInterfaces(v.Type(), seen)
			}
		}
	} else if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
		seen[it] = true
		s.ifaces = append(s.ifaces, it)
	}
}

// key names a package-level object or a method by package path, type
// and name, so it compares equal across separately type-checked loads;
// "" for anything else (locals, fields, builtins).
func key(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		t := fn.Origin().Signature().Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return obj.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + obj.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// Unused joins the summaries of every loaded package and reports each
// export of checked that none of them references, in position order.
func Unused(checked, all []*Summary) []analysis.Diagnostic {
	uses := make(map[string]bool)
	var ifaces []*types.Interface
	for _, s := range all {
		for k := range s.uses {
			uses[k] = true
		}
		ifaces = append(ifaces, s.ifaces...)
	}
	var out []analysis.Diagnostic
	for _, s := range checked {
		for _, e := range s.exports {
			if !uses[e.key] && (e.recv == nil || !implementsAny(e.recv, e.key[strings.LastIndexByte(e.key, '.')+1:], ifaces)) {
				out = append(out, analysis.Diagnostic{Pos: e.pos, Message: e.key + " is exported but no non-test file uses it"})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// implementsAny reports whether named (or its pointer) implements error,
// fmt.Stringer or one of ifaces that has a method called method.
// Methods match by name and signature shape, since an interface may
// come from a separately type-checked load whose types are not
// identical to named's.
func implementsAny(named *types.Named, method string, ifaces []*types.Interface) bool {
	mset := types.NewMethodSet(types.NewPointer(named))
	if method == "Error" || method == "String" {
		if sel := mset.Lookup(nil, method); shape(sel.Obj().Type().(*types.Signature)) == "()(string,)" {
			return true
		}
	}
	for _, it := range ifaces {
		if implements(mset, it, method) {
			return true
		}
	}
	return false
}

// implements reports whether mset covers it, an interface with a method
// called method.
func implements(mset *types.MethodSet, it *types.Interface, method string) bool {
	named := false
	for m := range it.Methods() {
		sel := mset.Lookup(m.Pkg(), m.Name())
		if sel == nil || shape(sel.Obj().Type().(*types.Signature)) != shape(m.Signature()) {
			return false
		}
		named = named || m.Name() == method
	}
	return named
}

// shape renders a signature's parameter and result types without their
// names, which an implementation need not share with the interface.
func shape(sig *types.Signature) string {
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for v := range tup.Variables() {
			b.WriteString(types.TypeString(v.Type(), func(p *types.Package) string { return p.Path() }) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
