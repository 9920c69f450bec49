// Package maporder flags map iteration whose order can leak into
// output.
//
// Go randomizes map iteration order per run. A `range` over a map is
// fine for order-independent work (sums, copies, membership) but
// corrupts the harness's byte-identical-output contract the moment the
// body writes anywhere a reader can see — a fmt.Fprintf into a result
// table, a csv/json encoder, a slice that is returned unsorted. The
// classic repair is collect-sort-emit:
//
//	keys := make([]string, 0, len(m))
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)
//	for _, k := range keys { fmt.Fprintf(w, ...) }
//
// The analyzer reports a map range when (a) its body calls an output
// sink directly, (b) its body returns a non-constant value — the first
// match, or the first error, which depends on the iteration order — or
// (c) its body appends to a slice that the enclosing function returns
// without ever passing it to a sort/slices call. Each range is reported
// at most once. Order-independent iteration (like netsim's Totals
// summation, or an early "return false") is not flagged.
package maporder

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer flags nondeterministic map iteration reaching output.
// Suppress a deliberate case with "//lint:allow maporder".
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map whose body reaches an output sink " +
		"(fmt.Fprint*, Write*/Encode methods, append to a returned slice) " +
		"without an intervening sort, or returns a non-constant value: " +
		"map order is randomized per run and would break byte-identical " +
		"sweep output",
	Run: run,
}

// sinkMethods are method names that commit bytes to an output stream:
// io.Writer/strings.Builder writes, csv.Writer.Write/WriteAll,
// json.Encoder.Encode, stats.Table.AddRow.
var sinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "WriteAll": true, "Encode": true, "AddRow": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypesInfo.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); !ok {
					return true
				}
				checkMapRange(pass, fd, rs)
				return true
			})
		}
	}
	return nil, nil
}

func checkMapRange(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	var appended []*types.Var
	seen := make(map[*types.Var]bool)
	sink := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.Callee(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "fmt" &&
			(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
			sink = true
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sinkMethods[sel.Sel.Name] {
			sink = true
			return true
		}
		// append(x, ...): remember x for the sorted/returned check.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				if target, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Uses[target].(*types.Var); ok && !seen[v] {
						seen[v] = true
						appended = append(appended, v)
					}
				}
			}
		}
		return true
	})
	if sink {
		pass.Reportf(rs.Pos(),
			"map iteration order is randomized per run; collect and sort the keys before writing output")
		return
	}
	if returnsNonConstant(pass, rs.Body) {
		pass.Reportf(rs.Pos(),
			"map iteration order is randomized per run; a value returned from inside the loop depends on which key came first")
		return
	}
	for _, v := range appended {
		if usesVarInSortCall(pass, fd, v) {
			continue
		}
		if returnsVar(pass, fd, v) {
			pass.Reportf(rs.Pos(),
				"slice %q is built from unsorted map iteration and returned; sort it (or the keys) first",
				v.Name())
		}
	}
}

// returnsNonConstant reports whether body (outside any function
// literal) returns a value that is not a constant or nil: the first
// match of a map range, which differs from run to run.
func returnsNonConstant(pass *analysis.Pass, body *ast.BlockStmt) (found bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, res := range ret.Results {
				tv := pass.TypesInfo.Types[res]
				found = found || (tv.Value == nil && !tv.IsNil())
			}
		}
		_, lit := n.(*ast.FuncLit)
		return !found && !lit
	})
	return found
}

// usesVarInSortCall reports whether fd passes v (anywhere in an
// argument expression) to a function from package sort or slices.
func usesVarInSortCall(pass *analysis.Pass, fd *ast.FuncDecl, v *types.Var) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// returnsVar reports whether fd returns v directly in any return
// statement.
func returnsVar(pass *analysis.Pass, fd *ast.FuncDecl, v *types.Var) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || found {
			return !found
		}
		for _, res := range ret.Results {
			if id, ok := ast.Unparen(res).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
				found = true
			}
		}
		return !found
	})
	return found
}
