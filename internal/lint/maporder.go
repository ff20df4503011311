package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerMapOrder flags range statements over maps whose body leaks the
// iteration order into observable output: appending to a slice declared
// outside the loop (without sorting it afterwards), writing to a stream,
// or sending on a channel. Go randomises map iteration, so any of these
// makes output differ run to run — the campaign-replay bug class PR 1
// hit at runtime (the supervisor polled nodes in map order, leaking the
// order into the jitter rng draw sequence).
//
// An append into an outer slice is accepted when the same slice is
// passed to a sort call (sort.* or slices.Sort*) after the loop, the
// established fix pattern.
var AnalyzerMapOrder = &Analyzer{
	Name: "map-order",
	Doc:  "map iteration order must not leak into slices, output streams, or channels",
	// Whole function bodies, so the post-loop context (for sort
	// detection) is available.
	Run: eachFuncBody(checkMapRanges),
}

// checkMapRanges finds map ranges directly inside fnBody (at any depth)
// and validates each; fnBody provides the scope searched for post-loop
// sort calls.
func checkMapRanges(p *Pass, info *types.Info, fnBody *ast.BlockStmt) {
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if _, nested := n.(*ast.FuncLit); nested {
			return false // visited separately with its own body scope
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(p, info, rng, fnBody)
		return true
	})
}

func checkMapRangeBody(p *Pass, info *types.Info, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SendStmt:
			p.Reportf(st.Pos(), nil, "channel send inside a map range leaks map iteration order")
		case *ast.CallExpr:
			if isOutputCall(info, st) {
				p.Reportf(st.Pos(), nil, "output write inside a map range leaks map iteration order")
			}
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(info, call) || i >= len(st.Lhs) {
					continue
				}
				dst := baseObject(info, st.Lhs[i])
				if dst == nil {
					continue
				}
				// Appends into a slice local to the loop body are fine:
				// the slice dies with the iteration.
				if dst.Pos() >= rng.Pos() && dst.Pos() <= rng.End() {
					continue
				}
				if sortedAfter(info, fnBody, rng.End(), dst) {
					continue
				}
				p.Reportf(st.Pos(), nil, "append to %q inside a map range records map iteration order; sort it after the loop (or iterate sorted keys)", dst.Name())
			}
		}
		return true
	})
}

// isOutputCall reports whether the call writes to a stream: fmt
// Print/Fprint functions or Write* methods.
func isOutputCall(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObj(info, call)
	if obj == nil {
		return false
	}
	name := obj.Name()
	if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		switch name {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			return true
		}
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return true
		}
	}
	return false
}

// isBuiltinAppend reports whether the call is the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// baseObject resolves the variable at the base of an lvalue chain
// (x, x.f, x[i], *x all resolve to x's object).
func baseObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(v)
		case *ast.SelectorExpr:
			// For field selectors use the field object itself so distinct
			// fields of one struct stay distinct.
			if sel, ok := info.Selections[v]; ok && sel.Kind() == types.FieldVal {
				return sel.Obj()
			}
			return info.ObjectOf(v.Sel)
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether a sort.* or slices.Sort* call mentioning
// obj appears within body after pos.
func sortedAfter(info *types.Info, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := calleeObj(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(info, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentionsObject reports whether expr references obj anywhere.
func mentionsObject(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}
