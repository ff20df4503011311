package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerBufferReuse enforces the documented non-reentrancy contract of
// ta's successor generation and key encoding: Network.Successors,
// SuccCtx.Successors, and State.AppendKey return slices whose backing
// memory is recycled by the next call on the same value. A caller that
// recycles a buffer (passes a reused lvalue, typically buf[:0]) must not
// retain the returned slice, a subslice, or an element past that next
// call.
//
// The analyzer applies two rules to calls whose buffer argument is a
// reused lvalue (a fresh make/nil/literal buffer is exempt — nothing is
// recycled then):
//
//  1. aliasing: the result must be assigned back to the same lvalue that
//     was passed in (buf = x.Successors(s, buf[:0])), not to a second
//     variable that would silently alias the scratch buffer;
//  2. retention: the result variable (or an element/subslice of it) must
//     not escape the function — no returns, no stores into fields,
//     globals, maps, or other slices, no channel sends, no closure
//     captures — unless the escaping expression is an explicit copy
//     (State.Clone, string(...), or append onto a different slice of the
//     raw bytes is still flagged: copy first).
var AnalyzerBufferReuse = &Analyzer{
	Name: "buffer-reuse",
	Doc:  "results of ta.Successors/AppendKey with a recycled buffer must not be retained or aliased",
	Run:  eachFuncBody(checkBufReuseFunc),
}

// taPkgPath is the package whose buffer-reuse contract is enforced.
const taPkgPath = "repro/internal/ta"

// isBufReuseTarget reports whether the call is one of the contract
// methods, returning which.
func isBufReuseTarget(info *types.Info, call *ast.CallExpr) (name string, ok bool) {
	obj := calleeObj(info, call)
	if obj == nil {
		return "", false
	}
	switch {
	case isMethod(obj, taPkgPath, "Network", "Successors"),
		isMethod(obj, taPkgPath, "SuccCtx", "Successors"):
		return "Successors", true
	case isMethod(obj, taPkgPath, "State", "AppendKey"):
		return "AppendKey", true
	}
	return "", false
}

// reusedBufferBase returns the base object of the call's buffer argument
// when that argument recycles an existing buffer (identifier or field,
// possibly resliced); nil for fresh buffers (nil, make, literals), which
// are exempt from the contract.
func reusedBufferBase(info *types.Info, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	arg := ast.Unparen(call.Args[len(call.Args)-1])
	for {
		if sl, ok := arg.(*ast.SliceExpr); ok {
			arg = ast.Unparen(sl.X)
			continue
		}
		break
	}
	switch arg.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		// Only variables can recycle a buffer; `nil` (and any other
		// non-variable identifier) passes a fresh one.
		if v, ok := baseObject(info, arg.(ast.Expr)).(*types.Var); ok {
			return v
		}
	}
	return nil
}

// checkBufReuseFunc applies both rules within one function body.
func checkBufReuseFunc(p *Pass, info *types.Info, body *ast.BlockStmt) {
	// Pass 1: find contract calls with recycled buffers and the variables
	// their results land in.
	resultVars := map[types.Object]string{} // result var -> target name
	ast.Inspect(body, func(n ast.Node) bool {
		if _, nested := n.(*ast.FuncLit); nested {
			return false // checked with its own body
		}
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := isBufReuseTarget(info, call)
		if !ok {
			return true
		}
		bufBase := reusedBufferBase(info, call)
		if bufBase == nil {
			return true // fresh buffer: nothing recycled, nothing to enforce
		}
		if len(st.Lhs) != 1 {
			return true
		}
		dst := baseObject(info, st.Lhs[0])
		if dst == nil {
			return true
		}
		if dst != bufBase {
			p.Reportf(st.Pos(), nil, "result of %s aliases recycled buffer %q; assign back to %q (buf = ...Successors(s, buf[:0])) or pass a fresh buffer", name, bufBase.Name(), bufBase.Name())
			return true
		}
		resultVars[dst] = name
		return true
	})
	// Standalone contract calls whose result is discarded are fine (the
	// buffer stays owned by its lvalue); calls used as a larger
	// expression operand retain nothing by themselves.
	if len(resultVars) == 0 {
		return
	}
	// Pass 2: hunt retention sinks for the recycled result variables.
	checkRetention(p, info, body, resultVars)
}

// checkRetention flags expressions that let a recycled buffer (or its
// elements) outlive the next contract call.
func checkRetention(p *Pass, info *types.Info, body *ast.BlockStmt, vars map[types.Object]string) {
	usesVar := func(e ast.Expr) (types.Object, bool) {
		// The raw variable, an index/subslice of it, or its address.
		inner := ast.Unparen(e)
		if u, ok := inner.(*ast.UnaryExpr); ok {
			inner = ast.Unparen(u.X)
		}
		obj := baseObject(info, inner)
		if obj == nil {
			return nil, false
		}
		_, tracked := vars[obj]
		return obj, tracked
	}
	isCopy := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		// string(key) copies the bytes out of the arena.
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.String {
				return true
			}
			return false
		}
		// state.Clone() deep-copies the target configuration.
		if obj := calleeObj(info, call); obj != nil && obj.Name() == "Clone" {
			return true
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			// A closure capturing the recycled buffer can run after any
			// number of further contract calls.
			for obj, name := range vars {
				if mentionsObject(info, st, obj) {
					p.Reportf(st.Pos(), nil, "closure captures %q, the recycled %s buffer; copy what it needs first", obj.Name(), name)
				}
			}
			return false
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if isCopy(res) {
					continue
				}
				if obj, ok := usesVar(res); ok {
					p.Reportf(res.Pos(), nil, "returning %q leaks the recycled %s buffer to the caller; copy it (or its elements) first", obj.Name(), vars[obj])
				}
			}
		case *ast.SendStmt:
			if isCopy(st.Value) {
				return true
			}
			if obj, ok := usesVar(st.Value); ok {
				p.Reportf(st.Value.Pos(), nil, "sending %q on a channel retains the recycled %s buffer; copy it first", obj.Name(), vars[obj])
			}
		case *ast.AssignStmt:
			checkRetainingAssign(p, info, st, vars, usesVar, isCopy)
		}
		return true
	})
}

// checkRetainingAssign flags assignments that store a recycled buffer
// (or a piece of it) into something that outlives the next call: struct
// fields, globals, map/slice elements, dereferenced pointers, or other
// slices via append.
func checkRetainingAssign(p *Pass, info *types.Info, st *ast.AssignStmt, vars map[types.Object]string,
	usesVar func(ast.Expr) (types.Object, bool), isCopy func(ast.Expr) bool) {
	for i, rhs := range st.Rhs {
		if i >= len(st.Lhs) {
			break
		}
		// append(other, v...) or append(other, v[i]) grafts the scratch
		// memory (or Transition values aliasing it) into another slice.
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
			dst := baseObject(info, st.Lhs[i])
			for _, arg := range call.Args[1:] {
				if isCopy(arg) {
					continue
				}
				if obj, ok := usesVar(arg); ok && obj != dst {
					p.Reportf(arg.Pos(), nil, "appending %q into another slice retains the recycled %s buffer; copy the element first", obj.Name(), vars[obj])
				}
			}
			continue
		}
		if isCopy(rhs) {
			continue
		}
		obj, ok := usesVar(rhs)
		if !ok {
			continue
		}
		if baseObject(info, st.Lhs[i]) == obj {
			continue // self-assignment (truncation/reslice) retains nothing new
		}
		// Reassigning the contract call's own result is pass 1's concern;
		// here flag stores into longer-lived places.
		switch lhs := ast.Unparen(st.Lhs[i]).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			p.Reportf(st.Pos(), nil, "storing %q into %s retains the recycled %s buffer past the next call; copy it first", obj.Name(), lvalueKind(lhs), vars[obj])
		}
	}
}

func lvalueKind(e ast.Expr) string {
	switch e.(type) {
	case *ast.SelectorExpr:
		return "a struct field"
	case *ast.IndexExpr:
		return "a map/slice element"
	case *ast.StarExpr:
		return "a pointer target"
	default:
		return "a longer-lived location"
	}
}
