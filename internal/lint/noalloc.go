package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The //hbvet:noalloc annotation marks the steady-state hot paths whose
// allocation behaviour is pinned by sim/alloc_test.go and the checker
// benchmarks. The noalloc-closure check (closure.go) walks every annotated
// body, and every body reachable from one, for likely allocation sites:
//
//   - make and new calls;
//   - address-taken composite literals (&T{...}) and slice/map literals;
//   - closures (func literals), unless immediately invoked — a closure
//     that is stored or passed away generally escapes and allocates;
//   - append whose destination differs from its source slice (building a
//     fresh slice rather than growing a recycled one in place);
//   - implicit interface conversions of non-constant values at call
//     arguments, assignments, and returns (boxing allocates), which also
//     catches fmt.Errorf/Sprintf on hot paths;
//   - non-constant string concatenation.
//
// Warm-up branches and cold error paths inside such a function are
// expected to carry //lint:allow noalloc-closure suppressions with a
// justification: the annotation then documents exactly which lines may
// allocate and why.

// noallocDirective is the annotation marking a function's body
// allocation-free in steady state.
const noallocDirective = "//hbvet:noalloc"

// hasNoallocDirective reports whether the declaration carries the
// //hbvet:noalloc annotation.
func hasNoallocDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == noallocDirective {
			return true
		}
	}
	return false
}

// noallocViolation is one likely allocation site.
type noallocViolation struct {
	Pos     token.Pos
	Message string
}

// collectNoallocViolations walks fn's body for likely allocation sites and
// returns them in source order. where names the function in the messages:
// "noalloc function Step" for an annotated body, plain "function Step"
// for an unannotated one the closure reaches.
func collectNoallocViolations(info *types.Info, fn *ast.FuncDecl, where string) []noallocViolation {
	w := &noallocWalker{info: info, fn: fn, where: where}
	w.block(fn.Body)
	return w.out
}

// noallocWalker walks one function body tracking just enough context
// (immediate-call parents, enclosing assignment targets) to classify each
// node.
type noallocWalker struct {
	info  *types.Info
	fn    *ast.FuncDecl
	where string
	out   []noallocViolation
}

func (w *noallocWalker) report(pos token.Pos, format string, args ...any) {
	w.out = append(w.out, noallocViolation{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

func (w *noallocWalker) block(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			if !w.immediatelyInvoked(body, node) {
				w.report(node.Pos(), "closure in %s likely escapes and allocates", w.where)
			}
			return false // the closure body runs outside the annotated path
		case *ast.CallExpr:
			w.call(node)
		case *ast.UnaryExpr:
			if node.Op.String() == "&" {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					w.report(node.Pos(), "address-taken composite literal allocates in %s", w.where)
				}
			}
		case *ast.CompositeLit:
			t := w.info.TypeOf(node)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					w.report(node.Pos(), "%s literal allocates its backing store in %s", kindName(t), w.where)
				}
			}
		case *ast.AssignStmt:
			w.assign(node)
		case *ast.ReturnStmt:
			w.returnStmt(node)
		case *ast.BinaryExpr:
			if nt := w.info.TypeOf(node); nt != nil && node.Op.String() == "+" {
				if t, ok := nt.Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
					if tv, ok := w.info.Types[node]; !ok || tv.Value == nil {
						w.report(node.Pos(), "string concatenation allocates in %s", w.where)
					}
				}
			}
		}
		return true
	})
}

func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	default:
		return "composite"
	}
}

// immediatelyInvoked reports whether lit appears as the Fun of a call
// expression (func(){...}()).
func (w *noallocWalker) immediatelyInvoked(body *ast.BlockStmt, lit *ast.FuncLit) bool {
	invoked := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == lit {
			invoked = true
		}
		return !invoked
	})
	return invoked
}

func (w *noallocWalker) call(call *ast.CallExpr) {
	// Type conversions.
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			w.ifaceConv(call.Args[0], tv.Type, "conversion")
		}
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				w.report(call.Pos(), "make allocates in %s", w.where)
			case "new":
				w.report(call.Pos(), "new allocates in %s", w.where)
			case "panic":
				if len(call.Args) == 1 {
					w.ifaceConv(call.Args[0], nil, "panic argument")
				}
			}
			return
		}
	}
	// Ordinary calls: check each argument against the parameter type.
	sig, ok := w.info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		w.ifaceConv(arg, pt, "argument")
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		// The variadic slice itself is allocated per call.
		w.report(call.Pos(), "variadic call allocates its argument slice in %s", w.where)
	}
}

// ifaceConv flags expr when assigning it to target boxes a non-constant
// concrete value into an interface. A nil target means any-typed
// (panic).
func (w *noallocWalker) ifaceConv(expr ast.Expr, target types.Type, what string) {
	tv, ok := w.info.Types[expr]
	if !ok || tv.Value != nil || tv.IsNil() {
		return // constants and nil are interned or pointer-free
	}
	if target != nil && !types.IsInterface(target) {
		return
	}
	if tv.Type == nil || types.IsInterface(tv.Type) {
		return // interface-to-interface carries the existing box
	}
	// Small pointer-shaped values (pointers, channels, maps, funcs) fit
	// the interface data word without boxing.
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	}
	w.report(expr.Pos(), "interface %s boxes a %s and may allocate in %s", what, tv.Type.String(), w.where)
}

func (w *noallocWalker) assign(st *ast.AssignStmt) {
	for i, rhs := range st.Rhs {
		if i >= len(st.Lhs) {
			break
		}
		// append discipline: growing a recycled slice in place
		// (x = append(x, ...)) is amortised by the arena; any other
		// shape builds a fresh slice.
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(w.info, call) {
			dst := baseObject(w.info, st.Lhs[i])
			src := baseObject(w.info, call.Args[0])
			if dst == nil || src == nil || dst != src {
				w.report(call.Pos(), "append result lands in a different slice than its source in %s; grow the recycled buffer in place (x = append(x, ...))", w.where)
			}
			continue
		}
		// Implicit interface conversion on assignment.
		if lt := w.info.TypeOf(st.Lhs[i]); lt != nil && types.IsInterface(lt) {
			w.ifaceConv(rhs, lt, "assignment")
		}
	}
}

func (w *noallocWalker) returnStmt(st *ast.ReturnStmt) {
	if w.fn.Type.Results == nil || len(st.Results) == 0 {
		return
	}
	var resultTypes []types.Type
	for _, f := range w.fn.Type.Results.List {
		t := w.info.TypeOf(f.Type)
		n := max(1, len(f.Names))
		for k := 0; k < n; k++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(st.Results) != len(resultTypes) {
		return // multi-value call forwarding: conversions happen at the callee
	}
	for i, res := range st.Results {
		if types.IsInterface(resultTypes[i]) {
			w.ifaceConv(res, resultTypes[i], "return")
		}
	}
}
