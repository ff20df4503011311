package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerSyncDiscipline enforces the access discipline of memory shared
// across goroutines: a location accessed through sync/atomic anywhere in
// its package must be accessed through sync/atomic everywhere in it. Mixing an atomic.AddInt64 on one path
// with a plain read or a mutex-guarded write on another is a data race
// the race detector only catches when both paths happen to run — the
// analyzer catches it statically.
//
// Tracked locations are struct fields and package-level variables whose
// address is passed to a sync/atomic function — directly (&c.hits) or
// through an element (&a.ring[i], as the adaptive estimator's shared
// window does). Element-atomic locations flag plain element accesses
// only: len, range and slice-header assignments touch the header, not
// the shared cells. Fields of the typed atomic.* wrappers enforce their
// own discipline and need no analysis. Initialisation before the
// location is shared is legitimately non-atomic; such sites carry a
// //lint:allow sync-discipline suppression naming why publication is
// safe.
var AnalyzerSyncDiscipline = &Analyzer{
	Name: "sync-discipline",
	Doc:  "locations accessed via sync/atomic must be accessed via sync/atomic everywhere",
	Run: func(p *Pass) {
		for _, pkg := range p.Prog.Pkgs {
			checkSyncDiscipline(p, pkg)
		}
	},
}

func checkSyncDiscipline(p *Pass, pkg *Package) {
	// Pass 1: collect locations whose address flows into sync/atomic.
	// atomicLocs hold locations passed whole (&c.hits); atomicElems hold
	// containers passed by element (&a.ring[i]), whose discipline covers
	// the elements but not the container header.
	atomicLocs := map[types.Object]bool{}
	atomicElems := map[types.Object]bool{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pkg.Info, call) {
				return true
			}
			for _, arg := range call.Args {
				u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || u.Op.String() != "&" {
					continue
				}
				if ix, ok := ast.Unparen(u.X).(*ast.IndexExpr); ok {
					if obj := addressableLoc(pkg.Info, ix.X); obj != nil {
						atomicElems[obj] = true
					}
					continue
				}
				if obj := addressableLoc(pkg.Info, u.X); obj != nil {
					atomicLocs[obj] = true
				}
			}
			return true
		})
	}
	if len(atomicLocs) == 0 && len(atomicElems) == 0 {
		return
	}
	// Composite-literal keys (Counter{hits: 0}) are construction, not
	// shared access; collect them so pass 2 can skip them.
	litKeys := map[*ast.Ident]bool{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						litKeys[id] = true
					}
				}
			}
			return true
		})
	}
	// Pass 2: flag every plain (non-atomic) access to those locations —
	// any mention of a whole-location one, element accesses of an
	// element-atomic one.
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isAtomicCall(pkg.Info, n) {
					return false // accesses inside the atomic call are the point
				}
			case *ast.IndexExpr:
				obj := addressableLoc(pkg.Info, n.X)
				if obj == nil || !atomicElems[obj] {
					return true
				}
				p.Reportf(n.Pos(), nil, "elements of %q are accessed via sync/atomic elsewhere; this plain element access races with it (use atomic, or a //lint:allow sync-discipline with the publication argument)", obj.Name())
				return true
			case *ast.Ident:
				obj := pkg.Info.ObjectOf(n)
				if obj == nil || !atomicLocs[obj] || obj.Pos() == n.Pos() || litKeys[n] {
					return true
				}
				p.Reportf(n.Pos(), nil, "%q is accessed via sync/atomic elsewhere; this plain access races with it (use atomic, or a //lint:allow sync-discipline with the publication argument)", obj.Name())
				return true
			}
			return true
		})
	}
}

// isAtomicCall reports whether the call targets a sync/atomic function
// or a method of the typed atomic wrappers.
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObj(info, call)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// addressableLoc resolves expr to a tracked location object: a struct
// field (via selector) or a package-level variable. Locals are skipped —
// their sharing is established by explicit &x handoff the analyzer
// cannot trace soundly.
func addressableLoc(info *types.Info, expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
	case *ast.Ident:
		if v, ok := info.ObjectOf(e).(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v
		}
	}
	return nil
}
