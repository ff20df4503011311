package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Program is a set of loaded packages analyzed as one unit: the
// call-graph analyzers (noalloc-closure, determinism) need a
// module-wide call graph, not a per-package view. The loader memoizes
// packages in one shared FileSet and type-checks module-internal imports
// once, so *types.Func objects are canonical across every package in
// the program and can key the graph directly.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	// decls maps every function and method declared in the program to
	// its declaration and owning package; declList holds the same
	// functions in deterministic source order (packages sorted by path,
	// files and declarations in order) for analyzers that iterate.
	decls    map[*types.Func]*declInfo
	declList []*types.Func
	// calls holds the outgoing call edges per declared function, in
	// source order. Static calls are exact; interface calls are a
	// type-set approximation (one edge per implementing type declared in
	// the program); calls through function values have no edge — they
	// are recorded in dynCalls instead.
	calls map[*types.Func][]callEdge
	// dynCalls records call sites through function values (variables,
	// fields, parameters, call results) per declared function. The
	// callee set of such a call is statically unknown, so the closure
	// analyzers treat each site as an explicit finding rather than
	// guessing.
	dynCalls map[*types.Func][]token.Pos
	// funcRefs records, per declared function, uses of other functions
	// as *values* (f := time.Now; handlers[k] = c.step): the referenced
	// function can run wherever the value flows, so taint treats a
	// reference like a call.
	funcRefs map[*types.Func][]funcRef

	// named caches the named (non-interface) types declared in the
	// program for interface-call resolution.
	named []*types.Named
	// implCache memoizes interface-method resolution per interface
	// method object.
	implCache map[*types.Func][]*types.Func
}

// declInfo ties a declared function to its AST and package.
type declInfo struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// callEdge is one resolved call: caller → Callee at Pos. Iface marks
// edges added by the interface type-set approximation (possible, not
// certain, targets).
type callEdge struct {
	Callee *types.Func
	Pos    token.Pos
	Iface  bool
}

// funcRef is one use of a function as a value.
type funcRef struct {
	Func *types.Func
	Pos  token.Pos
}

// NewProgram indexes the packages and builds the call graph.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:      pkgs,
		decls:     map[*types.Func]*declInfo{},
		calls:     map[*types.Func][]callEdge{},
		dynCalls:  map[*types.Func][]token.Pos{},
		funcRefs:  map[*types.Func][]funcRef{},
		implCache: map[*types.Func][]*types.Func{},
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	prog.indexDecls()
	prog.indexNamedTypes()
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.addEdges(pkg, obj, fn)
			}
		}
	}
	return prog
}

func (prog *Program) indexDecls() {
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
					prog.decls[obj] = &declInfo{pkg: pkg, decl: fn}
					prog.declList = append(prog.declList, obj)
				}
			}
		}
	}
}

func (prog *Program) indexNamedTypes() {
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			if named.TypeParams().Len() > 0 {
				continue // uninstantiated generics have no concrete method set
			}
			prog.named = append(prog.named, named)
		}
	}
}

// addEdges walks one function body (including nested function literals,
// whose calls are attributed to the enclosing declaration: literals that
// escape are flagged by the intraprocedural noalloc check, and literals
// that run inline — immediately invoked or stored-and-fired on the same
// hot path — contribute their callees to the caller's closure).
func (prog *Program) addEdges(pkg *Package, caller *types.Func, fn *ast.FuncDecl) {
	// callIdents collects the identifiers naming each call's callee so
	// the reference pass below does not double-count them as value uses.
	callIdents := map[*ast.Ident]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callIdents[fun] = true
		case *ast.SelectorExpr:
			callIdents[fun.Sel] = true
		}
		prog.classifyCall(pkg, caller, call)
		return true
	})
	// Function-value references outside call position: f := time.Now,
	// handlers[k] = c.step, method values, conversions of func names.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || callIdents[id] {
			return true
		}
		if obj, ok := pkg.Info.Uses[id].(*types.Func); ok {
			prog.funcRefs[caller] = append(prog.funcRefs[caller], funcRef{Func: obj, Pos: id.Pos()})
		}
		return true
	})
}

// classifyCall resolves one call site into static edges, interface
// type-set edges, or a dynamic-call record.
func (prog *Program) classifyCall(pkg *Package, caller *types.Func, call *ast.CallExpr) {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Builtin, nil:
			return
		case *types.Func:
			prog.calls[caller] = append(prog.calls[caller], callEdge{Callee: obj.Origin(), Pos: call.Pos()})
			return
		default: // a variable or parameter of function type
			prog.dynCalls[caller] = append(prog.dynCalls[caller], call.Pos())
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr: // x.M(...) and T.M(x, ...)
				// Origin maps a method of an instantiated generic type
				// back to the declaration the program's decls are keyed by.
				callee := sel.Obj().(*types.Func).Origin()
				if types.IsInterface(sel.Recv()) {
					prog.addInterfaceEdges(caller, callee, call.Pos())
				} else {
					prog.calls[caller] = append(prog.calls[caller], callEdge{Callee: callee, Pos: call.Pos()})
				}
			case types.FieldVal: // calling a func-typed field
				prog.dynCalls[caller] = append(prog.dynCalls[caller], call.Pos())
			}
			return
		}
		// Package-qualified reference: pkg.Func or pkg.Var.
		switch obj := pkg.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			prog.calls[caller] = append(prog.calls[caller], callEdge{Callee: obj.Origin(), Pos: call.Pos()})
		case *types.Var:
			prog.dynCalls[caller] = append(prog.dynCalls[caller], call.Pos())
		}
		return
	case *ast.FuncLit:
		// Immediately invoked: its body is walked as part of the
		// enclosing declaration, so the inner calls are already edges.
		return
	default:
		// Call of a call result, an indexed element, etc.
		prog.dynCalls[caller] = append(prog.dynCalls[caller], call.Pos())
	}
}

// addInterfaceEdges approximates an interface-method call by its type
// set: one edge per named type declared in the program that implements
// the interface, targeting that type's concrete method. Stdlib
// implementers are invisible (their declarations are not loaded), so
// the approximation is exact for module-internal dispatch and silent on
// external implementations — the documented contract of the closure
// analyzers.
func (prog *Program) addInterfaceEdges(caller, ifaceMethod *types.Func, pos token.Pos) {
	impls, ok := prog.implCache[ifaceMethod]
	if !ok {
		iface, _ := ifaceMethod.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if iface != nil {
			for _, named := range prog.named {
				ptr := types.NewPointer(named)
				if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, ifaceMethod.Pkg(), ifaceMethod.Name())
				if m, ok := obj.(*types.Func); ok {
					impls = append(impls, m)
				}
			}
			sort.Slice(impls, func(i, j int) bool { return funcLabel(impls[i]) < funcLabel(impls[j]) })
		}
		prog.implCache[ifaceMethod] = impls
	}
	for _, m := range impls {
		prog.calls[caller] = append(prog.calls[caller], callEdge{Callee: m, Pos: pos, Iface: true})
	}
}

// funcLabel renders a function for chain reporting: "sim.Step",
// "sim.(*Simulator).Run", "fmt.Sprintf".
func funcLabel(f *types.Func) string {
	name := f.Name()
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Name() + "."
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + name
	}
	t := sig.Recv().Type()
	star := ""
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
		star = "*"
	}
	recv := "?"
	switch t := t.(type) {
	case *types.Named:
		recv = t.Obj().Name()
	case *types.Interface:
		recv = "interface"
	}
	if star != "" {
		return pkg + "(" + star + recv + ")." + name
	}
	return pkg + recv + "." + name
}
