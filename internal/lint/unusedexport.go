package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// AnalyzerUnusedExport reports exported API that no command uses: an
// exported function or method that no main package under cmd/ or
// examples/ reaches, and an exported field of an exported *Config or
// *Options struct that no reached code writes. An option nobody sets is
// an option nobody uses.
//
// The roots are the main and init functions of those main packages and
// the package-level initialisers and init functions of every package
// they import, which run before main. bench/ is not a root and neither
// are tests, so an export that only they hold in place is a finding
// until it is deleted or carries a //lint:allow unused-export naming
// its reason. A function is reached through the Program call graph:
// static calls, function values (funcRefs) and interface type-set
// edges. A method that satisfies an interface of an imported
// standard-library package (fmt.Stringer, sort.Interface, error) counts
// as reached, since the library calls it where no edge can follow. A
// field is written by a composite-literal key, an assignment or an
// address-of (flag.IntVar(&cfg.F, ...)).
//
// The check needs a command to measure against: a load without a cmd/
// or examples/ main reports nothing, and its directives stay unjudged.
var AnalyzerUnusedExport = &Analyzer{
	Name: "unused-export",
	Doc:  "exported functions and *Config/*Options fields must be reached or written from a cmd/ or examples/ main",
	Run:  runUnusedExport,
}

func runUnusedExport(p *Pass) {
	prog := p.Prog
	var roots []*Package
	for _, pkg := range prog.Pkgs {
		if isCommand(pkg) {
			roots = append(roots, pkg)
		}
	}
	if len(roots) == 0 {
		p.inert = true
		return
	}

	u := &usage{reached: map[*types.Func]bool{}, written: map[*types.Var]bool{}}
	imported := importClosure(roots)
	for _, pkg := range prog.Pkgs {
		if !imported[pkg.Types] {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.Name == "init" && d.Recv == nil || d.Name.Name == "main" && isCommand(pkg) {
						u.reach(pkg.Info.Defs[d.Name].(*types.Func))
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						u.scan(pkg.Info, d, true)
					}
				}
			}
		}
	}
	for len(u.work) > 0 {
		f := u.work[len(u.work)-1]
		u.work = u.work[:len(u.work)-1]
		for _, e := range prog.calls[f] {
			u.reach(e.Callee)
		}
		for _, r := range prog.funcRefs[f] {
			u.reach(r.Func)
		}
		if d := prog.decls[f]; d != nil && d.decl.Body != nil {
			u.scan(d.pkg.Info, d.decl.Body, false)
		}
	}

	ifaces := stdInterfaces(prog)
	for _, f := range prog.declList {
		d := prog.decls[f]
		if !f.Exported() || d.pkg.Types.Name() == "main" || u.reached[f] || satisfiesStd(f, ifaces) {
			continue
		}
		p.Reportf(d.decl.Pos(), nil, "exported %s is reached from no cmd/ or examples/ main", funcLabel(f))
	}
	for _, pkg := range prog.Pkgs {
		if pkg.Types.Name() == "main" {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				if fv := st.Field(i); fv.Exported() && !u.written[fv] {
					p.Reportf(fv.Pos(), nil, "exported field %s.%s is set by no code a cmd/ or examples/ main reaches", name, fv.Name())
				}
			}
		}
	}
}

// usage is the reached-function and written-field state of one run.
type usage struct {
	reached map[*types.Func]bool
	written map[*types.Var]bool
	work    []*types.Func
}

func (u *usage) reach(f *types.Func) {
	f = f.Origin()
	if !u.reached[f] {
		u.reached[f] = true
		u.work = append(u.work, f)
	}
}

// scan records the fields written under n and, for package-level
// initialisers (which have no call-graph node), the functions they
// call or reference.
func (u *usage) scan(info *types.Info, n ast.Node, refs bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if f, ok := info.Uses[n].(*types.Func); ok && refs {
				u.reach(f)
			}
		case *ast.CompositeLit:
			st, ok := types.Unalias(info.TypeOf(n)).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok {
						u.write(info.Uses[k])
					}
				} else if i < st.NumFields() {
					u.write(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				u.writeSel(info, lhs)
			}
		case *ast.IncDecStmt:
			u.writeSel(info, n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				u.writeSel(info, n.X)
			}
		}
		return true
	})
}

func (u *usage) writeSel(info *types.Info, e ast.Expr) {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			u.write(s.Obj())
		}
	}
}

func (u *usage) write(obj types.Object) {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		u.written[v.Origin()] = true
	}
}

// isCommand reports whether pkg is a main package under a cmd/ or
// examples/ directory.
func isCommand(pkg *Package) bool {
	parts := strings.Split(pkg.Path, "/")
	return pkg.Types.Name() == "main" && (slices.Contains(parts, "cmd") || slices.Contains(parts, "examples"))
}

// importClosure returns roots and every package they import, directly
// or transitively.
func importClosure(roots []*Package) map[*types.Package]bool {
	seen := map[*types.Package]bool{}
	var walk func(t *types.Package)
	walk = func(t *types.Package) {
		if !seen[t] {
			seen[t] = true
			for _, imp := range t.Imports() {
				walk(imp)
			}
		}
	}
	for _, r := range roots {
		walk(r.Types)
	}
	return seen
}

// stdInterfaces collects the interfaces that packages outside the
// program declare and the program imports, plus the predeclared error.
func stdInterfaces(prog *Program) []*types.Interface {
	loaded := map[*types.Package]bool{}
	for _, pkg := range prog.Pkgs {
		loaded[pkg.Types] = true
	}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	for _, pkg := range prog.Pkgs {
		for _, imp := range pkg.Types.Imports() {
			if loaded[imp] || seen[imp] {
				continue
			}
			seen[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						out = append(out, it)
					}
				}
			}
		}
	}
	return out
}

// satisfiesStd reports whether method f is part of its receiver type's
// implementation of one of ifaces.
func satisfiesStd(f *types.Func, ifaces []*types.Interface) bool {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ptr := types.NewPointer(t)
	return slices.ContainsFunc(ifaces, func(it *types.Interface) bool {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == f.Name() {
				return types.Implements(ptr, it)
			}
		}
		return false
	})
}
