// Package lint is a stdlib-only static-analysis framework for this
// repository: a small analyzer driver (go/ast + go/types, no external
// dependencies) plus the project-specific checks that keep the
// determinism, buffer-reuse, and allocation contracts of the checker and
// simulator hot paths honest.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis in
// miniature — Analyzer, Pass, Findings — but is self-contained so the
// container needs nothing beyond the Go toolchain. Every analyzer sees
// the whole loaded program; the per-package checks walk its packages,
// the call-graph checks its call graph. Checks:
//
//   - determinism: no function outside the wall-clock boundary may reach
//     a wall-clock read (time.Now and friends) or the global math/rand
//     generator, directly or through any chain of calls and function
//     values; a function whose doc comment carries //lint:allow
//     determinism is a boundary.
//   - map-order: a range over a map whose body appends to an outer
//     slice, writes output, or sends on a channel is flagged unless the
//     collected slice is sorted afterwards — the campaign-replay bug
//     class PR 1 hit at runtime.
//   - buffer-reuse: callers of ta.Successors / ta.SuccCtx.Successors /
//     ta.State.AppendKey must not retain the returned slice (or its
//     elements) beyond the next call on the same value — see the
//     non-reentrancy contract in internal/ta.
//   - sync-discipline: a struct field accessed through sync/atomic in
//     one place must be accessed through sync/atomic everywhere.
//   - noalloc-closure: functions annotated //hbvet:noalloc, and every
//     function reachable from one, are rejected on likely allocation
//     sites (make/new, escaping composite literals, escaping closures,
//     appends that build fresh slices, implicit interface conversions,
//     known-allocating callees, calls through function values).
//   - unused-export: an exported function or method that no main package
//     under cmd/ or examples/ reaches, or an exported field of a *Config
//     or *Options struct that no reached code sets, is a finding; bench/
//     and tests do not count as callers.
//   - unused-suppression: a //lint:allow directive that suppressed
//     nothing is a finding.
//
// A finding on line N is suppressed by a comment
//
//	//lint:allow <check> <justification>
//
// on line N or line N-1. Suppressions without a justification, or
// naming no registered check, are themselves findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Check   string
	Pos     token.Position
	Message string
	// Chain is the call chain from an interprocedural root to the
	// offending site (noalloc-closure, determinism), outermost first;
	// empty for intraprocedural findings.
	Chain []string
}

// String formats the finding as file:line:col: message [check].
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Check)
}

// Analyzer is one check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries the program through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program

	findings *[]Finding
	supp     *suppressions
	// inert is set by an analyzer that found nothing to judge in this
	// load; its directives then count as not run for unused-suppression.
	inert bool
}

// Config tunes the analyzer suite.
type Config struct {
	// Checks, when non-empty, restricts the run to the named analyzers.
	Checks []string
}

func (c Config) enabled(name string) bool {
	return len(c.Checks) == 0 || slices.Contains(c.Checks, name)
}

// Analyzers returns the suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerDeterminism,
		AnalyzerMapOrder,
		AnalyzerBufferReuse,
		AnalyzerSyncDiscipline,
		AnalyzerNoallocClosure,
		AnalyzerUnusedExport,
		AnalyzerUnusedSuppression,
	}
}

// AnalyzerUnusedSuppression reports //lint:allow directives that
// suppress nothing. It is driver-implemented: after every enabled check
// has run and suppressions are applied, a directive for a check that
// ran but matched no finding is dead weight — it documents a risk that
// no longer exists. Directives for checks that did not run this
// invocation are left alone (a restricted -check run cannot know).
var AnalyzerUnusedSuppression = &Analyzer{
	Name: "unused-suppression",
	Doc:  "//lint:allow directives must suppress at least one finding of a check that ran",
	Run:  nil, // driver-implemented, see suppressions.apply
}

// Sanctioned reports whether pos is covered by a //lint:allow directive
// for the named check, marking the directive used. The call-graph
// analyzers call it at decision points that produce no finding — cutting
// closure traversal through a call edge, declining to seed taint — so
// the directive still registers as live for unused-suppression.
func (p *Pass) Sanctioned(check string, pos token.Pos) bool {
	return p.supp.sanction(check, p.Prog.Fset.Position(pos))
}

// SanctionedDecl reports whether the declaration carries a //lint:allow
// directive for the named check *in its doc comment*, marking the
// directive used: the one boundary rule of the call-graph checks.
// Declaration-level semantics (marking a whole function an accepted
// boundary) demand the doc-comment position so a site-level directive
// covering the declaration's first line — same line or the line above,
// per the suppression placement contract — cannot silently act as a
// boundary.
func (p *Pass) SanctionedDecl(check string, decl *ast.FuncDecl) bool {
	return decl.Doc != nil && p.supp.sanctionRange(check, decl.Doc.Pos(), decl.Doc.End())
}

// Reportf records a finding at pos with the call chain that reaches it
// (nil for intraprocedural findings).
func (p *Pass) Reportf(pos token.Pos, chain []string, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Check:   p.Analyzer.Name,
		Pos:     p.Prog.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
		Chain:   chain,
	})
}

// eachFuncBody lifts a check of one function body to a whole-program
// run: check sees every declaration and literal body of the program
// with its package's type info.
func eachFuncBody(check func(p *Pass, info *types.Info, body *ast.BlockStmt)) func(*Pass) {
	return func(p *Pass) {
		for _, pkg := range p.Prog.Pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					switch fn := n.(type) {
					case *ast.FuncDecl:
						if fn.Body != nil {
							check(p, pkg.Info, fn.Body)
						}
					case *ast.FuncLit:
						check(p, pkg.Info, fn.Body)
					}
					return true
				})
			}
		}
	}
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	check     string
	line      int
	justified bool
	pos       token.Pos
}

// suppressions is the shared //lint:allow state of one run: the parsed
// directives plus per-directive liveness. A directive is live when it
// suppressed a finding or when an analyzer consulted it at a
// non-reporting decision point (Pass.Sanctioned, Pass.SanctionedDecl).
type suppressions struct {
	fset   *token.FileSet
	allows []allowDirective
	used   []bool
}

// newSuppressions parses every //lint:allow directive in the program.
func newSuppressions(prog *Program) *suppressions {
	s := &suppressions{fset: prog.Fset}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:allow")
					if !ok {
						continue
					}
					fields := strings.Fields(text)
					d := allowDirective{line: s.fset.Position(c.Pos()).Line, pos: c.Pos(), justified: len(fields) > 1}
					if len(fields) > 0 {
						d.check = fields[0]
					}
					s.allows = append(s.allows, d)
				}
			}
		}
	}
	s.used = make([]bool, len(s.allows))
	return s
}

// covers reports whether directive i sits on the same or the preceding
// line of pos (the suppression placement contract).
func (s *suppressions) covers(i int, pos token.Position) bool {
	d := s.allows[i]
	return s.fset.Position(d.pos).Filename == pos.Filename &&
		(d.line == pos.Line || d.line == pos.Line-1)
}

// sanction marks every directive for check covering pos as used and
// reports whether there was one.
func (s *suppressions) sanction(check string, pos token.Position) bool {
	hit := false
	for i, d := range s.allows {
		if d.check == check && s.covers(i, pos) {
			s.used[i] = true
			hit = true
		}
	}
	return hit
}

// sanctionRange marks every directive for check whose position falls in
// [lo, hi] as used and reports whether there was one. Positions compare
// directly: all packages of a program share one FileSet.
func (s *suppressions) sanctionRange(check string, lo, hi token.Pos) bool {
	hit := false
	for i, d := range s.allows {
		if d.check == check && d.pos >= lo && d.pos <= hi {
			s.used[i] = true
			hit = true
		}
	}
	return hit
}

// apply drops findings covered by an //lint:allow on the same or the
// preceding line, reports directives naming no registered check or
// carrying no justification, and — when the unused-suppression check is
// enabled — reports directives that suppressed nothing although their
// check ran (ran holds the names of the checks that ran this
// invocation).
func (s *suppressions) apply(findings []Finding, ran map[string]bool, reportUnused bool) []Finding {
	kept := slices.DeleteFunc(findings, func(f Finding) bool {
		return s.sanction(f.Check, f.Pos)
	})
	known := Analyzers()
	for i, d := range s.allows {
		f := Finding{Check: "lint", Pos: s.fset.Position(d.pos)}
		switch {
		case !slices.ContainsFunc(known, func(a *Analyzer) bool { return a.Name == d.check }):
			f.Message = fmt.Sprintf("//lint:allow names no registered check %q; hbvet -list names them", d.check)
		case !d.justified:
			f.Message = fmt.Sprintf("//lint:allow %s needs a justification comment", d.check)
		case reportUnused && !s.used[i] && ran[d.check]:
			f.Check = AnalyzerUnusedSuppression.Name
			f.Message = fmt.Sprintf("//lint:allow %s suppresses nothing; the risk it documents no longer exists — delete it", d.check)
		default:
			continue
		}
		kept = append(kept, f)
	}
	return kept
}

// Run runs the configured analyzers over the whole program and returns
// the surviving findings sorted by position.
func (prog *Program) Run(cfg Config) []Finding {
	var findings []Finding
	ran := map[string]bool{}
	supp := newSuppressions(prog)
	for _, a := range Analyzers() {
		if a.Run == nil || !cfg.enabled(a.Name) {
			continue
		}
		pass := &Pass{Analyzer: a, Prog: prog, findings: &findings, supp: supp}
		a.Run(pass)
		ran[a.Name] = !pass.inert
	}
	findings = supp.apply(findings, ran, cfg.enabled(AnalyzerUnusedSuppression.Name))
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Check < findings[j].Check
	})
	return findings
}

// calleeObj resolves the called function object of a call expression, or
// nil (builtin, indirect call, type conversion).
func calleeObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isMethod reports whether obj is a method named name whose receiver's
// named type lives in pkgPath and is called typeName.
func isMethod(obj *types.Func, pkgPath, typeName, name string) bool {
	if obj == nil || obj.Name() != name || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == typeName
}
