// Package lint is a stdlib-only static-analysis framework for this
// repository: a small analyzer driver (go/ast + go/types, no external
// dependencies) plus the project-specific checks that keep the
// determinism, buffer-reuse, and allocation contracts of the checker and
// simulator hot paths honest.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis in
// miniature — Analyzer, Pass, Findings — but is self-contained so the
// container needs nothing beyond the Go toolchain. Checks:
//
//   - determinism: no wall-clock reads (time.Now and friends) or global
//     math/rand calls outside explicitly allowlisted wall-clock files;
//     every *rand.Rand must be built from an explicit seed expression.
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
//
// A finding on line N is suppressed by a comment
//
//	//lint:allow <check> <justification>
//
// on line N or line N-1. Suppressions without a justification are
// themselves findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Check   string
	Pos     token.Position
	Message string
	// Chain is the call chain from an interprocedural root to the
	// offending site (noalloc-closure, determinism-taint), outermost
	// first; empty for intraprocedural findings.
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

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Config is the driver-level configuration shared by all analyzers.
	Config Config

	findings *[]Finding
}

// Config tunes the analyzer suite.
type Config struct {
	// WallClockAllow lists path suffixes of files allowed to read the
	// wall clock and construct time-seeded state: the explicit wall-clock
	// boundary of the system (netem.WallClock, cmd/hbfleet).
	WallClockAllow []string
	// Checks, when non-empty, restricts the run to the named analyzers.
	Checks []string
}

// DefaultWallClockAllow is the repository's wall-clock boundary: the
// only files that may read physical time. Everything else must get time
// from a sim.Simulator or netem.Clock and randomness from a seeded
// *rand.Rand.
var DefaultWallClockAllow = []string{
	"internal/netem/clock.go", // WallClock implementation
	"cmd/hbfleet/main.go",     // fleet run timings
	"cmd/hbmc/main.go",        // ensemble sweep timings
}

// Analyzers returns the per-package suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerDeterminism,
		AnalyzerMapOrder,
		AnalyzerBufferReuse,
		AnalyzerSyncDiscipline,
	}
}

// ProgramAnalyzer is one interprocedural check: it sees the whole
// loaded program (and its call graph) at once instead of one package.
type ProgramAnalyzer struct {
	Name string
	Doc  string
	Run  func(*ProgramPass)
}

// ProgramPass carries the program through one interprocedural analyzer.
type ProgramPass struct {
	Analyzer *ProgramAnalyzer
	Prog     *Program
	Config   Config

	findings *[]Finding
	supp     *suppressions
}

// Sanctioned reports whether pos is covered by a //lint:allow directive
// for the named check, marking the directive used. Interprocedural
// analyzers call it at decision points that produce no finding — cutting
// closure traversal through a call edge, declining to seed taint — so
// the directive still registers as live for unused-suppression.
func (p *ProgramPass) Sanctioned(check string, pos token.Pos) bool {
	return p.supp != nil && p.supp.sanction(check, p.Prog.Fset.Position(pos))
}

// SanctionedDecl reports whether the declaration carries a //lint:allow
// directive for the named check *in its doc comment*, marking the
// directive used. Declaration-level semantics (marking a whole function
// an accepted boundary) demand the doc-comment position so a site-level
// directive covering the declaration's first line — same line or the
// line above, per the suppression placement contract — cannot silently
// act as a boundary.
func (p *ProgramPass) SanctionedDecl(check string, decl *ast.FuncDecl) bool {
	if p.supp == nil || decl.Doc == nil {
		return false
	}
	return p.supp.sanctionRange(check, decl.Doc.Pos(), decl.Doc.End())
}

// Reportf records a finding at pos with an optional call chain.
func (p *ProgramPass) Reportf(pos token.Pos, chain []string, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Check:   p.Analyzer.Name,
		Pos:     p.Prog.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
		Chain:   chain,
	})
}

// ProgramAnalyzers returns the interprocedural suite in reporting
// order. unused-suppression is listed here but implemented by the
// driver (it must see every other analyzer's surviving findings).
func ProgramAnalyzers() []*ProgramAnalyzer {
	return []*ProgramAnalyzer{
		AnalyzerNoallocClosure,
		AnalyzerDeterminismTaint,
		AnalyzerUnusedSuppression,
	}
}

// AnalyzerUnusedSuppression reports //lint:allow directives that
// suppress nothing. It is driver-implemented: after every enabled check
// has run and suppressions are applied, a directive for a check that
// ran but matched no finding is dead weight — it documents a risk that
// no longer exists. Directives for checks that did not run this
// invocation are left alone (a restricted -check run cannot know).
var AnalyzerUnusedSuppression = &ProgramAnalyzer{
	Name: "unused-suppression",
	Doc:  "//lint:allow directives must suppress at least one finding of a check that ran",
	Run:  nil, // driver-implemented, see applySuppressions
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Check:   p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

func (p *Pass) report(f Finding) {
	*p.findings = append(*p.findings, f)
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	check     string
	line      int
	justified bool
	pos       token.Pos
}

// collectAllows parses every //lint:allow directive in the files.
func collectAllows(fset *token.FileSet, files []*ast.File) []allowDirective {
	var out []allowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				d := allowDirective{line: fset.Position(c.Pos()).Line, pos: c.Pos()}
				if len(fields) > 0 {
					d.check = fields[0]
				}
				d.justified = len(fields) > 1
				out = append(out, d)
			}
		}
	}
	return out
}

// suppressions is the shared //lint:allow state of one run: the parsed
// directives plus per-directive liveness. A directive is live when it
// suppressed a finding or when an analyzer consulted it at a
// non-reporting decision point (ProgramPass.Sanctioned).
type suppressions struct {
	fset   *token.FileSet
	allows []allowDirective
	used   []bool
}

func newSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	allows := collectAllows(fset, files)
	return &suppressions{fset: fset, allows: allows, used: make([]bool, len(allows))}
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
// preceding line, reports unjustified directives, and — when the
// unused-suppression check is enabled — reports directives that
// suppressed nothing although their check ran (ran holds the names of
// the checks that ran this invocation).
func (s *suppressions) apply(findings []Finding, ran map[string]bool, reportUnused bool) []Finding {
	if len(s.allows) == 0 {
		return findings
	}
	kept := findings[:0]
	for _, f := range findings {
		suppressed := false
		for i, d := range s.allows {
			if d.check == f.Check && s.covers(i, f.Pos) {
				s.used[i] = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	for i, d := range s.allows {
		if !d.justified {
			kept = append(kept, Finding{
				Check:   "lint",
				Pos:     s.fset.Position(d.pos),
				Message: fmt.Sprintf("//lint:allow %s needs a justification comment", d.check),
			})
		} else if reportUnused && !s.used[i] && ran[d.check] {
			kept = append(kept, Finding{
				Check:   "unused-suppression",
				Pos:     s.fset.Position(d.pos),
				Message: fmt.Sprintf("//lint:allow %s suppresses nothing; the risk it documents no longer exists — delete it", d.check),
			})
		}
	}
	return kept
}

// Run runs the configured analyzers — per-package and interprocedural —
// over the whole program and returns the surviving findings sorted by
// position.
func (prog *Program) Run(cfg Config) []Finding {
	var findings []Finding
	ran := map[string]bool{}
	enabled := func(name string) bool {
		return len(cfg.Checks) == 0 || containsString(cfg.Checks, name)
	}
	var allFiles []*ast.File
	for _, pkg := range prog.Pkgs {
		allFiles = append(allFiles, pkg.Files...)
	}
	supp := newSuppressions(prog.Fset, allFiles)
	for _, pkg := range prog.Pkgs {
		for _, a := range Analyzers() {
			if !enabled(a.Name) {
				continue
			}
			ran[a.Name] = true
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Config:   cfg,
				findings: &findings,
			}
			a.Run(pass)
		}
	}
	for _, a := range ProgramAnalyzers() {
		if a.Run == nil || !enabled(a.Name) {
			continue
		}
		ran[a.Name] = true
		pass := &ProgramPass{Analyzer: a, Prog: prog, Config: cfg, findings: &findings, supp: supp}
		a.Run(pass)
	}
	findings = supp.apply(findings, ran, enabled(AnalyzerUnusedSuppression.Name))
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

// RunPackage runs the configured analyzers over one loaded package
// (treated as a single-package program) and returns the surviving
// findings sorted by position.
func RunPackage(pkg *Package, cfg Config) []Finding {
	return NewProgram([]*Package{pkg}).Run(cfg)
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// fileAllowed reports whether the file at pos matches one of the
// allowlisted path suffixes.
func (p *Pass) fileAllowed(pos token.Pos, allow []string) bool {
	name := p.Fset.Position(pos).Filename
	name = strings.ReplaceAll(name, "\\", "/")
	for _, suf := range allow {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
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

// isPkgFunc reports whether obj is the package-level function pkgPath.name
// (not a method).
func isPkgFunc(obj *types.Func, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name && obj.Type().(*types.Signature).Recv() == nil
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
