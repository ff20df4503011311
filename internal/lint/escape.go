package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The compiler escape-budget gate: the AST heuristics of the noalloc
// checks see likely allocation *sites*; the compiler's escape analysis
// sees the truth — boxing it introduces, receivers it spills, maps it
// grows. `hbvet -escape` runs `go build -gcflags=-m` over the hot-path
// packages, reduces the heap diagnostics to per-function allocation-site
// classes (file, enclosing function, normalized message — line numbers
// excluded so unrelated edits above a site do not churn the file), and
// diffs them against the checked-in budget. Any class that appears,
// grows, shrinks, or disappears relative to the budget is a finding:
// new heap sites fail the gate, and stale entries force a regeneration
// (`hbvet -escape -update`) so the budget always reproduces cleanly.

// HotPathPackages is the package set under the escape budget: the
// steady-state engines whose allocation behaviour the benchmarks and
// 0-alloc tests pin.
var HotPathPackages = []string{
	"./internal/core",
	"./internal/detector",
	"./internal/ensemble",
	"./internal/fleet",
	"./internal/mc",
	"./internal/sim",
}

// EscapeBudgetFile is the checked-in budget, relative to the module
// root.
const EscapeBudgetFile = "escape_budget.txt"

// EscapeSite is one class of compiler-reported heap allocation:
// everything the diagnostics say about (file, function, message),
// aggregated over lines.
type EscapeSite struct {
	File    string // module-relative, slash-separated
	Func    string // enclosing declaration ("(*TimerWheel).growArena"), or "<file>" outside any
	Message string // normalized diagnostic ("make([]wheelNode, n) escapes to heap")
	Count   int
	// Line is the first source line the class was seen at in this run;
	// informational only (not part of the identity or the budget file).
	Line int
}

// escapeKey identifies a site class in budget diffs.
func (s EscapeSite) escapeKey() string { return s.File + "\x00" + s.Func + "\x00" + s.Message }

// EscapeSites compiles the packages with -gcflags=-m under the module
// root and returns the aggregated heap-allocation site classes, sorted.
// Go ≥1.24 replays cached compiler diagnostics, so warm runs are cheap.
func EscapeSites(root string, patterns []string) ([]EscapeSite, error) {
	args := append([]string{"build", "-gcflags=-m"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("lint: go build -gcflags=-m: %v\n%s", err, out)
	}
	return parseEscapeOutput(root, patterns, string(out))
}

// parseEscapeOutput reduces compiler -m output to sorted site classes.
// Only heap diagnostics count ("escapes to heap", "moved to heap");
// inlining chatter and "does not escape" proofs are ignored, and so are
// sites in files outside the pattern directories: a package that
// instantiates another package's generic function (or the standard
// library's) has that function's sites reported again, under shape names.
func parseEscapeOutput(root string, patterns []string, out string) ([]EscapeSite, error) {
	type raw struct {
		file string
		line int
		msg  string
	}
	var raws []raw
	files := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasSuffix(line, " escapes to heap") && !strings.Contains(line, "moved to heap:") {
			continue
		}
		// file.go:line:col: message — the message may itself contain
		// colons, so split only the three leading fields.
		parts := strings.SplitN(line, ":", 4)
		if len(parts) < 4 || !strings.HasSuffix(parts[0], ".go") {
			continue
		}
		ln, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		file := filepath.ToSlash(parts[0])
		if !slices.ContainsFunc(patterns, func(p string) bool { return path.Clean(p) == path.Dir(file) }) {
			continue
		}
		raws = append(raws, raw{file: file, line: ln, msg: strings.TrimSpace(parts[3])})
		files[file] = true
	}
	// Map lines to enclosing declarations per file.
	locators := map[string]*funcLocator{}
	for file := range files {
		loc, err := newFuncLocator(filepath.Join(root, filepath.FromSlash(file)))
		if err != nil {
			return nil, err
		}
		locators[file] = loc
	}
	agg := map[string]*EscapeSite{}
	for _, r := range raws {
		site := EscapeSite{File: r.file, Func: locators[r.file].funcAt(r.line), Message: r.msg, Line: r.line}
		if cur, ok := agg[site.escapeKey()]; ok {
			cur.Count++
			if r.line < cur.Line {
				cur.Line = r.line
			}
		} else {
			site.Count = 1
			agg[site.escapeKey()] = &site
		}
	}
	sites := make([]EscapeSite, 0, len(agg))
	for _, s := range agg {
		sites = append(sites, *s)
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].File != sites[j].File {
			return sites[i].File < sites[j].File
		}
		if sites[i].Func != sites[j].Func {
			return sites[i].Func < sites[j].Func
		}
		return sites[i].Message < sites[j].Message
	})
	return sites, nil
}

// funcLocator maps source lines to enclosing top-level declarations of
// one file. A plain parse suffices — no type checking.
type funcLocator struct {
	fset  *token.FileSet
	spans []funcSpan
}

type funcSpan struct {
	name       string
	start, end int
}

func newFuncLocator(path string) (*funcLocator, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("lint: locating functions in %s: %w", path, err)
	}
	loc := &funcLocator{fset: fset}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		loc.spans = append(loc.spans, funcSpan{
			name:  declName(fn),
			start: fset.Position(fn.Pos()).Line,
			end:   fset.Position(fn.End()).Line,
		})
	}
	return loc, nil
}

// declName renders a declaration as the budget file names it:
// "Step", "(*TimerWheel).growArena", "Config.NextWait".
func declName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	star := ""
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
		star = "*"
	}
	// Strip generic receiver type parameters.
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	if ix, ok := t.(*ast.IndexListExpr); ok {
		t = ix.X
	}
	name := "?"
	if id, ok := t.(*ast.Ident); ok {
		name = id.Name
	}
	if star != "" {
		return "(" + star + name + ")." + fn.Name.Name
	}
	return name + "." + fn.Name.Name
}

func (l *funcLocator) funcAt(line int) string {
	for _, s := range l.spans {
		if line >= s.start && line <= s.end {
			return s.name
		}
	}
	return "<file>"
}

// WriteEscapeBudget writes the budget file: a header, then one
// tab-separated line per site class.
func WriteEscapeBudget(path string, sites []EscapeSite) error {
	var b strings.Builder
	b.WriteString("# hbvet escape budget — per-function heap-allocation site classes for the\n")
	b.WriteString("# hot-path packages, from `go build -gcflags=-m` (lines: file, function,\n")
	b.WriteString("# count, diagnostic). The CI gate `hbvet -escape` fails on any drift;\n")
	b.WriteString("# regenerate with `go run ./cmd/hbvet -escape -update` after reviewing that\n")
	b.WriteString("# every new site is intentional.\n")
	for _, s := range sites {
		fmt.Fprintf(&b, "%s\t%s\t%d\t%s\n", s.File, s.Func, s.Count, s.Message)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// LoadEscapeBudget parses a budget file written by WriteEscapeBudget.
func LoadEscapeBudget(path string) ([]EscapeSite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sites []EscapeSite
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "\t", 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("lint: %s:%d: malformed budget line %q", path, i+1, line)
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("lint: %s:%d: bad site count %q", path, i+1, parts[2])
		}
		sites = append(sites, EscapeSite{File: parts[0], Func: parts[1], Count: n, Message: parts[3]})
	}
	return sites, nil
}

// DiffEscapeBudget compares the current compiler-reported sites against
// the budget and returns one finding per drifted class: growth or a new
// class is a new heap allocation site; shrinkage or disappearance is a
// stale budget entry (the gate fails on both so the checked-in file
// always reproduces from -update).
func DiffEscapeBudget(budget, current []EscapeSite) []Finding {
	budgeted := map[string]EscapeSite{}
	for _, s := range budget {
		budgeted[s.escapeKey()] = s
	}
	var findings []Finding
	seen := map[string]bool{}
	for _, s := range current {
		seen[s.escapeKey()] = true
		b, ok := budgeted[s.escapeKey()]
		switch {
		case !ok:
			findings = append(findings, Finding{
				Check: "escape-budget",
				Pos:   token.Position{Filename: s.File, Line: s.Line},
				Message: fmt.Sprintf("new heap allocation site in %s: %q ×%d is not in the escape budget; eliminate it or regenerate with hbvet -escape -update",
					s.Func, s.Message, s.Count),
			})
		case s.Count > b.Count:
			findings = append(findings, Finding{
				Check: "escape-budget",
				Pos:   token.Position{Filename: s.File, Line: s.Line},
				Message: fmt.Sprintf("heap allocation sites in %s grew past budget: %q ×%d (budget %d); eliminate the growth or regenerate with hbvet -escape -update",
					s.Func, s.Message, s.Count, b.Count),
			})
		case s.Count < b.Count:
			findings = append(findings, Finding{
				Check: "escape-budget",
				Pos:   token.Position{Filename: s.File, Line: s.Line},
				Message: fmt.Sprintf("stale escape budget: %s %q budgets %d sites, compiler reports %d; regenerate with hbvet -escape -update",
					s.Func, s.Message, b.Count, s.Count),
			})
		}
	}
	for _, s := range budget {
		if !seen[s.escapeKey()] {
			findings = append(findings, Finding{
				Check: "escape-budget",
				Pos:   token.Position{Filename: s.File},
				Message: fmt.Sprintf("stale escape budget: %s %q no longer reported by the compiler; regenerate with hbvet -escape -update",
					s.Func, s.Message),
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Message < findings[j].Message
	})
	return findings
}
