package lint

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// want is one golden expectation: a finding on a specific line whose
// message contains a substring.
type want struct {
	file    string
	line    int
	substr  string
	matched bool
}

// collectWants parses `// want "substr" "substr"` comments. Each
// expectation applies to the line the comment sits on.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var out []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(c.Text[idx+len("// want "):])
				for rest != "" {
					if rest[0] != '"' {
						t.Fatalf("%s:%d: malformed want clause %q", pos.Filename, pos.Line, rest)
					}
					end := -1
					for i := 1; i < len(rest); i++ {
						if rest[i] == '\\' {
							i++
							continue
						}
						if rest[i] == '"' {
							end = i
							break
						}
					}
					if end < 0 {
						t.Fatalf("%s:%d: unterminated want clause %q", pos.Filename, pos.Line, rest)
					}
					quoted := rest[:end+1]
					substr, err := strconv.Unquote(quoted)
					if err != nil {
						t.Fatalf("%s:%d: bad want clause %s: %v", pos.Filename, pos.Line, quoted, err)
					}
					out = append(out, &want{file: pos.Filename, line: pos.Line, substr: substr})
					rest = strings.TrimSpace(rest[end+1:])
				}
			}
		}
	}
	return out
}

// runGolden loads one testdata package, runs the named check, and
// reconciles the findings against the package's want comments.
func runGolden(t *testing.T, pkgdir, check string) {
	t.Helper()
	checkWants(t, []*Package{loadFixture(t, pkgdir)}, check)
}

// checkWants runs the named check over pkgs as one program and reconciles
// the findings against their want comments.
func checkWants(t *testing.T, pkgs []*Package, check string) {
	t.Helper()
	findings := NewProgram(pkgs).Run(Config{Checks: []string{check}})
	var wants []*want
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg.Fset, pkg.Files)...)
	}

	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && strings.Contains(f.Message, w.substr) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: missing finding containing %q", w.file, w.line, w.substr)
		}
	}
}

// loadFixture loads internal/lint/testdata/<pkgdir> as one package.
func loadFixture(t *testing.T, pkgdir string) *Package {
	t.Helper()
	pkgs := loadFixtures(t, pkgdir)
	if len(pkgs) != 1 {
		t.Fatalf("want one package, got %d", len(pkgs))
	}
	return pkgs[0]
}

// loadFixtures loads the packages internal/lint/testdata/<pattern> names.
func loadFixtures(t *testing.T, pattern string) []*Package {
	t.Helper()
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(filepath.Join("internal/lint/testdata", pattern))
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// moduleRoot walks up from the package directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the lint package")
		}
		dir = parent
	}
}

func TestGoldenMapOrder(t *testing.T) {
	runGolden(t, "maporder", "map-order")
}

func TestGoldenBufferReuse(t *testing.T) {
	runGolden(t, "bufreuse", "buffer-reuse")
}

// TestGoldenNoAlloc pins the allocation-site heuristics on annotated
// bodies: each root answers for its own sites.
func TestGoldenNoAlloc(t *testing.T) {
	runGolden(t, "noalloc", "noalloc-closure")
}

func TestGoldenSyncDiscipline(t *testing.T) {
	runGolden(t, "syncdiscipline", "sync-discipline")
}

// TestGoldenNoallocClosure is the seeded-mutant proof for the
// interprocedural closure check: allocating helpers one and two call
// levels below a //hbvet:noalloc root must be reported with the full
// call chain, boundaries cut traversal, and site-level allows do not.
func TestGoldenNoallocClosure(t *testing.T) {
	runGolden(t, "closure", "noalloc-closure")
}

// TestGoldenDeterminismTaint pins the one determinism check: every direct
// wall-clock or global-rand site at its own position, every function
// reaching one only through calls or function values once with its
// laundering chain, and the sanctioned sites and doc-comment boundary that
// stop it. The fixture also holds every case of the retired intraprocedural
// check's fixture but one expectation: `time.Now().Sub(start)` no longer
// reports "time.Time.Sub over a wall-clock read" beside the time.Now read
// on the same line, which is still reported.
func TestGoldenDeterminismTaint(t *testing.T) {
	runGolden(t, "taint", "determinism")
}

// TestDirectiveHygiene pins the //lint:allow bookkeeping: justified and
// used directives are silent; unjustified and unused ones, and ones naming
// no registered check (a misspelled or retired name would otherwise linger
// as a no-op), are findings of their own. (Expectations are asserted here
// rather than with want comments, which cannot share a line with the
// directive they describe.)
func TestDirectiveHygiene(t *testing.T) {
	prog := NewProgram([]*Package{loadFixture(t, "directives")})
	findings := prog.Run(Config{Checks: []string{"determinism", "unused-suppression"}})
	var got []string
	for _, f := range findings {
		got = append(got, f.Check+": "+f.Message)
	}
	wantSubstr := []string{
		"lint: //lint:allow determinism needs a justification",
		"unused-suppression: //lint:allow determinism suppresses nothing",
		`lint: //lint:allow names no registered check "determinism-taint"`,
	}
	if len(got) != len(wantSubstr) {
		t.Fatalf("want %d findings, got %v", len(wantSubstr), got)
	}
	for i, w := range wantSubstr {
		if !strings.Contains(got[i], w) {
			t.Errorf("finding %d = %q, want it to contain %q", i, got[i], w)
		}
	}

	// A run restricted away from the directive's check cannot know the
	// directive is dead: unused-suppression must stay silent about it.
	restricted := prog.Run(Config{Checks: []string{"map-order", "unused-suppression"}})
	for _, f := range restricted {
		if f.Check == "unused-suppression" {
			t.Errorf("unused-suppression fired for a check that did not run: %s", f)
		}
	}
}

// TestGoldenUnusedExport pins what counts as used by a command: a call, an
// interface dispatch, a method value, a generic instantiation's method, a
// package-level initialiser and a standard-library String all do; a call
// from bench/ or a test does not, and neither does a Config field only
// they set. The allow on the bench shim is live.
func TestGoldenUnusedExport(t *testing.T) {
	checkWants(t, loadFixtures(t, "unusedexport/..."), "unused-export")
	prog := NewProgram(loadFixtures(t, "unusedexport/..."))
	for _, f := range prog.Run(Config{Checks: []string{"unused-export", "unused-suppression"}}) {
		if f.Check != "unused-export" {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// TestUnusedExportNeedsACommand: without a cmd/ main in the load there is
// nothing to measure against, so the check reports nothing and leaves its
// directives unjudged.
func TestUnusedExportNeedsACommand(t *testing.T) {
	prog := NewProgram(loadFixtures(t, "unusedexport/lib"))
	if got := prog.Run(Config{Checks: []string{"unused-export", "unused-suppression"}}); len(got) != 0 {
		t.Fatalf("findings without a command: %v", got)
	}
}
