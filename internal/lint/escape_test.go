package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeEscapeFixture lays out a fake module with one source file shaped
// so line numbers land inside known declarations, and returns its root.
func writeEscapeFixture(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	src := `package wheel

type TimerWheel struct{ arena []int }

func (w *TimerWheel) growArena(n int) {
	w.arena = append(w.arena, make([]int, n)...)
}

func Step(n int) *int {
	x := n
	return &x
}
`
	dir := filepath.Join(root, "internal", "core")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wheel.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// TestParseEscapeOutput pins the reduction of raw -gcflags=-m output to
// site classes: only heap diagnostics count, messages with colons
// survive the field split, same-class lines aggregate into one count,
// and each class is attributed to its enclosing declaration.
func TestParseEscapeOutput(t *testing.T) {
	root := writeEscapeFixture(t)
	out := strings.Join([]string{
		"# repro/internal/core",
		"internal/core/wheel.go:5: can inline (*TimerWheel).growArena", // inline chatter: ignored
		"internal/core/wheel.go:6:28: make([]int, n) escapes to heap",
		"internal/core/wheel.go:6:28: make([]int, n) escapes to heap", // same class, second line
		"internal/core/wheel.go:10:2: moved to heap: x",
		"internal/core/wheel.go:11:9: &x does not escape", // proof, not a heap site: ignored
		// Generic functions instantiated from elsewhere: not this package's sites.
		"internal/netem/table.go:88:19: make([]go.shape.struct { netem.down bool }, netem.n) escapes to heap",
		"/usr/local/go/src/slices/slices.go:150:27: make(go.shape.[]int, slices.n) escapes to heap",
		"",
	}, "\n")
	sites, err := parseEscapeOutput(root, []string{"./internal/core"}, out)
	if err != nil {
		t.Fatal(err)
	}
	want := []EscapeSite{
		{File: "internal/core/wheel.go", Func: "(*TimerWheel).growArena", Message: "make([]int, n) escapes to heap", Count: 2, Line: 6},
		{File: "internal/core/wheel.go", Func: "Step", Message: "moved to heap: x", Count: 1, Line: 10},
	}
	if !reflect.DeepEqual(sites, want) {
		t.Errorf("sites:\ngot  %+v\nwant %+v", sites, want)
	}
}

// TestEscapeBudgetRoundTrip pins the budget file format: what
// WriteEscapeBudget emits, LoadEscapeBudget reads back identically
// (minus the informational Line, which is not part of the identity).
func TestEscapeBudgetRoundTrip(t *testing.T) {
	sites := []EscapeSite{
		{File: "internal/core/wheel.go", Func: "(*TimerWheel).growArena", Message: "make([]int, n) escapes to heap", Count: 2, Line: 6},
		{File: "internal/sim/sim.go", Func: "Step", Message: "moved to heap: x", Count: 1, Line: 10},
	}
	path := filepath.Join(t.TempDir(), "escape_budget.txt")
	if err := WriteEscapeBudget(path, sites); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEscapeBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]EscapeSite, len(sites))
	copy(want, sites)
	for i := range want {
		want[i].Line = 0
	}
	if !reflect.DeepEqual(loaded, want) {
		t.Errorf("round trip:\ngot  %+v\nwant %+v", loaded, want)
	}
	if diff := DiffEscapeBudget(loaded, sites); len(diff) != 0 {
		t.Errorf("freshly written budget should diff clean, got %v", diff)
	}
}

// TestDiffEscapeBudget pins the four drift classes — new, grown,
// shrunk, vanished — each as a gate failure with its own message shape.
func TestDiffEscapeBudget(t *testing.T) {
	budget := []EscapeSite{
		{File: "a.go", Func: "F", Message: "moved to heap: x", Count: 2},
		{File: "b.go", Func: "G", Message: "make([]int, n) escapes to heap", Count: 3},
		{File: "c.go", Func: "H", Message: "moved to heap: y", Count: 1},
	}
	current := []EscapeSite{
		{File: "a.go", Func: "F", Message: "moved to heap: x", Count: 4, Line: 7},      // grown
		{File: "b.go", Func: "G", Message: "make([]int, n) escapes to heap", Count: 1}, // shrunk
		{File: "d.go", Func: "K", Message: "&x escapes to heap", Count: 1, Line: 12},   // new
		// c.go H vanished
	}
	findings := DiffEscapeBudget(budget, current)
	wantSubstr := []string{
		"heap allocation sites in F grew past budget",
		"stale escape budget: G \"make([]int, n) escapes to heap\" budgets 3 sites, compiler reports 1",
		"stale escape budget: H \"moved to heap: y\" no longer reported",
		"new heap allocation site in K",
	}
	if len(findings) != len(wantSubstr) {
		t.Fatalf("want %d findings, got %v", len(wantSubstr), findings)
	}
	for i, w := range wantSubstr {
		if !strings.Contains(findings[i].Message, w) {
			t.Errorf("finding %d = %q, want it to contain %q", i, findings[i].Message, w)
		}
		if findings[i].Check != "escape-budget" {
			t.Errorf("finding %d check = %q, want escape-budget", i, findings[i].Check)
		}
	}
}
