package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/models"
)

// checkGolden runs hbcheck with args, expects the given exit status and
// compares stdout against testdata/<name>.golden. The table goldens were
// written by the binary of the commit before the verdict path explored a
// quotient, so they pin "the tables did not move"; the single-check goldens
// carry the quotient's state count, which a deliberate change to the
// dead-clock table or the participant blocks moves: regenerate with
// `go run ./cmd/hbcheck <args> > cmd/hbcheck/testdata/<name>.golden`.
func checkGolden(t *testing.T, name string, code int, args ...string) {
	t.Helper()
	var out, errs bytes.Buffer
	if got := run(args, &out, &errs); got != code {
		t.Fatalf("run(%v) = %d, want %d\n%s%s", args, got, code, out.String(), errs.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("hbcheck %v differs from testdata/%s.golden:\ngot:\n%s\nwant:\n%s", args, name, out.Bytes(), want)
	}
}

func TestGoldenSatisfied(t *testing.T) {
	checkGolden(t, "satisfied", 0, "-variant", "binary", "-tmin", "9", "-prop", "R2", "-trace")
}

// TestGoldenFigure11: a violated check exits 2 and -trace renders the
// counter-example of the analysis' Figure 11.
func TestGoldenFigure11(t *testing.T) {
	checkGolden(t, "figure11", 2, "-variant", "binary", "-tmin", "10", "-prop", "R2", "-trace")
}

// TestGoldenStaticTwoParticipants: two-participant checks, where the count
// is that of the symmetric quotient. The first is the benchmark's
// check_large cell; the second's witness, a race at p[1], is replayed
// through the network, and every line of its chart is the one the
// dead-clock quotient printed.
func TestGoldenStaticTwoParticipants(t *testing.T) {
	checkGolden(t, "static_n2", 0, "-variant", "static", "-tmin", "9", "-prop", "R2")
	checkGolden(t, "static_n2_witness", 2, "-variant", "static", "-tmin", "10", "-prop", "R2", "-trace")
}

// TestPlainBaselineVerdicts pins the plain heartbeat's verdicts: it is the
// binary protocol at tmin = tmax, so it has a model. Unfixed, a reply that
// lands on its round's timeout tick makes p[0] suspect a live p[1] (R2 and
// R3 violated); with the §6 fixes every requirement holds.
func TestPlainBaselineVerdicts(t *testing.T) {
	for _, tc := range []struct {
		prop  string
		fixed bool
		code  int
		want  string
	}{
		{"R1", false, 0, "satisfied (1218 states, 4304 transitions)"},
		{"R2", false, 2, "VIOLATED (377 states, 1241 transitions)"},
		{"R3", false, 2, "VIOLATED (416 states, 1381 transitions)"},
		{"R1", true, 0, "satisfied (1178 states, 4222 transitions)"},
		{"R2", true, 0, "satisfied (720 states, 2912 transitions)"},
		{"R3", true, 0, "satisfied (720 states, 2912 transitions)"},
	} {
		args := []string{"-variant", "binary", "-tmin", "16", "-tmax", "16", "-prop", tc.prop, fmt.Sprintf("-fixed=%v", tc.fixed)}
		want := fmt.Sprintf("binary %s tmin=16 tmax=16 fixed=%v: %s\n", tc.prop, tc.fixed, tc.want)
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != tc.code || out.String() != want {
			t.Errorf("run(%q) = %d, %q; want %d, %q\n%s", args, code, out.String(), tc.code, want, errs.String())
		}
	}
}

func TestGoldenTable2(t *testing.T) { checkGolden(t, "table_2", 0, "-table", "2") }

// TestGoldenTableAll is `hbcheck -table all`, byte for byte, at two worker
// counts; CI diffs the built command against the same file.
func TestGoldenTableAll(t *testing.T) {
	if testing.Short() {
		t.Skip("180 cells, static n=2 among them; skipped in -short")
	}
	checkGolden(t, "table_all", 0, "-table", "all", "-workers", "1")
	checkGolden(t, "table_all", 0, "-table", "all", "-workers", "4")
}

// TestBadInputRejected: what arrives on the command line fails with one
// error line naming it, and nothing on stdout.
func TestBadInputRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-nope"}, 2, "-nope"},
		{[]string{"-variant", "ternary"}, 1, `unknown variant "ternary"`},
		{[]string{"-variant", "binary", "-prop", "R4"}, 1, `unknown property "R4"`},
		{[]string{"-table", "3"}, 1, `unknown table "3"`},
		{[]string{"-variant", "binary", "-tmin", "11"}, 1, "tmin"},
		{[]string{"-variant", "binary", "-tmax", "20000"}, 1, "20000"},
		{[]string{"-variant", "static", "-n", "-3"}, 1, "-n -3"},
		{[]string{"-variant", "binary", "-n", "5", "-tmin", "9"}, 1, "binary protocol has exactly one participant"},
		{[]string{"-variant", "revised-binary", "-n", "2"}, 1, "revised-binary protocol has exactly one participant"},
		{[]string{"-variant", "two-phase", "-n", "2"}, 1, "two-phase protocol has exactly one participant"},
	} {
		var out, errs bytes.Buffer
		if code := run(tc.args, &out, &errs); code != tc.code {
			t.Errorf("run(%q) = %d, want %d\n%s", tc.args, code, tc.code, errs.String())
		}
		if !strings.Contains(errs.String(), tc.want) {
			t.Errorf("run(%q) stderr does not name %s:\n%s", tc.args, tc.want, errs.String())
		}
		if tc.code == 1 && strings.Count(errs.String(), "\n") != 1 {
			t.Errorf("run(%q) stderr is not one line:\n%s", tc.args, errs.String())
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) wrote to stdout:\n%s", tc.args, out.String())
		}
	}
}

// TestMaxStatesIsAnError: a check the limit cuts short is inconclusive, not
// satisfied.
func TestMaxStatesIsAnError(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-variant", "binary", "-tmin", "9", "-max-states", "100"}, &out, &errs); code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(errs.String(), "state limit exceeded") {
		t.Fatalf("stderr does not name the limit:\n%s", errs.String())
	}
}

// TestAnalyzeAll: -analyze alone analyzes every shipped network — twelve
// variant builds, each with its shutdown network, and the two isolated
// processes — and finds nothing.
func TestAnalyzeAll(t *testing.T) {
	checkAnalyzeAll(t, false, "-analyze")
}

// TestAnalyzeAllLargeTMax: clock atoms are solved, not scanned, so the
// analysis costs the same at any tmax, and at tmax 7000 every network is
// analyzed in well under a second. Only shutdown networks whose bound no
// clock can hold are skipped.
func TestAnalyzeAllLargeTMax(t *testing.T) {
	checkAnalyzeAll(t, true, "-analyze", "-tmin", "1", "-tmax", "7000")
}

// checkAnalyzeAll runs hbcheck with args and wants one line per shipped
// network: ok, or with skips a skipped shutdown network.
func checkAnalyzeAll(t *testing.T, skips bool, args ...string) {
	t.Helper()
	var out, errs bytes.Buffer
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("exit %d, want 0\n%s%s", code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 26 || errs.Len() != 0 {
		t.Fatalf("%d lines, want 26, stderr %q:\n%s", len(lines), errs.String(), out.String())
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, ": ok") && !(skips && strings.Contains(l, " shutdown: skipped, bound ")) {
			t.Errorf("not ok: %s", l)
		}
	}
}

// TestAnalyzeSkipsShutdownOutOfRange: at constants Build accepts but whose
// shutdown bound no clock can hold, the shutdown network is skipped with a
// line on stdout instead of failing the analysis.
func TestAnalyzeSkipsShutdownOutOfRange(t *testing.T) {
	cfg := models.Config{TMin: 1, TMax: 7000, Variant: models.Binary, N: 1}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Build must accept %+v: %v", cfg, err)
	}
	var out, errs bytes.Buffer
	if err := analyzeShutdown(&out, &errs, cfg); err != nil {
		t.Fatalf("analyzeShutdown: %v", err)
	}
	if want := "analyze binary tmin=1 tmax=7000 fixed=false shutdown: skipped, bound "; !strings.HasPrefix(out.String(), want) || errs.Len() != 0 {
		t.Fatalf("stdout %q, stderr %q; want a line starting %q", out.String(), errs.String(), want)
	}
}
