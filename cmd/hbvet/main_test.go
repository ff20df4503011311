package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestGoldenList pins the one analyzer list: six AST checks and the
// escape-budget gate. Regenerate with
// `go run ./cmd/hbvet -list > cmd/hbvet/testdata/list.golden`.
func TestGoldenList(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-list"}, &out, &errs); code != 0 {
		t.Fatalf("run(-list) = %d\n%s", code, errs.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("hbvet -list differs from testdata/list.golden:\ngot:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}

// TestFindingsExitOne: the determinism fixture is all findings, each
// printed as file:line:col: message [determinism], and they fail the run.
func TestFindingsExitOne(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"./internal/lint/testdata/taint"}, &out, &errs); code != 1 {
		t.Fatalf("run = %d, want 1\n%s%s", code, out.String(), errs.String())
	}
	line := regexp.MustCompile(`^internal/lint/testdata/taint/\w+\.go:\d+:\d+: .+ \[determinism\]$`)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	for _, l := range lines {
		if !line.MatchString(l) {
			t.Errorf("finding line %q is not file:line:col: … [determinism]", l)
		}
	}
	if want := "hbvet: " + strconv.Itoa(len(lines)) + " finding(s)\n"; errs.String() != want {
		t.Errorf("stderr = %q, want %q", errs.String(), want)
	}
}

// TestJSONVersion: -json carries the schema version CI artifacts key on.
func TestJSONVersion(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-json", "./internal/lint/testdata/taint"}, &out, &errs); code != 1 {
		t.Fatalf("run = %d, want 1\n%s", code, errs.String())
	}
	if !strings.Contains(out.String(), `"version": 1,`) || !strings.Contains(out.String(), `"check": "determinism"`) {
		t.Errorf("-json output lacks the version or the findings:\n%s", out.String())
	}
}

// TestUsageErrors: a mistyped or retired -check name and -update without
// -escape would otherwise run nothing and pass the gate.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-check", "determinsm", "./..."}, `unknown check "determinsm"`},
		{[]string{"-check", "map-order,determinism-taint", "./..."}, `unknown check "determinism-taint"`},
		{[]string{"-update", "./..."}, "-update"},
	} {
		var out, errs bytes.Buffer
		if code := run(tc.args, &out, &errs); code != 2 {
			t.Errorf("run(%q) = %d, want 2", tc.args, code)
		}
		if got := errs.String(); !strings.HasPrefix(got, "hbvet: ") || strings.Count(got, "\n") != 1 || !strings.Contains(got, tc.want) {
			t.Errorf("run(%q) stderr = %q, want one hbvet: line naming %s", tc.args, got, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) wrote to stdout: %q", tc.args, out.String())
		}
	}
}
