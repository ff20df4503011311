package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenQ1 pins the Q1 overhead table, one deterministic trial per
// point. The golden was written by the binary of the commit before hbmc's
// diagnostics moved to stderr and excludes only the closing
// "ensemble: … trials/s" line, which times the run; a deliberate change
// regenerates it with `go run ./cmd/hbmc -q1 | sed '$d' > cmd/hbmc/testdata/q1.golden`.
func TestGoldenQ1(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-q1"}, &out, &errs); code != 0 {
		t.Fatalf("run(-q1) = %d\n%s", code, errs.String())
	}
	body := strings.TrimSuffix(out.String(), "\n")
	cut := strings.LastIndex(body, "\n") + 1
	if !strings.HasPrefix(body[cut:], "ensemble: ") {
		t.Fatalf("last line %q is not the ensemble timing line", body[cut:])
	}
	want, err := os.ReadFile(filepath.Join("testdata", "q1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := body[:cut]; got != string(want) {
		t.Fatalf("hbmc -q1 differs from testdata/q1.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestBadFlagOnStderr: flag errors land on stderr, never in front of the
// tables on stdout.
func TestBadFlagOnStderr(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errs); code != 2 {
		t.Errorf("run(-nope) = %d, want 2", code)
	}
	if !strings.Contains(errs.String(), "-nope") {
		t.Errorf("stderr does not name -nope:\n%s", errs.String())
	}
	if out.Len() != 0 {
		t.Errorf("flag error wrote to stdout:\n%s", out.String())
	}
}
