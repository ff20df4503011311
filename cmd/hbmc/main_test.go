package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden runs hbmc with args and compares its stdout, minus the
// closing "ensemble: … trials/s" line that times the run, with
// testdata/<golden>.
func checkGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	var out, errs bytes.Buffer
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("run(%q) = %d\n%s", args, code, errs.String())
	}
	body := strings.TrimSuffix(out.String(), "\n")
	cut := strings.LastIndex(body, "\n") + 1
	if !strings.HasPrefix(body[cut:], "ensemble: ") {
		t.Fatalf("last line %q is not the ensemble timing line", body[cut:])
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if got := body[:cut]; got != string(want) {
		t.Fatalf("hbmc %q differs from testdata/%s:\ngot:\n%s\nwant:\n%s", args, golden, got, want)
	}
}

// TestGoldenQ1 pins the Q1 overhead table, one deterministic trial per
// point. The golden was written by the binary of the commit before hbmc's
// diagnostics moved to stderr; a deliberate change regenerates it with
// `go run ./cmd/hbmc -q1 | sed '$d' > cmd/hbmc/testdata/q1.golden`.
func TestGoldenQ1(t *testing.T) {
	checkGolden(t, "q1.golden", "-q1")
}

// TestGoldenQ2Q3 pins the Q2 and Q3 tables at 500 trials per point: loss
// rolls, jittered delays and crash ticks, every variant. The golden was
// written by the binary of the commit before the ensemble ran its trials
// one tick at a time; a deliberate change regenerates it with
// `go run ./cmd/hbmc -q2 -q3 -trials 500 -seed 7 | sed '$d' > cmd/hbmc/testdata/q2q3.golden`.
func TestGoldenQ2Q3(t *testing.T) {
	checkGolden(t, "q2q3.golden", "-q2", "-q3", "-trials", "500", "-seed", "7")
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

	// A member count whose trials outrun the per-trial event limit is an
	// error, not a panic.
	out.Reset()
	errs.Reset()
	if code := run([]string{"-q1", "-n", "6000"}, &out, &errs); code != 1 {
		t.Errorf("run(-q1 -n 6000) = %d, want 1", code)
	}
	if !strings.HasPrefix(errs.String(), "hbmc: ") || !strings.Contains(errs.String(), "per-trial limit") {
		t.Errorf("stderr does not report the per-trial event limit:\n%s", errs.String())
	}
	if out.Len() != 0 {
		t.Errorf("run error wrote to stdout:\n%s", out.String())
	}
}
