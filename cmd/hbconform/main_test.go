package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/conform"
	"repro/internal/faults"
	"repro/internal/models"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden runs hbconform with args, requires exit status want and a
// silent stderr, and compares stdout against testdata/<name>.golden.
// `go test -update` rewrites the files.
func checkGolden(t *testing.T, name string, want int, args ...string) {
	t.Helper()
	var buf, errs bytes.Buffer
	if code := run(args, &buf, &errs); code != want || errs.Len() != 0 {
		t.Fatalf("run(%v) = %d, want %d\n%s%s", args, code, want, buf.String(), errs.String())
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantOut, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -update` in cmd/hbconform to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), wantOut) {
		t.Fatalf("output differs from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
			path, buf.Bytes(), wantOut)
	}
}

// TestConformGoldenStreamMutant pins the divergence report for the
// expiry+1 mutant: the crash of p[0] forces the model to inactivate p[1]
// at the bound, the late watchdog stays silent, and the checker renders
// the MSC prefix plus the stuck-time explanation, then a shrunk
// reproduction. This is the user-facing shape of every conformance
// failure, so it gets a golden file.
func TestConformGoldenStreamMutant(t *testing.T) {
	checkGolden(t, "stream_mutant", 1,
		"-variant", "binary", "-tmin", "2", "-tmax", "4", "-fixed",
		"-horizon", "30", "-schedule", "crash t=9 node=0",
		"-mutate", "expiry+1", "-seed", "3")
}

// TestConformGoldenStreamClean pins the conforming single-run output,
// including the summary line and verdict section.
func TestConformGoldenStreamClean(t *testing.T) {
	checkGolden(t, "stream_clean", 0,
		"-variant", "binary", "-tmin", "2", "-tmax", "4", "-fixed",
		"-horizon", "24", "-seed", "1")
}

// TestConformGoldenStreamViolation pins the incident line for an unfixed
// run that overshoots the claimed bound: the runtime monitor fires and the
// model checker confirms the violation is reachable, so the exit status
// stays 0.
func TestConformGoldenStreamViolation(t *testing.T) {
	checkGolden(t, "stream_violation", 0,
		"-variant", "binary", "-tmin", "1", "-tmax", "3",
		"-horizon", "20", "-schedule", "loss t=0 all pgb=1 pbg=0 lb=1",
		"-seed", "5")
}

// TestBadFlags: what the command line got wrong is one "hbconform:" line
// on stderr (the flag package's own report for an unknown flag), exit
// status 2, and nothing on stdout in front of a report.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-variant", "nope", "-horizon", "5"}, `hbconform: unknown variant "nope"`},
		{[]string{"-variant", "nope"}, `hbconform: unknown variant "nope"`},
		{[]string{"-mutate", "expiry+1"}, "hbconform: -schedule/-mutate need single-run mode"},
		{[]string{"-variant", "all", "-horizon", "5"}, `hbconform: unknown variant "all" (single-run mode has binary, `},
		{[]string{"-variant", "binary", "-horizon", "20", "-n", "3"}, "hbconform: conform: unsupported configuration: the binary protocol has exactly one participant"},
		{[]string{"-variant", "two-phase", "-horizon", "20", "-n", "2"}, "hbconform: conform: unsupported configuration"},
		{[]string{"-variant", "binary", "-horizon", "5", "-mutate", "nope"}, `unknown mutation "nope"`},
		{[]string{"-variant", "binary", "-horizon", "5", "-schedule", "frobnicate t=1"}, "hbconform: schedule:"},
		{[]string{"-variant", "binary", "-horizon", "5", "-tmin", "0"}, "hbconform:"},
		{[]string{"-variant", "binary", "-walks", "0"}, "hbconform: -walks 0:"},
		{[]string{"-variant", "binary", "-walks", "-1"}, "hbconform: -walks -1:"},
	} {
		var out, errs bytes.Buffer
		if code := run(tc.args, &out, &errs); code != 2 {
			t.Errorf("run(%q) = %d, want 2\n%s", tc.args, code, errs.String())
		}
		msg := errs.String()
		if out.Len() != 0 || !strings.Contains(msg, tc.want) || strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
			t.Errorf("run(%q): stdout %q, stderr %q; want the one line %q on stderr", tc.args, out.String(), msg, tc.want)
		}
	}
	var out, errs bytes.Buffer
	// -stream is no flag: every run is checked online.
	for _, flag := range []string{"-nope", "-stream"} {
		out.Reset()
		errs.Reset()
		if code := run([]string{flag}, &out, &errs); code != 2 || out.Len() != 0 || !strings.Contains(errs.String(), flag) {
			t.Errorf("run(%s) = %d, stdout %q, stderr %q", flag, code, out.String(), errs.String())
		}
	}
	// One walk is the smallest campaign.
	out.Reset()
	errs.Reset()
	if code := run([]string{"-variant", "binary", "-walks", "1"}, &out, &errs); code != 0 || errs.Len() != 0 {
		t.Errorf("run(-walks 1) = %d, stderr %q", code, errs.String())
	}
}

// TestConformGoldenWalksAll pins walk mode: every variant's 200-walk
// campaign, byte for byte at one worker and at four.
func TestConformGoldenWalksAll(t *testing.T) {
	for _, workers := range []string{"1", "4"} {
		checkGolden(t, "walks_all", 0, "-variant", "all", "-walks", "200", "-seed", "1", "-workers", workers)
	}
}

// TestReportFailure pins walk mode's failure report, which no golden
// reaches: a clean campaign has no failures to report.
func TestReportFailure(t *testing.T) {
	sched, err := faults.ParseSchedule("crash t=200 node=1; restart t=260 node=1")
	if err != nil {
		t.Fatal(err)
	}
	f := conform.WalkFailure{
		Walk: 7,
		Run: conform.RunConfig{
			Model:    models.Config{TMin: 2, TMax: 4, Variant: models.Expanding, N: 2, Fixed: true},
			Seed:     9,
			Horizon:  300,
			MaxDelay: 1,
			Schedule: sched,
		},
		Mismatches: []*conform.Incident{{Kind: conform.IncidentViolation, Prop: models.R1, Time: 42, Proc: 1}},
	}
	var buf bytes.Buffer
	if err := reportFailure(&buf, f); err != nil {
		t.Fatal(err)
	}
	const want = "\nwalk 7 FAILED; reproduce with:\n" +
		"  hbconform -variant expanding -tmin 2 -tmax 4 -n 2 -fixed=true -seed 9 -horizon 300 -maxdelay 1 -schedule 'crash t=200 node=1; restart t=260 node=1;'\n" +
		"verdict R1 violated at t=42 (p[1]) but the model proves it satisfied\n"
	if got := buf.String(); got != want {
		t.Errorf("report:\n%q\nwant\n%q", got, want)
	}
}
