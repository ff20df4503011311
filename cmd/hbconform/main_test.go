package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestConformGoldenMutantDivergence pins the divergence report for the expiry+1
// mutant: the crash of p[0] forces the model to inactivate p[1] at the
// bound, the late watchdog stays silent, and the checker renders the MSC
// prefix plus the stuck-time explanation. This is the user-facing shape of
// every conformance failure, so it gets a golden file.
func TestConformGoldenMutantDivergence(t *testing.T) {
	checkGolden(t, "mutant_expiry", 1,
		"-variant", "binary", "-tmin", "2", "-tmax", "4", "-fixed",
		"-horizon", "30", "-schedule", "crash t=9 node=0",
		"-mutate", "expiry+1", "-seed", "3")
}

// TestConformGoldenCleanRun pins the conforming single-run output, including the
// summary line and verdict section.
func TestConformGoldenCleanRun(t *testing.T) {
	checkGolden(t, "clean_run", 0,
		"-variant", "binary", "-tmin", "2", "-tmax", "4", "-fixed",
		"-horizon", "24", "-seed", "1")
}

// TestConformGoldenConsistentViolation pins the verdict-diff output for an
// unfixed run that overshoots the claimed bound — the runtime monitor
// fires and the model checker confirms the violation is reachable, so the
// run still exits 0.
func TestConformGoldenConsistentViolation(t *testing.T) {
	checkGolden(t, "consistent_violation", 0,
		"-variant", "binary", "-tmin", "1", "-tmax", "3",
		"-horizon", "20", "-schedule", "loss t=0 all pgb=1 pbg=0 lb=1",
		"-seed", "5")
}

// TestConformGoldenStreamMutant pins the online-checking output for the
// expiry+1 mutant: the stream checker catches the same divergence as
// offline replay (the MSC render is byte-identical), then attaches a
// shrunk offline reproduction to the incident.
func TestConformGoldenStreamMutant(t *testing.T) {
	checkGolden(t, "stream_mutant", 1,
		"-stream", "-variant", "binary", "-tmin", "2", "-tmax", "4", "-fixed",
		"-horizon", "30", "-schedule", "crash t=9 node=0",
		"-mutate", "expiry+1", "-seed", "3")
}

// TestConformGoldenStreamClean pins the conforming online-checking output.
func TestConformGoldenStreamClean(t *testing.T) {
	checkGolden(t, "stream_clean", 0,
		"-stream", "-variant", "binary", "-tmin", "2", "-tmax", "4", "-fixed",
		"-horizon", "24", "-seed", "1")
}

// TestConformGoldenStreamViolation pins the incident line for a runtime
// R1 violation the model confirms reachable: reported online through the
// incident path, exit status stays 0.
func TestConformGoldenStreamViolation(t *testing.T) {
	checkGolden(t, "stream_violation", 0,
		"-stream", "-variant", "binary", "-tmin", "1", "-tmax", "3",
		"-horizon", "20", "-schedule", "loss t=0 all pgb=1 pbg=0 lb=1",
		"-seed", "5")
}

// TestStreamRenderMatchesOffline requires the streamed divergence report
// to embed the exact MSC render the offline checker produces for the same
// run — the byte-identical-incident contract, checked end to end through
// the CLI.
func TestStreamRenderMatchesOffline(t *testing.T) {
	args := []string{
		"-variant", "binary", "-tmin", "2", "-tmax", "4", "-fixed",
		"-horizon", "30", "-schedule", "crash t=9 node=0",
		"-mutate", "expiry+1", "-seed", "3",
	}
	var offline, stream, errs bytes.Buffer
	if code := run(args, &offline, &errs); code != 1 {
		t.Fatalf("offline run = %d, want 1\n%s%s", code, offline.String(), errs.String())
	}
	if code := run(append([]string{"-stream"}, args...), &stream, &errs); code != 1 {
		t.Fatalf("stream run = %d, want 1\n%s%s", code, stream.String(), errs.String())
	}
	off := offline.Bytes()
	start := bytes.Index(off, []byte("trace before divergence"))
	end := bytes.Index(off, []byte("model allows: "))
	if start < 0 || end < start {
		t.Fatalf("offline output has no divergence section:\n%s", offline.String())
	}
	section := off[start : end+bytes.IndexByte(off[end:], '\n')+1]
	if !bytes.Contains(stream.Bytes(), section) {
		t.Fatalf("stream output does not embed the offline render:\noffline:\n%s\nstream:\n%s",
			offline.String(), stream.String())
	}
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
		{[]string{"-mutate", "expiry+1"}, "hbconform: -schedule/-mutate/-stream need single-run mode"},
		{[]string{"-stream"}, "hbconform: -schedule/-mutate/-stream need single-run mode"},
		{[]string{"-variant", "binary", "-horizon", "5", "-mutate", "nope"}, `unknown mutation "nope"`},
		{[]string{"-variant", "binary", "-horizon", "5", "-schedule", "frobnicate t=1"}, "hbconform: schedule:"},
		{[]string{"-variant", "binary", "-horizon", "5", "-tmin", "0"}, "hbconform:"},
		{[]string{"-variant", "binary", "-horizon", "5", "-stream", "-tmin", "0"}, "hbconform:"},
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
	if code := run([]string{"-nope"}, &out, &errs); code != 2 || out.Len() != 0 || !strings.Contains(errs.String(), "-nope") {
		t.Errorf("run(-nope) = %d, stdout %q, stderr %q", code, out.String(), errs.String())
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
