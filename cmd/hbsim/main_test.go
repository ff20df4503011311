package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden runs hbsim with args and compares stdout against
// testdata/<name>.golden. The goldens were written by the binary of the
// commit before the plain baseline moved onto detector.NewCluster, so they
// pin "the printed tables did not move"; a deliberate change regenerates
// them with `go run ./cmd/hbsim <args> > cmd/hbsim/testdata/<name>.golden`.
func checkGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out, errs bytes.Buffer
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("run(%v) = %d\n%s%s", args, code, out.String(), errs.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("hbsim %v differs from testdata/%s.golden:\ngot:\n%s\nwant:\n%s", args, name, out.Bytes(), want)
	}
}

func TestGoldenOverhead(t *testing.T) { checkGolden(t, "overhead", "-exp", "overhead") }

func TestGoldenReliability(t *testing.T) {
	checkGolden(t, "reliability", "-exp", "reliability", "-trials", "20", "-seed", "1")
}

// TestBadInputRejected: what arrives on the command line fails with an
// error naming it, not a usage-free exit 0.
func TestBadInputRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-nope"}, 2, "-nope"},
		{[]string{"-exp", "latency"}, 1, `"latency"`},
		{[]string{"-faults", ""}, 1, "empty schedule"},
		// A skew that would wrap the node's local clock negative.
		{[]string{"-trials", "1", "-faults", "drift t=5 node=1 rate=1/1 skew=9223372036854775807"}, 1, "9223372036854775807"},
		{[]string{"-trials", "1", "-faults", "drift t=5 node=1 rate=1/1 skew=-9223372036854775807"}, 1, "-9223372036854775807"},
	} {
		var out, errs bytes.Buffer
		if code := run(tc.args, &out, &errs); code != tc.code {
			t.Errorf("run(%q) = %d, want %d\n%s", tc.args, code, tc.code, errs.String())
		}
		if !strings.Contains(errs.String(), tc.want) {
			t.Errorf("run(%q) stderr does not name %s:\n%s", tc.args, tc.want, errs.String())
		}
	}
}

// TestGoldenTopo: the golden was written while -exp topo still recorded
// each trial and replayed it offline, so it also pins that checking online
// (what every conformance campaign, and the sim_campaign benchmark, runs)
// reports the same campaigns.
func TestGoldenTopo(t *testing.T) { checkGolden(t, "topo", "-exp", "topo", "-trials", "3") }

// TestGoldenFaults pins a supervised fault campaign: a crash, a partition
// and a bursty loss episode, so restarts, backoff jitter, EventDown and
// rejoins all occur in every trial.
func TestGoldenFaults(t *testing.T) {
	checkGolden(t, "faults", "-trials", "20", "-seed", "7", "-faults",
		"seed 42; loss t=0 all pgb=0.02 pbg=0.4 lb=0.8; crash t=200 node=1; partition t=400 node=2; heal t=900 node=2; restart t=800 node=1")
}
