package main

import (
	"errors"
	"strings"
	"testing"
)

// The CI smoke configuration: a ~10k-endpoint fleet with fault injection
// must hold every health invariant (zero missed deadlines, no silent
// shard links, no stale aggregator children) and a 0-alloc steady state.
func TestSmoke10kEndpoints(t *testing.T) {
	var buf, errs strings.Builder
	code := run([]string{
		"-clusters", "157", "-members", "64",
		"-epochs", "10", "-warmup", "2",
		"-kill-every", "50",
		"-alloc-check",
	}, &buf, &errs)
	out := buf.String()
	if code != 0 || errs.Len() != 0 {
		t.Fatalf("smoke run failed (%d):\n%s%s", code, out, errs.String())
	}
	for _, want := range []string{
		"fleet: 10048 endpoints",
		"0 missed deadlines, 0 silent links, 0 stale children",
		"steady state: 0 allocs/epoch",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// The header reports the fleet New built, not the flags: 10 clusters
// cannot fill 64 shards, and a worker count of 0 means one worker.
func TestHeaderReportsSettledFleet(t *testing.T) {
	var out, errs strings.Builder
	code := run([]string{"-clusters", "10", "-members", "4", "-shards", "64", "-workers", "0", "-epochs", "1", "-warmup", "0"}, &out, &errs)
	if code != 0 {
		t.Fatalf("run = %d:\n%s%s", code, out.String(), errs.String())
	}
	if want := "fleet: 40 endpoints (10 clusters x 4), 10 shards, 1 workers\n"; !strings.HasPrefix(out.String(), want) {
		t.Errorf("header:\n%s\nwant %q", out.String(), want)
	}
}

func TestBadFlagsRejected(t *testing.T) {
	var out, buf strings.Builder
	if code := run([]string{"-clusters", "0"}, &out, &buf); code == 0 {
		t.Error("zero clusters accepted")
	}
	if code := run([]string{"-nope"}, &out, &buf); code != 2 {
		t.Error("unknown flag not a usage error")
	}
	for _, args := range [][]string{
		{"-epochs", "-1"}, {"-warmup", "-1"}, {"-shards", "-3"}, {"-workers", "-2"},
		{"-clusters", "100", "-members", "4", "-shards", "-3", "-workers", "-2", "-epochs", "1"},
	} {
		buf.Reset()
		if code := run(args, &out, &buf); code != 2 || !strings.Contains(buf.String(), "must not be negative") {
			t.Errorf("run(%q) = %d, want 2 with a usage message:\n%s", args, code, buf.String())
		}
	}
	// Values fleet.New used to take on trust: the first died with
	// "runtime: out of memory", the second silently lost every message.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-clusters", "4", "-members", "4", "-epochs", "2", "-warmup", "1", "-tmax", "4000000000"}, "4000000000"},
		{[]string{"-clusters", "4", "-members", "4", "-epochs", "2", "-warmup", "1", "-loss", "2"}, "loss probability 2"},
		{[]string{"-loss", "-1"}, "loss probability -1"},
		{[]string{"-loss", "NaN"}, "loss probability NaN"},
		{[]string{"-kill-every", "-5"}, "KillEvery -5"},
	} {
		buf.Reset()
		if code := run(tc.args, &out, &buf); code != 1 || !strings.Contains(buf.String(), tc.want) {
			t.Errorf("run(%q) = %d, want 1 with a message on stderr naming %q:\n%s", tc.args, code, tc.want, buf.String())
		}
	}
}

// An epoch that fails inside -alloc-check used to panic out of
// testing.AllocsPerRun; it is one "hbfleet:" line on stderr and exit
// status 1, and no steady-state verdict is printed over the wreck.
func TestAllocCheckEpochError(t *testing.T) {
	var out, errs strings.Builder
	calls := 0
	code := steadyStateAllocs(func() error {
		if calls++; calls == 3 {
			return errors.New("fleet: bad frame: unknown tag 242")
		}
		return nil
	}, &out, &errs)
	if code != 1 || errs.String() != "hbfleet: fleet: bad frame: unknown tag 242\n" || out.Len() != 0 {
		t.Errorf("steadyStateAllocs = %d, stdout %q, stderr %q; want 1, nothing, one hbfleet: line", code, out.String(), errs.String())
	}
	if calls != 3 {
		t.Errorf("%d epochs ran, want the check to stop at the failing third", calls)
	}
}
