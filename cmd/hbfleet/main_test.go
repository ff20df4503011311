package main

import (
	"strings"
	"testing"
)

// The CI smoke configuration: a ~10k-endpoint fleet with fault injection
// must hold every health invariant (zero missed deadlines, no silent
// shard links, no stale aggregator children) and a 0-alloc steady state.
func TestSmoke10kEndpoints(t *testing.T) {
	var buf strings.Builder
	code := run([]string{
		"-clusters", "157", "-members", "64",
		"-epochs", "10", "-warmup", "2",
		"-kill-every", "50",
		"-alloc-check",
	}, &buf)
	out := buf.String()
	if code != 0 {
		t.Fatalf("smoke run failed (%d):\n%s", code, out)
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

func TestBadFlagsRejected(t *testing.T) {
	var buf strings.Builder
	if code := run([]string{"-clusters", "0"}, &buf); code == 0 {
		t.Error("zero clusters accepted")
	}
	if code := run([]string{"-nope"}, &buf); code != 2 {
		t.Error("unknown flag not a usage error")
	}
}
