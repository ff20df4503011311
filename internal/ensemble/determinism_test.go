package ensemble

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
)

// q3Config is the Q3 false-detection workload: binary {2,16} under loss,
// fast RNG — the shape the throughput acceptance criterion is measured on.
func q3Config(trials, workers int) Config {
	return Config{
		Protocol: ProtocolBinary,
		Core:     core.Config{TMin: 2, TMax: 16},
		N:        1,
		Link:     netem.LinkConfig{LossProb: 0.1},
		Horizon:  4000,
		Trials:   trials,
		Seed:     99,
		Workers:  workers,
		Block:    128,
	}
}

// TestEnsembleWorkerDeterminism pins the byte-identical-at-any-worker-
// count contract: identical campaigns at workers 1 and 8 must agree on
// every aggregate, including the float (Welford) fields and every sketch
// bucket. Run under -race in CI, it doubles as the data-race check on the
// block-claiming discipline.
func TestEnsembleWorkerDeterminism(t *testing.T) {
	configs := []Config{
		q3Config(3000, 1),
		{
			Protocol: ProtocolExpanding,
			Core:     core.Config{TMin: 2, TMax: 16, Fixed: true},
			N:        3,
			Link:     netem.LinkConfig{LossProb: 0.05, MaxDelay: 1},
			CrashAt:  160, CrashJitter: 16, Victim: 2,
			Horizon: 352,
			Trials:  3000,
			Seed:    7,
			Block:   64,
		},
	}
	for _, base := range configs {
		base.Workers = 1
		one, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		base.Workers = 8
		eight, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if one.Trials != eight.Trials || one.Rounds != eight.Rounds || one.Sent != eight.Sent ||
			one.Detected != eight.Detected || one.Missed != eight.Missed ||
			one.FalseTrials != eight.FalseTrials || one.CoordInactivated != eight.CoordInactivated {
			t.Fatalf("counts diverge across worker counts:\n1: %+v\n8: %+v", one, eight)
		}
		if one.Delay != eight.Delay || one.TimeToFalse != eight.TimeToFalse {
			t.Fatalf("Welford aggregates diverge across worker counts:\ndelay %+v vs %+v\nttf %+v vs %+v",
				one.Delay, eight.Delay, one.TimeToFalse, eight.TimeToFalse)
		}
		for name, pair := range map[string][2][]uint64{
			"delay": {one.DelayQ.Buckets, eight.DelayQ.Buckets},
			"ttf":   {one.TimeToFalseQ.Buckets, eight.TimeToFalseQ.Buckets},
		} {
			a, b := pair[0], pair[1]
			if len(a) != len(b) {
				t.Fatalf("%s sketch shapes diverge", name)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s sketch bucket %d diverges: %d vs %d", name, i, a[i], b[i])
				}
			}
		}
	}
}

// TestEnsembleRunRepeatable pins same-seed reproducibility of the fast
// RNG path across two fresh runs.
func TestEnsembleRunRepeatable(t *testing.T) {
	a, err := Run(q3Config(2000, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(q3Config(2000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.FalseTrials != b.FalseTrials || a.Sent != b.Sent || a.TimeToFalse != b.TimeToFalse {
		t.Fatalf("same-seed runs diverge: %+v vs %+v", a, b)
	}
}

// TestEnsembleValidation exercises the config guards.
func TestEnsembleValidation(t *testing.T) {
	bad := []Config{
		{}, // unknown protocol
		func() Config { c := q3Config(10, 1); c.Link.MaxDelay = 2; return c }(),           // MaxDelay >= TMin
		func() Config { c := q3Config(10, 1); c.Trials = 0; return c }(),                  // no trials
		func() Config { c := q3Config(10, 1); c.CrashAt = 5; return c }(),                 // crash without victim
		func() Config { c := q3Config(10, 1); c.Victim = 4; c.CrashAt = 5; return c }(),   // victim out of range
		func() Config { c := q3Config(10, 1); c.Core = core.Config{TMax: 4}; return c }(), // core invalid
		func() Config { c := q3Config(10, 1); c.Link.LossProb = 1.5; return c }(),         // loss out of range
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
