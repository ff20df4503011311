package ensemble

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
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

	// The per-trial event limit. A lossless, delay-free binary trial
	// schedules two events at Start and four per round (the beat, the
	// round re-arm, the reply, the watchdog re-arm), one round every TMax
	// ticks, so round R leaves the seq counter at 2+4R. The first round
	// that would pass seqMask-1 runs at tick rounds·TMax: a horizon one
	// tick short of it runs, one that reaches it fails with the limit.
	const tmax = 2
	rounds := sim.Time((seqMask-1-2)/4 + 1)
	limit := func(horizon sim.Time, trials, workers int) Config {
		return Config{Protocol: ProtocolBinary, Core: core.Config{TMin: tmax, TMax: tmax}, N: 1,
			Horizon: horizon, Trials: trials, Seed: 1, Workers: workers, Block: 1}
	}
	res, err := Run(limit(rounds*tmax-1, 1, 1))
	if err != nil {
		t.Errorf("horizon %d, one tick below the event limit: %v", rounds*tmax-1, err)
	} else if res.Rounds != uint64(rounds-1) {
		t.Errorf("horizon %d ran %d rounds, want %d", rounds*tmax-1, res.Rounds, rounds-1)
	}
	for _, workers := range []int{1, 2} {
		_, err := Run(limit(rounds*tmax, 2, workers))
		if !errors.Is(err, errSeqOverflow) || !strings.Contains(err.Error(), strconv.FormatUint(seqMask-1, 10)) {
			t.Errorf("horizon %d at %d workers: %v, want the per-trial event limit %d", rounds*tmax, workers, err, seqMask-1)
		}
	}
}

// TestEnsembleSlotsSuffice shows the engine's slot-overflow panics cannot
// be reached from a Config: at the largest MaxDelay validation accepts,
// TMin-1, every variant runs lossy, jittered trials to completion (with
// a crash, §6.1 hops and blocks that do not divide the trials), and at
// MaxDelay = TMin Run refuses the config.
func TestEnsembleSlotsSuffice(t *testing.T) {
	for _, fixed := range []bool{false, true} {
		for _, v := range Variants(3) {
			c := v.coreFor(3, 24)
			c.Fixed = fixed
			cfg := Config{
				Protocol: v.Protocol, Core: c, N: v.N,
				Link:   netem.LinkConfig{LossProb: 0.2, MaxDelay: sim.Time(c.TMin) - 1},
				Victim: 1, CrashAt: 300, CrashJitter: 24,
				Horizon: 1500, Trials: 150, Seed: 5, Workers: 2, Block: 40,
			}
			if _, err := Run(cfg); err != nil {
				t.Errorf("%s fixed=%v at MaxDelay = TMin-1: %v", v.Name, fixed, err)
			}
			cfg.Link.MaxDelay = sim.Time(c.TMin)
			if _, err := Run(cfg); err == nil {
				t.Errorf("%s fixed=%v at MaxDelay = TMin accepted", v.Name, fixed)
			}
		}
	}
}
