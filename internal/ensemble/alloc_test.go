package ensemble

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
)

// TestEnsembleStepAllocFree pins the 0-allocs-per-block contract on the
// fast-RNG hot path: after engine construction, running a block touches
// only the preallocated SoA rows and tick queue. The binary row runs the
// register-resident path; the other two run the generic tick kernel with
// full same-tick queues — zero-delay deliveries under loss, and §6.1 hops
// with jittered delays, joins and a crash.
func TestEnsembleStepAllocFree(t *testing.T) {
	static := q3Config(256, 1)
	static.Protocol, static.N, static.Link.LossProb = ProtocolStatic, 3, 0.2
	for _, row := range []struct {
		name string
		cfg  Config
	}{
		{"binary", q3Config(256, 1)},
		{"static", static},
		{"expanding-fixed", Config{
			Protocol: ProtocolExpanding,
			Core:     core.Config{TMin: 2, TMax: 16, Fixed: true},
			N:        3,
			Link:     netem.LinkConfig{LossProb: 0.1, MaxDelay: 1},
			CrashAt:  160, CrashJitter: 16, Victim: 2,
			Horizon: 1000,
			Trials:  256,
			Seed:    7,
		}},
	} {
		cfg, err := row.cfg.validate()
		if err != nil {
			t.Fatal(err)
		}
		eng := newEngine(cfg, 256)
		eng.runBlock(0, 256) // warm-up block
		allocs := testing.AllocsPerRun(5, func() {
			eng.runBlock(0, 256)
		})
		if allocs != 0 {
			t.Errorf("%s: running a block allocates: %v allocs per block, want 0", row.name, allocs)
		}
	}
}

// TestEnsembleEngineSizedToTrials: a Run of fewer trials than Block
// builds its engine for the trials it has. An engine sized to the default
// Block of 4096 would hold ≈13 MB of n=64 rows for this one trial.
func TestEnsembleEngineSizedToTrials(t *testing.T) {
	cfg := Config{
		Protocol: ProtocolStatic,
		Core:     core.Config{TMin: 2, TMax: 16},
		N:        64,
		Horizon:  1000,
		Trials:   1,
		Seed:     1,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 256 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("one-trial n=64 Run allocated %d B, want at most %d", got, limit)
	}
}
