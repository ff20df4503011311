package models

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mc"
)

// Envelope is the model-side view of core.Envelope, the degradation
// clamp of the adaptive variant, in the model's int32 constants. Its
// levels and points are core's: the runtime coordinator only ever retunes
// to one of them, so verifying R1–R3 at every level verifies every
// configuration the adaptive variant can reach.
type Envelope struct {
	// TMinLo and TMinHi bound tmin; the model needs TMinLo == TMinHi.
	TMinLo, TMinHi int32
	// TMaxLo and TMaxHi bound tmax; TMinHi <= TMaxLo <= TMaxHi.
	TMaxLo, TMaxHi int32
}

// Core returns the runtime envelope with the same bounds.
func (e Envelope) Core() core.Envelope {
	return core.Envelope{
		TMinLo: core.Tick(e.TMinLo), TMinHi: core.Tick(e.TMinHi),
		TMaxLo: core.Tick(e.TMaxLo), TMaxHi: core.Tick(e.TMaxHi),
	}
}

// Validate checks core's ordering constraints and that tmin is fixed.
func (e Envelope) Validate() error {
	if err := e.Core().Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if e.TMinHi != e.TMinLo {
		// A level's model runs p[0], its channels and its participants at
		// one tmin, while the runtime's participants stay at TMinLo.
		return fmt.Errorf("%w: envelope tmin must be fixed, got %d..%d: the runtime's participants run at TMinLo while a level's model runs all processes at its one tmin",
			ErrConfig, e.TMinLo, e.TMinHi)
	}
	return nil
}

// Levels is the number of operating points (core.Envelope.Levels).
func (e Envelope) Levels() int { return e.Core().Levels() }

// Point returns the operating point of a level (core.Envelope.Point).
func (e Envelope) Point(level int) (tmin, tmax int32) {
	lo, hi := e.Core().Point(level)
	return int32(lo), int32(hi)
}

// LevelConfig derives the model configuration of one envelope level: the
// coordinator's constants are the level's operating point, while the
// participants' watchdog stays at the envelope ceiling — the split the
// adaptive runtime deploys (participants never learn the current level).
func (e Envelope) LevelConfig(base Config, level int) Config {
	base.TMin, base.TMax = e.Point(level)
	base.WatchdogTMax = e.TMaxHi
	return base
}

// VerifyEnvelope model-checks the given properties at every level of the
// envelope — the closure argument for the adaptive variant: each retune
// lands on a verified operating point, so the degradation path as a whole
// inherits R1–R3 from its corner points and everything between. At each
// level R2 and R3 share one exploration, as under RunTable.
//
//lint:allow unused-export experiment D's verified envelope: go test -run TestVerifyEnvelope ./internal/models/
func VerifyEnvelope(base Config, env Envelope, props []Property, opts mc.Options) ([]Verdict, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	verdicts := make([]Verdict, 0, env.Levels()*len(props))
	for level := 0; level < env.Levels(); level++ {
		vs, err := verifyAll(env.LevelConfig(base, level), props, opts)
		if err != nil {
			return nil, fmt.Errorf("level %d: %w", level, err)
		}
		verdicts = append(verdicts, vs...)
	}
	return verdicts, nil
}
