package models

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mc"
)

// TestEnvelopeAgreesWithCore: the verified family is the deployed one.
// For every accepted envelope, at every level, original and fixed, the
// model's coordinator runs core's operating point, and its participants
// give up and re-solicit exactly when the runtime's participants, which
// run core.Envelope.ResponderConfig, do.
func TestEnvelopeAgreesWithCore(t *testing.T) {
	for _, env := range []Envelope{
		{TMinLo: 2, TMinHi: 2, TMaxLo: 8, TMaxHi: 64},
		{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 16},
		{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8},
		{TMinLo: 1, TMinHi: 1, TMaxLo: 5, TMaxHi: 40},
		{TMinLo: 3, TMinHi: 3, TMaxLo: 3, TMaxHi: 3},
		{TMinLo: 2, TMinHi: 2, TMaxLo: 7, TMaxHi: 100},
	} {
		if err := env.Validate(); err != nil {
			t.Fatalf("%+v: %v", env, err)
		}
		ce := env.Core()
		if env.Levels() != ce.Levels() {
			t.Fatalf("%+v: levels %d vs core %d", env, env.Levels(), ce.Levels())
		}
		for _, fixed := range []bool{false, true} {
			rc := ce.ResponderConfig(core.Config{Fixed: fixed})
			for level := -1; level <= env.Levels(); level++ {
				cfg := env.LevelConfig(Config{Variant: Expanding, N: 1, Fixed: fixed}, level)
				tmin, tmax := ce.Point(level)
				if core.Tick(cfg.TMin) != tmin || core.Tick(cfg.TMax) != tmax {
					t.Errorf("%+v level %d: coordinator at (%d,%d), core point (%d,%d)",
						env, level, cfg.TMin, cfg.TMax, tmin, tmax)
				}
				got := []core.Tick{core.Tick(cfg.responderBound()), core.Tick(cfg.joinerBound()), core.Tick(cfg.TMin)}
				want := []core.Tick{rc.ResponderBound(), rc.JoinerBound(), rc.TMin}
				if !slices.Equal(got, want) {
					t.Errorf("%+v level %d fixed=%v: responder, joiner bound and resend period %v, runtime %v",
						env, level, fixed, got, want)
				}
			}
		}
	}
	for _, env := range []Envelope{
		{TMinLo: 4, TMinHi: 2, TMaxLo: 8, TMaxHi: 8},
		{TMinLo: 1, TMinHi: 2, TMaxLo: 2, TMaxHi: 4},
		{TMinLo: 1, TMinHi: 4, TMaxLo: 5, TMaxHi: 40},
		{TMinLo: 2, TMinHi: 6, TMaxLo: 7, TMaxHi: 100},
	} {
		if err := env.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("%+v accepted: %v", env, err)
		}
	}
}

// TestEnvelopeBounds: an int32 envelope whose tmax doubling would pass
// MaxInt32 still has finitely many levels, each inside the envelope. The
// first row is the last TMaxLo whose double fits, the second one more.
func TestEnvelopeBounds(t *testing.T) {
	const top = int32(math.MaxInt32)
	for _, tc := range []struct {
		env  Envelope
		want []int32 // tmax per level
	}{
		{Envelope{TMinLo: 1, TMinHi: 1, TMaxLo: top / 2, TMaxHi: top}, []int32{top / 2, top - 1, top}},
		{Envelope{TMinLo: 1, TMinHi: 1, TMaxLo: top/2 + 1, TMaxHi: top}, []int32{top/2 + 1, top}},
	} {
		if err := tc.env.Validate(); err != nil {
			t.Fatalf("%+v: %v", tc.env, err)
		}
		if got := tc.env.Levels(); got != len(tc.want) {
			t.Fatalf("%+v.Levels() = %d, want %d", tc.env, got, len(tc.want))
		}
		for lv, want := range tc.want {
			if tmin, tmax := tc.env.Point(lv); tmin != 1 || tmax != want {
				t.Errorf("%+v.Point(%d) = (%d, %d), want (1, %d)", tc.env, lv, tmin, tmax, want)
			}
		}
	}
}

func TestEnvelopeLevelConfig(t *testing.T) {
	env := Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 16}
	base := Config{Variant: Binary, N: 1, Fixed: true}
	for level, want := range [][2]int32{{2, 4}, {2, 8}, {2, 16}} {
		cfg := env.LevelConfig(base, level)
		if cfg.TMin != want[0] || cfg.TMax != want[1] || cfg.WatchdogTMax != 16 {
			t.Fatalf("level %d config = %+v", level, cfg)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("level %d config invalid: %v", level, err)
		}
	}
}

// TestWatchdogDecoupledBounds: participant bounds follow WatchdogTMax, the
// R1 detection bound stays a function of the coordinator's constants.
func TestWatchdogDecoupledBounds(t *testing.T) {
	base := Config{TMin: 4, TMax: 10, Variant: Expanding, N: 1}
	dec := base
	dec.WatchdogTMax = 20
	if dec.responderBound() != 56 || dec.joinerBound() != 56 {
		t.Fatalf("original decoupled bounds: %d %d", dec.responderBound(), dec.joinerBound())
	}
	fixedDec := dec
	fixedDec.Fixed = true
	if fixedDec.responderBound() != 40 || fixedDec.joinerBound() != 44 {
		t.Fatalf("fixed decoupled bounds: %d %d", fixedDec.responderBound(), fixedDec.joinerBound())
	}
	fixedBase := base
	fixedBase.Fixed = true
	if fixedDec.DetectionBound() != fixedBase.DetectionBound() {
		t.Fatalf("r1 bound leaked the watchdog tmax: %d vs %d", fixedDec.DetectionBound(), fixedBase.DetectionBound())
	}
	if _, err := Build(Config{TMin: 2, TMax: 10, WatchdogTMax: 5, Variant: Binary, N: 1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("watchdog below tmax accepted: %v", err)
	}
}

// TestVerifyEnvelopeBinary is the verification closure for the adaptive
// degradation path: R1–R3 hold at every operating point of the envelope
// (corner points included) with the participants' watchdog pinned at the
// envelope ceiling, exactly as the adaptive cluster deploys them.
func TestVerifyEnvelopeBinary(t *testing.T) {
	env := Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 16}
	base := Config{Variant: Binary, N: 1, Fixed: true}
	verdicts, err := VerifyEnvelope(base, env, []Property{R1, R2, R3}, mc.Options{MaxStates: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 9 {
		t.Fatalf("got %d verdicts, want 9 (3 levels x 3 properties)", len(verdicts))
	}
	for _, v := range verdicts {
		if !v.Satisfied {
			t.Errorf("%v fails at (%d,%d):\n%s", v.Property, v.Cfg.TMin, v.Cfg.TMax,
				summary(v.Result.Trace))
		}
		if v.Cfg.WatchdogTMax != env.TMaxHi {
			t.Fatalf("level config lost the watchdog ceiling: %+v", v.Cfg)
		}
	}
	// Corner points: the first verdicts run the floor, the last the top.
	if verdicts[0].Cfg.TMax != 4 || verdicts[len(verdicts)-1].Cfg.TMax != 16 {
		t.Fatalf("corner points missing: first tmax %d, last tmax %d",
			verdicts[0].Cfg.TMax, verdicts[len(verdicts)-1].Cfg.TMax)
	}
}

// TestVerifyEnvelopeDynamic covers the dynamic variant (the one the churn
// campaigns drive) over a two-level envelope.
func TestVerifyEnvelopeDynamic(t *testing.T) {
	env := Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8}
	base := Config{Variant: Dynamic, N: 1, Fixed: true}
	verdicts, err := VerifyEnvelope(base, env, []Property{R1, R2, R3}, mc.Options{MaxStates: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 6 {
		t.Fatalf("got %d verdicts, want 6", len(verdicts))
	}
	for _, v := range verdicts {
		if !v.Satisfied {
			t.Errorf("%v fails at (%d,%d):\n%s", v.Property, v.Cfg.TMin, v.Cfg.TMax,
				summary(v.Result.Trace))
		}
	}
}

func TestVerifyEnvelopeRejectsBadEnvelope(t *testing.T) {
	_, err := VerifyEnvelope(Config{Variant: Binary, N: 1}, Envelope{TMinLo: 0, TMaxLo: 4, TMaxHi: 8},
		[]Property{R1}, mc.Options{})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("invalid envelope accepted: %v", err)
	}
}
