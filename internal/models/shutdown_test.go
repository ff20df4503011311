package models

import (
	"errors"
	"testing"

	"repro/internal/mc"
	"repro/internal/ta"
)

// TestShutdownGoalHolds verifies the 1998 paper's headline goal on the
// original protocols: after any voluntary inactivation, the whole network
// becomes inactive within ShutdownBound ticks — under arbitrary loss and
// crash interleavings.
func TestShutdownGoalHolds(t *testing.T) {
	configs := []Config{
		{TMin: 1, TMax: 4, Variant: Binary, N: 1},
		{TMin: 2, TMax: 4, Variant: Binary, N: 1},
		{TMin: 4, TMax: 4, Variant: Binary, N: 1},
		{TMin: 2, TMax: 4, Variant: RevisedBinary, N: 1},
		{TMin: 2, TMax: 4, Variant: TwoPhase, N: 1},
		{TMin: 2, TMax: 4, Variant: Expanding, N: 1},
		{TMin: 2, TMax: 4, Variant: Dynamic, N: 1},
		{TMin: 2, TMax: 4, Variant: Binary, N: 1, Fixed: true},
		{TMin: 2, TMax: 4, Variant: Dynamic, N: 1, Fixed: true},
	}
	for _, cfg := range configs {
		v, err := VerifyShutdown(cfg, cfg.ShutdownBound(), mc.Options{MaxStates: 10_000_000})
		if err != nil {
			t.Fatalf("%v tmin=%d fixed=%v: %v", cfg.Variant, cfg.TMin, cfg.Fixed, err)
		}
		if !v.Satisfied {
			t.Errorf("%v tmin=%d fixed=%v: shutdown goal violated within %d ticks",
				cfg.Variant, cfg.TMin, cfg.Fixed, cfg.ShutdownBound())
		}
	}
}

// TestShutdownGoalStatic covers the multi-participant chain: p[1] crashes,
// p[0] detects and inactivates, and p[2]'s watchdog then winds it down.
func TestShutdownGoalStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("static shutdown exploration is heavy; skipped in -short")
	}
	cfg := Config{TMin: 2, TMax: 4, Variant: Static, N: 2}
	v, err := VerifyShutdown(cfg, cfg.ShutdownBound(), mc.Options{MaxStates: 30_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Satisfied {
		t.Fatalf("static shutdown goal violated within %d ticks", cfg.ShutdownBound())
	}
}

// TestShutdownBoundTight: a substantially smaller bound is violated, so
// the property is not vacuous.
func TestShutdownBoundTight(t *testing.T) {
	cfg := Config{TMin: 1, TMax: 4, Variant: Binary, N: 1}
	tight := int32(cfg.Core().CoordinatorDetectionBound()) - 1 // below even the detection bound
	v, err := VerifyShutdown(cfg, tight, mc.Options{MaxStates: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if v.Satisfied {
		t.Fatalf("shutdown within %d ticks unexpectedly holds; monitor may be vacuous", tight)
	}
}

// TestShutdownLeaverExempt: in the dynamic protocol a gracefully departed
// participant must not count as "still active" for the shutdown goal.
func TestShutdownLeaverExempt(t *testing.T) {
	cfg := Config{TMin: 2, TMax: 4, Variant: Dynamic, N: 1}
	// The bound holds even though traces exist where p[1] leaves and
	// p[0] then crashes, with p[1] never inactivating.
	v, err := VerifyShutdown(cfg, cfg.ShutdownBound(), mc.Options{MaxStates: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Satisfied {
		t.Fatal("leaver wrongly counted as a live process")
	}
}

func TestShutdownBoundValidation(t *testing.T) {
	cfg := Config{TMin: 1, TMax: 4, Variant: Binary, N: 1}
	if _, err := BuildWithShutdownMonitor(cfg, 0); err == nil {
		t.Fatal("zero bound accepted")
	}
	if _, err := BuildWithShutdownMonitor(cfg, ta.MaxClockCap-2); err != nil {
		t.Fatalf("largest bound a state key holds: %v", err)
	}
	if _, err := BuildWithShutdownMonitor(cfg, ta.MaxClockCap-1); !errors.Is(err, ErrConfig) {
		t.Fatalf("bound past the key limit: %v, want ErrConfig", err)
	}
	if _, err := VerifyShutdown(Config{}, 10, mc.Options{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}
