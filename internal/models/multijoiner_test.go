package models

import (
	"testing"

	"repro/internal/mc"
)

// Table 2 of the analysis is written for p[0] plus two joiners; hbcheck
// regenerates it at N=1. These tests check N=2 cells outright, which only
// the quotient of the verdict path makes affordable: a two-joiner network
// has millions of states even at tmax = 3 (EXPERIMENTS.md records all 30
// cells at N=2).

// twoJoinersViolateR2 checks that the Figure 13 joiner violation is still
// found with two concurrent joiners.
func twoJoinersViolateR2(t *testing.T, variant Variant) {
	if testing.Short() {
		t.Skip("two-joiner exploration is heavy; skipped in -short")
	}
	cfg := Config{TMin: 5, TMax: 10, Variant: variant, N: 2}
	v, err := Verify(cfg, R2, mc.Options{MaxStates: 4_000_000})
	if err != nil {
		t.Fatalf("%v: %v", variant, err)
	}
	if v.Satisfied {
		t.Errorf("%v N=2 tmin=5: R2 unexpectedly satisfied", variant)
	}
}

func TestExpandingTwoJoinersR2(t *testing.T) { twoJoinersViolateR2(t, Expanding) }
func TestDynamicTwoJoinersR2(t *testing.T)   { twoJoinersViolateR2(t, Dynamic) }

// TestTwoJoinersSatisfiedCells exhausts satisfied cells of Table 2 at N=2,
// one per protocol.
func TestTwoJoinersSatisfiedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("two-joiner exploration is heavy; skipped in -short")
	}
	t.Parallel()
	for _, tc := range []struct {
		variant Variant
		tmin    int32
		prop    Property
	}{
		{Expanding, 1, R3},
		{Dynamic, 4, R2},
	} {
		cfg := Config{TMin: tc.tmin, TMax: 10, Variant: tc.variant, N: 2}
		v, err := Verify(cfg, tc.prop, mc.Options{MaxStates: 4_000_000})
		if err != nil {
			t.Fatalf("%v N=2 tmin=%d %v: %v", tc.variant, tc.tmin, tc.prop, err)
		}
		if !v.Satisfied {
			t.Errorf("%v N=2 tmin=%d: %v violated", tc.variant, tc.tmin, tc.prop)
		}
		t.Logf("%v N=2 tmin=%d %v: %d quotient states", tc.variant, tc.tmin, tc.prop, v.Result.StatesExplored)
	}
}

// TestStaticThreeParticipantsR2 exhausts the static protocol's largest
// satisfied R2 cell with three participants, whose unreduced network
// passes 20M states.
func TestStaticThreeParticipantsR2(t *testing.T) {
	if testing.Short() {
		t.Skip("three-participant exploration is heavy; skipped in -short")
	}
	t.Parallel()
	cfg := Config{TMin: 9, TMax: 10, Variant: Static, N: 3}
	v, err := Verify(cfg, R2, mc.Options{MaxStates: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Satisfied {
		t.Error("static n=3 tmin=9: R2 violated")
	}
	t.Logf("static n=3 tmin=9 R2: %d quotient states", v.Result.StatesExplored)
}
