package models

import (
	"testing"

	"repro/internal/mc"
)

// TestStateSpacePins regression-pins the exact reachable state and
// transition counts of every variant at (tmin=2, tmax=4). The packed
// state store must explore the identical state space as the original
// map-based BFS, so any drift here means the checker's semantics — not
// just its speed — changed.
func TestStateSpacePins(t *testing.T) {
	t.Parallel()
	cases := []struct {
		variant             Variant
		n                   int
		states, transitions int
	}{
		{Binary, 1, 6484, 13247},
		{RevisedBinary, 1, 6987, 14273},
		{TwoPhase, 1, 6484, 13247},
		{Static, 2, 599689, 1641988},
		{Expanding, 1, 55831, 140904},
		{Dynamic, 1, 101306, 267496},
	}
	pin := func(cfg Config, wantStates, wantTransitions int) {
		m, err := Build(cfg)
		if err != nil {
			t.Fatalf("Build(%+v): %v", cfg, err)
		}
		states, transitions, err := countStates(m.Net, mc.Options{})
		if err != nil {
			t.Fatalf("countStates(%+v): %v", cfg, err)
		}
		if states != wantStates || transitions != wantTransitions {
			t.Errorf("%+v: %d states, %d transitions; pinned %d, %d",
				cfg, states, transitions, wantStates, wantTransitions)
		}
	}
	for _, tc := range cases {
		pin(Config{TMin: 2, TMax: 4, Variant: tc.variant, N: tc.n}, tc.states, tc.transitions)
	}
	// The corrected bounds (two-phase's detection bound differs from
	// binary's at (1,4)) and the watchdog split of the topology envelope's
	// level 0, where the participants' bounds derive from TMaxHi.
	topo := Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8}
	for _, tc := range []struct {
		cfg                 Config
		states, transitions int
	}{
		{Config{TMin: 1, TMax: 4, Variant: Binary, N: 1, Fixed: true}, 4448, 8334},
		{Config{TMin: 1, TMax: 4, Variant: RevisedBinary, N: 1, Fixed: true}, 4639, 8707},
		{Config{TMin: 1, TMax: 4, Variant: TwoPhase, N: 1, Fixed: true}, 2361, 4358},
		{Config{TMin: 2, TMax: 4, Variant: Static, N: 1, Fixed: true}, 4540, 9053},
		{Config{TMin: 2, TMax: 4, Variant: Expanding, N: 1, Fixed: true}, 37227, 91329},
		{Config{TMin: 2, TMax: 4, Variant: Dynamic, N: 1, Fixed: true}, 69704, 178150},
		{topo.LevelConfig(Config{Variant: Expanding, N: 1, Fixed: true}, 0), 70477, 171237},
		{topo.LevelConfig(Config{Variant: Static, N: 1}, 0), 6920, 13850},
	} {
		pin(tc.cfg, tc.states, tc.transitions)
	}
}
