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
	for _, tc := range cases {
		m, err := Build(Config{TMin: 2, TMax: 4, Variant: tc.variant, N: tc.n})
		if err != nil {
			t.Fatalf("Build(%v): %v", tc.variant, err)
		}
		states, transitions, err := mc.CountStates(m.Net, mc.Options{})
		if err != nil {
			t.Fatalf("CountStates(%v): %v", tc.variant, err)
		}
		if states != tc.states || transitions != tc.transitions {
			t.Errorf("%v (n=%d): %d states, %d transitions; pinned %d, %d",
				tc.variant, tc.n, states, transitions, tc.states, tc.transitions)
		}
	}
}
