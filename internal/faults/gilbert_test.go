package faults

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestGilbertElliottSteadyState checks the chain's long-run loss rate
// against the analytic value. The two-state chain's stationary
// distribution puts PGoodBad/(PGoodBad+PBadGood) mass on Bad (the state
// is advanced before each loss draw, so the draw sees the stationary
// post-transition state), giving
//
//	loss = (1-piBad)*LossGood + piBad*LossBad.
func TestGilbertElliottSteadyState(t *testing.T) {
	cases := []GilbertElliott{
		{PGoodBad: 0.05, PBadGood: 0.5, LossGood: 0, LossBad: 1},
		{PGoodBad: 0.3, PBadGood: 0.3, LossGood: 0.1, LossBad: 0.9},
		{PGoodBad: 0.01, PBadGood: 0.2, LossGood: 0, LossBad: 0.5},
		{PGoodBad: 1, PBadGood: 1, LossGood: 0.2, LossBad: 0.8}, // alternates
	}
	const messages = 400_000
	for i, g := range cases {
		rng := sim.NewStream(int64(1000 + i))
		ch := geChannel{params: g}
		lost := 0
		for m := 0; m < messages; m++ {
			if ch.Lose(rng) {
				lost++
			}
		}
		piBad := g.PGoodBad / (g.PGoodBad + g.PBadGood)
		want := (1-piBad)*g.LossGood + piBad*g.LossBad
		got := float64(lost) / messages
		// Correlated losses inflate the variance of the empirical rate
		// relative to i.i.d. sampling; 1% absolute tolerance is ~10 sigma
		// for the burstiest case here at 400k messages.
		if math.Abs(got-want) > 0.01 {
			t.Errorf("case %d (%+v): loss rate %.4f, analytic %.4f", i, g, got, want)
		}
	}
}
