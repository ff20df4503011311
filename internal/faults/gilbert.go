package faults

import (
	"fmt"

	"repro/internal/sim"
)

// GilbertElliott parameterises the classic two-state bursty-loss channel:
// the channel alternates between a Good and a Bad state, transitioning
// with fixed probabilities on every message, and loses each message with
// a state-dependent probability. With PBadGood small the channel produces
// the correlated loss bursts that the accelerated protocols' tolerance
// bound (~log2(tmax/tmin) consecutive losses) is about, which independent
// Bernoulli loss (netem.LinkConfig.LossProb) cannot express.
type GilbertElliott struct {
	// PGoodBad is the per-message probability of entering the Bad state
	// from the Good state.
	PGoodBad float64
	// PBadGood is the per-message probability of returning to the Good
	// state; its inverse is the mean burst length in messages.
	PBadGood float64
	// LossGood is the loss probability while Good (often 0).
	LossGood float64
	// LossBad is the loss probability while Bad (often close to 1).
	LossBad float64
}

// Validate checks that all four parameters are probabilities.
func (g GilbertElliott) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"PGoodBad", g.PGoodBad},
		{"PBadGood", g.PBadGood},
		{"LossGood", g.LossGood},
		{"LossBad", g.LossBad},
	} {
		if !probOK(p.v) {
			return fmt.Errorf("%w: Gilbert–Elliott %s %v out of [0,1]", ErrSchedule, p.name, p.v)
		}
	}
	return nil
}

// geChannel is the mutable chain state of one Gilbert–Elliott channel:
// the fault-injection transport keeps one per link, starting in the Good
// state.
type geChannel struct {
	params GilbertElliott
	bad    bool
}

// Lose advances the chain one message and reports whether that message is
// lost, drawing from the caller's seeded stream.
//
//hbvet:noalloc
func (c *geChannel) Lose(rng *sim.Stream) bool {
	if c.bad {
		if rng.Float64() < c.params.PBadGood {
			c.bad = false
		}
	} else {
		if rng.Float64() < c.params.PGoodBad {
			c.bad = true
		}
	}
	loss := c.params.LossGood
	if c.bad {
		loss = c.params.LossBad
	}
	return rng.Float64() < loss
}
