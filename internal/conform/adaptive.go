package conform

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/models"
)

// PiecewiseResult is the outcome of envelope-aware piecewise trace
// checking. A campaign gates on Unconfirmed == nil: every event either
// matched the specification in force, was a model-confirmed envelope
// transition, or belongs to a runtime mechanism that is excluded from
// conformance by design (and said so with an honest label).
type PiecewiseResult struct {
	// Unconfirmed is the first divergence no rule explains, nil when the
	// whole trace (and the passage of time up to the horizon) is covered.
	Unconfirmed *Divergence
	// Confirmed counts divergences explained by design: the runtime leave
	// handshake, restarts, rejoins, and stray beats between participants.
	Confirmed int
	// Degraded counts events outside the level alphabet seen in degraded
	// mode — between a saturated retune (the coordinator re-holding the
	// envelope ceiling) and the next level change, where the runtime
	// intentionally behaves like a plain heartbeat rather than the
	// accelerated model.
	Degraded int
	// Retunes counts envelope transitions, each confirmed against the
	// envelope's level set before the checker switched specifications.
	Retunes int
	// Saturations counts retunes that re-held the current point: the
	// degradation endpoint where widening has nowhere left to go.
	Saturations int
	// FinalLevel is the envelope level whose specification was in force
	// when the trace ended.
	FinalLevel int
}

// CheckTraceAdaptive replays a recorded trace of an adaptive cluster
// against the envelope's family of specifications, piecewise:
//
//   - Between retunes the trace must be included in the LTS of the level
//     in force, exactly as Spec.CheckTrace demands — same antichain
//     simulation, same tick discipline.
//   - A retune label is confirmed by locating its operating point among
//     the envelope's levels (a point outside the verified family is an
//     unconfirmed divergence). The checker then switches to that level's
//     specification with the frontier reseeded to every state: the model
//     family has no transition connecting the levels, so the suffix is
//     checked against all continuations of the new level.
//   - Divergences at by-design non-model events (alphabet.Kind.ByDesign) are
//     counted and the frontier likewise reseeded at the current level.
//   - A retune that re-holds the current point is saturation: the
//     coordinator is at the envelope ceiling under sustained loss,
//     converting every round into a grace round — plain-heartbeat
//     behaviour that is deliberately NOT a trace of the fixed top-level
//     model (whose reachable states correlate a silent member's watchdog
//     with the coordinator's decayed budget and so force a suspicion the
//     degraded runtime refuses). From that point until the next level
//     change the checker is in degraded mode: trace inclusion is
//     suspended (there is no model to check against), events outside the
//     level's alphabet are counted in Degraded, and checking resumes
//     from the all-states frontier at the next level change.
//
// The all-states reseed — and degraded mode's suspended checking — make
// the piecewise check an over-approximation after the first confirmed
// divergence: it can miss a real divergence, never invent one, so "zero
// unconfirmed divergences" remains a sound campaign gate.
// Like Spec.CheckTrace it is a thin offline loop over the incremental
// streamEngine, so offline piecewise replay and online streaming
// (StreamChecker over an envelope) return identical results by
// construction.
func (c *CampaignCheck) CheckTraceAdaptive(events []Event, horizon core.Tick) (*PiecewiseResult, error) {
	if c.Envelope == nil {
		return nil, fmt.Errorf("%w: CheckTraceAdaptive needs an envelope", ErrUnsupported)
	}
	e, err := newAdaptiveEngine(c, 0)
	if err != nil {
		return nil, err
	}
	defer e.release(c)
	return e.replay(events, horizon)
}

// envelopeLevelOf locates an operating point among the envelope's levels.
func envelopeLevelOf(env models.Envelope, tmin, tmax int32) (int, bool) {
	for level := 0; level < env.Levels(); level++ {
		if lo, hi := env.Point(level); lo == tmin && hi == tmax {
			return level, true
		}
	}
	return 0, false
}
