package conform

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/models"
)

// unknownLoss is the loss count of a trace whose losses are not known: it
// is not zero, so the no-loss premise of R2/R3 is never assumed.
const unknownLoss = math.MaxUint64

// CheckTraceAdaptive checks a recorded trace of an adaptive cluster
// against the envelope's family of specifications: a StreamChecker fed
// every event, then finished at horizon. It is given no loss count, so it
// never reports the loss-contingent R2/R3 violations; feed a StreamChecker
// and call Finish with the run's loss count for those.
func (c *CampaignCheck) CheckTraceAdaptive(events []Event, horizon core.Tick) (*StreamResult, error) {
	if c.Envelope == nil {
		return nil, fmt.Errorf("%w: CheckTraceAdaptive needs an envelope", ErrUnsupported)
	}
	sc, err := NewStreamChecker(StreamConfig{Check: c, Horizon: horizon})
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		sc.Feed(ev)
	}
	return sc.Finish(unknownLoss)
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
