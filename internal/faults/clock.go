package faults

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

// MaxDriftTerm bounds both terms of a drift rate. Rescaling multiplies a
// tick count by one term, and the largest count the simulator can hold is
// its 2^48-tick horizon, so 2^15 is the largest bound that keeps every
// product inside int64.
const MaxDriftTerm = 1 << 15

// validDrift checks a drift rate num/den and the skew jump that comes with
// it: a skew is added to local time as is, so one beyond ±MaxTicks could
// wrap the node's clock.
func validDrift(num, den int64, skew core.Tick) error {
	if num <= 0 || den <= 0 {
		return fmt.Errorf("%w: drift rate %d/%d must be positive", ErrSchedule, num, den)
	}
	if num > MaxDriftTerm || den > MaxDriftTerm {
		return fmt.Errorf("%w: drift rate %d/%d has a term above %d", ErrSchedule, num, den, MaxDriftTerm)
	}
	if skew < -MaxTicks || skew > MaxTicks {
		return fmt.Errorf("%w: clock skew %d outside ±%d ticks", ErrSchedule, skew, int64(MaxTicks))
	}
	return nil
}

// DriftClock wraps a netem.Clock and skews it: the local clock advances
// Num local ticks per Den real ticks, plus any accumulated skew jumps. A
// rate above 1 models a fast clock (its timers fire early in real terms);
// below 1, a slow one. Rate changes are anchored at the moment of the
// change so local time never jumps backwards from a rate change alone.
//
// The arithmetic is integer-only, so drifting clocks stay deterministic
// under the simulator. DriftClock is safe for concurrent use when the
// wrapped clock is.
type DriftClock struct {
	mu          sync.Mutex
	inner       netem.Clock
	num, den    int64
	anchorReal  sim.Time // inner time of the last rate change
	anchorLocal sim.Time // local time at that moment
}

var _ netem.Clock = (*DriftClock)(nil)

// NewDriftClock wraps inner with an initially undrifted (rate 1/1, skew 0)
// clock.
func NewDriftClock(inner netem.Clock) *DriftClock {
	return &DriftClock{inner: inner, num: 1, den: 1}
}

// SetDrift changes the rate to num/den local ticks per real tick and jumps
// local time forward by skew ticks. It returns ErrSchedule for rate terms
// outside 1..MaxDriftTerm or a skew outside ±MaxTicks.
func (c *DriftClock) SetDrift(num, den int64, skew core.Tick) error {
	if err := validDrift(num, den, skew); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.inner.Now()
	c.anchorLocal = c.localAt(now) + sim.Time(skew)
	c.anchorReal = now
	c.num, c.den = num, den
	return nil
}

// localAt maps an inner time to local time. Callers hold c.mu.
func (c *DriftClock) localAt(real sim.Time) sim.Time {
	return c.anchorLocal + sim.Time(int64(real-c.anchorReal)*c.num/c.den)
}

// Now returns the drifted local time.
func (c *DriftClock) Now() sim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.localAt(c.inner.Now())
}

// NewTimer returns a timer of the wrapped clock whose delays are local.
func (c *DriftClock) NewTimer(fn func(tag uint64)) netem.Timer {
	return &driftTimer{clock: c, inner: c.inner.NewTimer(fn)}
}

type driftTimer struct {
	clock *DriftClock
	inner netem.Timer
}

// Reset arms the timer d local ticks ahead, which is d·den/num real ticks
// (rounded up, so a timer never fires locally early).
func (t *driftTimer) Reset(d sim.Time, tag uint64) {
	c := t.clock
	c.mu.Lock()
	num, den := c.num, c.den
	c.mu.Unlock()
	t.inner.Reset(sim.Time((int64(d)*den+num-1)/num), tag)
}

func (t *driftTimer) Stop() { t.inner.Stop() }
