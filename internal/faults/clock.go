package faults

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

// MaxDriftTerm bounds both terms of a drift rate. Rescaling multiplies a
// tick count by one term, and every count a drifting clock rescales stays
// below 2^48 — schedule times and delays are at most MaxTicks, protocol
// delays far less — so 2^15 is the largest bound that keeps every product
// inside int64.
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
// wrapped clock is: readers (Now, a timer's Reset) load the current rate
// segment, an immutable driftRate, without locking, and SetDrift publishes
// a new one. A read that races a SetDrift maps its time through the old
// segment or the new one.
type DriftClock struct {
	mu    sync.Mutex // serialises SetDrift
	inner netem.Clock
	rate  atomic.Pointer[driftRate]
}

// driftRate is one rate segment of a DriftClock, never written once
// published: from inner time anchorReal, when local time was anchorLocal,
// the clock runs num local ticks per den real ticks.
type driftRate struct {
	num, den    int64
	anchorReal  sim.Time // inner time of the rate change
	anchorLocal sim.Time // local time at that moment
}

// undrifted is the segment every DriftClock starts on: rate 1/1 from time
// 0, local time equal to inner time. It is immutable, so all clocks share
// it.
var undrifted = &driftRate{num: 1, den: 1}

var _ netem.Clock = (*DriftClock)(nil)

// NewDriftClock wraps inner with an initially undrifted (rate 1/1, skew 0)
// clock.
func NewDriftClock(inner netem.Clock) *DriftClock {
	c := &DriftClock{inner: inner}
	c.rate.Store(undrifted)
	return c
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
	c.rate.Store(&driftRate{
		num: num, den: den,
		anchorReal:  now,
		anchorLocal: c.rate.Load().localAt(now) + sim.Time(skew),
	})
	return nil
}

// localAt maps an inner time to local time. A rate of k/k skips the
// divide: k·d/k is d exactly.
func (r *driftRate) localAt(real sim.Time) sim.Time {
	d := real - r.anchorReal
	if r.num != r.den {
		d = sim.Time(int64(d) * r.num / r.den)
	}
	return r.anchorLocal + d
}

// Now returns the drifted local time.
func (c *DriftClock) Now() sim.Time {
	return c.rate.Load().localAt(c.inner.Now())
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
// (rounded up, so a timer never fires locally early). A rate of k/k skips
// the divide: for d >= 0, (d·k+k−1)/k is d.
func (t *driftTimer) Reset(d sim.Time, tag uint64) {
	if r := t.clock.rate.Load(); r.num != r.den {
		d = sim.Time((int64(d)*r.den + r.num - 1) / r.num)
	}
	t.inner.Reset(d, tag)
}

func (t *driftTimer) Stop() { t.inner.Stop() }
