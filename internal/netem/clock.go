package netem

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
)

// Clock is the one time service of the runtime: the detector, its
// supervisor and the fault layer all read time and arm callbacks through
// it, over virtual time (SimClock) or real time (WallClock).
type Clock interface {
	// Now returns the current time in ticks.
	Now() sim.Time
	// NewTimer returns an unarmed timer whose expiries call fn. fn is bound
	// once, so rearming the timer allocates nothing under a SimClock.
	NewTimer(fn func(tag uint64)) Timer
}

// Timer is a re-armable one-shot timer created by Clock.NewTimer.
//
// Reset and Stop supersede the pending expiry, if any. Under a SimClock
// that is exact: a superseded expiry never runs. Under a WallClock an
// expiry that is already running on its own goroutine cannot be recalled,
// so every expiry carries the tag of the Reset that armed it and the owner
// drops, under its own lock, any expiry whose tag is no longer current.
type Timer interface {
	// Reset arms the timer to call fn(tag) after d ticks, replacing any
	// pending expiry. d must not be negative.
	Reset(d sim.Time, tag uint64)
	// Stop disarms the timer; it may be armed again with Reset.
	Stop()
}

// SimClock is the Clock of a sim.Simulator's virtual time. It is as
// single-threaded as the simulator.
type SimClock struct {
	Sim *sim.Simulator
}

// SimTicker is the name bench/ builds a SimClock under.
type SimTicker = SimClock

var _ Clock = SimClock{}

// Now implements Clock.
func (c SimClock) Now() sim.Time { return c.Sim.Now() }

// NewTimer implements Clock.
func (c SimClock) NewTimer(fn func(tag uint64)) Timer {
	t := &simTimer{sim: c.Sim}
	t.fire = func() { fn(t.tag) }
	return t
}

// simTimer is a Timer on the simulator's event queue. Cancellation there
// is exact, so at most one expiry is pending and its tag can live here.
type simTimer struct {
	sim  *sim.Simulator
	fire sim.Event // calls fn(tag); built once so Reset schedules without a closure
	tm   sim.Timer
	tag  uint64
}

// Reset implements Timer.
//
//hbvet:noalloc
func (t *simTimer) Reset(d sim.Time, tag uint64) {
	t.tm.Cancel()
	tm, err := t.sim.Schedule(d, t.fire)
	if err != nil {
		// A negative or beyond-horizon delay is a bug in the caller, and
		// silently dropping the timer would hang the protocol.
		//lint:allow noalloc-closure cold panic path; callers arm validated, non-negative delays
		panic(fmt.Sprintf("netem: arming timer: %v", err))
	}
	t.tm, t.tag = tm, tag
}

// Stop implements Timer.
//
//hbvet:noalloc
func (t *simTimer) Stop() { t.tm.Cancel() }

// WallClock is the Clock of real time, in ticks of a fixed physical length
// counted from the clock's creation. It is safe for concurrent use, and so
// are its timers.
type WallClock struct {
	tickLen time.Duration
	epoch   time.Time
}

// NewWallClock returns a wall clock whose tick 0 is now. A tick must have
// a positive length.
//
//lint:allow determinism WallClock is the runtime's wall-clock boundary; simulated runs use SimClock
//lint:allow unused-export ROADMAP item 10's real-time cluster is its first caller; TestRealTimeOverUDP drives it today
func NewWallClock(tickLen time.Duration) (*WallClock, error) {
	if tickLen <= 0 {
		return nil, fmt.Errorf("netem: wall clock tick length %v must be positive", tickLen)
	}
	return &WallClock{tickLen: tickLen, epoch: time.Now()}, nil
}

var _ Clock = (*WallClock)(nil)

// Now implements Clock.
//
//lint:allow determinism WallClock is the runtime's wall-clock boundary; simulated runs use SimClock
func (c *WallClock) Now() sim.Time { return sim.Time(time.Since(c.epoch) / c.tickLen) }

// NewTimer implements Clock.
func (c *WallClock) NewTimer(fn func(tag uint64)) Timer {
	return &wallTimer{tickLen: c.tickLen, fn: fn}
}

type wallTimer struct {
	tickLen time.Duration
	fn      func(tag uint64)
	mu      sync.Mutex
	t       *time.Timer
}

// Reset implements Timer.
//
//lint:allow noalloc-closure physical timers allocate per arm; the noalloc contract covers the sim path
//lint:allow determinism WallClock is the runtime's wall-clock boundary; simulated runs use SimClock
func (w *wallTimer) Reset(d sim.Time, tag uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.t != nil {
		w.t.Stop()
	}
	w.t = time.AfterFunc(time.Duration(d)*w.tickLen, func() { w.fn(tag) })
}

// Stop implements Timer.
func (w *wallTimer) Stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.t != nil {
		w.t.Stop()
	}
}
