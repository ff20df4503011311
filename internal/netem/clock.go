package netem

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/sim"
)

// Clock is the one time service of the runtime: the detector, its
// supervisor and the fault layer all read time and arm callbacks through
// it, over virtual time (SimClock) or real time (WallClock).
//
// The clock is also what serialises the runtime. Everything built on one
// clock — nodes, their supervisor, the fault layer, an observer — runs on
// that clock, one callback at a time, and takes no lock of its own: a
// SimClock runs every callback on the simulator's goroutine, and a
// WallClock runs every timer expiry and every UDPTransport delivery under
// its one mutex, which a call from any other goroutine takes through
// WallClock.Do.
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
// expiry whose goroutine is already waiting for the clock cannot be
// recalled, so every expiry carries the tag of the Reset that armed it and
// the owner drops any expiry whose tag is no longer current.
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

// Reset implements Timer. It cannot fail: a negative d, which the
// interface rules out, arms the timer for now rather than dropping it (a
// dropped timer would hang the protocol), and a d past the largest Time
// arms it for the largest Time.
//
//hbvet:noalloc
func (t *simTimer) Reset(d sim.Time, tag uint64) {
	t.tm.Cancel()
	now := t.sim.Now()
	at := now + max(d, 0)
	if at < now {
		at = math.MaxInt64
	}
	// at >= now, so ScheduleAt has no error left to return.
	t.tm, _ = t.sim.ScheduleAt(at, t.fire)
	t.tag = tag
}

// Stop implements Timer.
//
//hbvet:noalloc
func (t *simTimer) Stop() { t.tm.Cancel() }

// WallClock is the Clock of real time, in ticks of a fixed physical length
// counted from the clock's creation. Now is safe from any goroutine. Its
// timers' expiries run holding the clock's mutex, as do the deliveries of
// a UDPTransport built on it, so the runtime on the clock runs one
// callback at a time; anything else that calls into that runtime — starting
// a node, reading its status, stopping a supervisor — does so through Do.
type WallClock struct {
	tickLen time.Duration
	epoch   time.Time
	mu      sync.Mutex
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

// Do runs fn on the clock: after every expiry and delivery already running,
// and before the next. fn must not call Do, nor close a UDPTransport built
// on the clock.
func (c *WallClock) Do(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn()
}

// NewTimer implements Clock.
func (c *WallClock) NewTimer(fn func(tag uint64)) Timer {
	return &wallTimer{clock: c, fn: fn}
}

// wallTimer is a Timer on physical time. Reset and Stop run on the clock,
// so t needs no lock of its own; an expiry takes the clock's mutex.
type wallTimer struct {
	clock *WallClock
	fn    func(tag uint64)
	t     *time.Timer
}

// Reset implements Timer.
//
//lint:allow noalloc-closure physical timers allocate per arm; the noalloc contract covers the sim path
//lint:allow determinism WallClock is the runtime's wall-clock boundary; simulated runs use SimClock
func (w *wallTimer) Reset(d sim.Time, tag uint64) {
	if w.t != nil {
		w.t.Stop()
	}
	w.t = time.AfterFunc(time.Duration(d)*w.clock.tickLen, func() { w.clock.Do(func() { w.fn(tag) }) })
}

// Stop implements Timer.
func (w *wallTimer) Stop() {
	if w.t != nil {
		w.t.Stop()
	}
}
