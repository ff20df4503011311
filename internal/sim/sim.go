// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives virtual time: events are scheduled at integer ticks and
// executed in nondecreasing time order. Events scheduled for the same tick
// run in FIFO order (scheduling order), which makes runs reproducible and
// lets protocol code express the "simultaneous events" races that the
// accelerated heartbeat analysis exercises.
//
// The hot path is allocation-free: the event queue is a TimerWheel — a
// calendar ring of append-only slot logs, with a small heap for the few
// events due beyond the ring — the callbacks sit in a slice indexed by the
// wheel's timer id, and handles are plain values guarded by the wheel's
// generation counters: no per-event allocation, no interface boxing, O(1)
// Schedule and Cancel for every event inside the ring. Cancel takes effect
// at once (the event will not run and Pending drops); the cancelled entry's
// storage is reclaimed when its word is next read or swept, and stays
// within a constant factor of the pending population.
//
// A Simulator is not safe for concurrent use; it is single-threaded by
// design so that every run with the same seed and the same scheduling
// sequence produces the same trace.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Time is a point in virtual time, measured in ticks. The tick has no fixed
// physical meaning; protocol code interprets it (the heartbeat protocols use
// the same unit as tmin and tmax).
type Time int64

// ErrPastTime is returned when an event is scheduled before the current
// virtual time.
var ErrPastTime = errors.New("sim: schedule time is in the past")

// Event is a callback executed when its scheduled time is reached.
type Event func()

// Timer is a value handle to a scheduled event. Its zero value is inert;
// timers are created by Simulator.Schedule and Simulator.ScheduleAt. A
// handle survives its event: once the event fires or is cancelled the
// underlying wheel id is recycled and the handle's generation goes stale, so
// Cancel on an old handle is a safe no-op.
type Timer struct {
	s  *Simulator
	wt WheelTimer
}

// Cancel prevents the timer's event from running and takes it out of
// Pending immediately. Cancelling an already fired or already cancelled
// timer is a no-op. It reports whether the cancellation prevented a pending
// event.
//
//hbvet:noalloc
func (t Timer) Cancel() bool {
	s := t.s
	if s == nil || !s.wheel.Cancel(t.wt) {
		return false
	}
	s.fns[t.wt.idx] = nil // release the closure
	return true
}

// Simulator owns a virtual clock and an event queue.
type Simulator struct {
	now   Time
	wheel TimerWheel
	// fns[i] is the callback of wheel timer id i while it is pending; the
	// wheel owns everything else about a timer (tick, order, handle
	// generation).
	fns []Event
	// rng is nil until the first Rand call seeds it from seed.
	seed     int64
	rng      *rand.Rand
	executed uint64
	// scheduled counts accepted Schedule calls; the package's tests read
	// it.
	scheduled uint64
}

// Option configures a Simulator.
type Option func(*Simulator)

// WithSeed seeds the simulator's random source. Two simulators with the
// same seed and the same scheduling sequence behave identically.
func WithSeed(seed int64) Option {
	return func(s *Simulator) { s.seed = seed }
}

// New returns a Simulator with virtual time 0, seeded with 1 unless an
// option seeds it.
func New(opts ...Option) *Simulator {
	s := &Simulator{wheel: newWheel(), seed: 1}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source. The source is
// seeded on the first call, so a run that never draws never seeds one; the
// stream is the one an eagerly seeded source would give.
func (s *Simulator) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng
}

// EventsExecuted returns the number of events run so far.
//
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (s *Simulator) EventsExecuted() uint64 { return s.executed }

// Schedule runs fn after d ticks. A negative d is an error; d == 0 runs fn
// at the current tick, after all events already queued for this tick.
//
//hbvet:noalloc
func (s *Simulator) Schedule(d Time, fn Event) (Timer, error) {
	return s.ScheduleAt(s.now+d, fn)
}

// ScheduleAt runs fn at absolute virtual time t; before the current time
// it is ErrPastTime.
//
//hbvet:noalloc
func (s *Simulator) ScheduleAt(t Time, fn Event) (Timer, error) {
	if t < s.now {
		//lint:allow noalloc-closure cold error path; scheduling in the past is a caller bug, not a hot-path event
		return Timer{}, fmt.Errorf("%w: at %d, now %d", ErrPastTime, t, s.now)
	}
	s.scheduled++
	id := s.wheel.add(t)
	if int(id) == len(s.fns) {
		s.fns = append(s.fns, fn)
	} else {
		s.fns[id] = fn
	}
	return Timer{s: s, wt: WheelTimer{idx: id, gen: s.wheel.state[id]}}, nil
}

// Step executes the next pending event, advancing virtual time to its
// scheduled tick. It reports whether an event was executed; false means the
// queue is empty.
//
//hbvet:noalloc
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (s *Simulator) Step() bool { return s.stepUntil(math.MaxInt64) }

// stepUntil is Step restricted to events at or before deadline.
//
//hbvet:noalloc
func (s *Simulator) stepUntil(deadline Time) bool {
	// The wheel recycles the id before fn runs: fn may re-enter Schedule,
	// and the stale generation keeps the event's own Timer handle inert
	// either way.
	id, at, ok := s.wheel.popUntil(deadline)
	if !ok {
		return false
	}
	s.now = at
	s.executed++
	fn := s.fns[id]
	s.fns[id] = nil
	//lint:allow noalloc-closure the event callback is the scheduled work itself; each callee is proven at its own //hbvet:noalloc annotation
	fn()
	return true
}

// Run executes events until the queue is empty and returns the final
// virtual time.
//
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (s *Simulator) Run() Time {
	for s.Step() {
	}
	return s.now
}

// RunUntil executes events scheduled at or before deadline, then advances
// the clock to deadline (even if the queue drained earlier or later events
// remain pending).
func (s *Simulator) RunUntil(deadline Time) Time {
	for s.stepUntil(deadline) {
	}
	if s.now < deadline {
		s.now = deadline
	}
	return s.now
}
