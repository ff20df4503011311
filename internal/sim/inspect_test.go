package sim

// Inspection methods the tests observe the queue through; the simulator
// itself never asks.

// Active reports whether the timer is still pending — scheduled, and
// neither fired nor cancelled.
func (t Timer) Active() bool {
	return t.s != nil && t.s.wheel.Active(t.wt)
}

// Pending returns the exact number of events waiting in the queue:
// cancelled timers leave the count at once, whenever the wheel gets round
// to reclaiming their storage.
func (s *Simulator) Pending() int { return s.wheel.Len() }

// Len returns the number of pending (scheduled, neither fired nor
// cancelled) entries.
func (w *TimerWheel) Len() int { return w.count }

// Active reports whether the handle's entry is still pending.
func (w *TimerWheel) Active(t WheelTimer) bool {
	return uint(t.idx) < uint(len(w.state)) && w.state[t.idx] == t.gen
}
