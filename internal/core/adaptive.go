package core

import (
	"fmt"
)

// Envelope clamps the adaptive variant's retuning: every operating point
// the estimator may select satisfies TMinLo <= tmin <= TMinHi and
// TMaxLo <= tmax <= TMaxHi. The envelope is discretised into levels —
// level 0 is the most aggressive point (fastest detection, least loss
// tolerance), each widening level doubles tmax (buying one more tolerated
// consecutive loss, since tolerance is ~log2(tmax/tmin)) until TMaxHi,
// the plain-heartbeat-like top. The constraint TMinHi <= TMaxLo makes
// every (tmin, tmax) pair of every level a valid Config, so the envelope
// as a whole — not any single constant pair — is the object the model
// checker verifies (internal/models.Envelope delegates to this arithmetic).
type Envelope struct {
	// TMinLo and TMinHi bound tmin; must satisfy 0 < TMinLo <= TMinHi.
	TMinLo, TMinHi Tick
	// TMaxLo and TMaxHi bound tmax; must satisfy
	// TMinHi <= TMaxLo <= TMaxHi.
	TMaxLo, TMaxHi Tick
}

// Validate checks the envelope ordering constraints.
func (e Envelope) Validate() error {
	if e.TMinLo <= 0 {
		return fmt.Errorf("%w: envelope tmin lower bound %d must be positive", ErrConfig, e.TMinLo)
	}
	if e.TMinHi < e.TMinLo {
		return fmt.Errorf("%w: envelope tmin bounds inverted (%d > %d)", ErrConfig, e.TMinLo, e.TMinHi)
	}
	if e.TMaxLo < e.TMinHi {
		return fmt.Errorf("%w: envelope needs TMinHi <= TMaxLo, got %d > %d (levels would invert tmin <= tmax)", ErrConfig, e.TMinHi, e.TMaxLo)
	}
	if e.TMaxHi < e.TMaxLo {
		return fmt.Errorf("%w: envelope tmax bounds inverted (%d > %d)", ErrConfig, e.TMaxLo, e.TMaxHi)
	}
	return nil
}

// Levels is the number of discrete operating points: tmax doubles from
// TMaxLo until it reaches (clamped) TMaxHi.
func (e Envelope) Levels() int {
	n := 1
	for t := e.TMaxLo; t < e.TMaxHi; t = doubleTo(t, e.TMaxHi) {
		n++
	}
	return n
}

// doubleTo doubles t, clamped at hi. It compares against hi/2 rather than
// computing t*2, which would overflow for t above half of Tick's range.
func doubleTo(t, hi Tick) Tick {
	if t > hi/2 {
		return hi
	}
	return t * 2
}

// Point returns the operating point of a level (clamped to the valid
// range): tmax = min(TMaxLo·2^level, TMaxHi), tmin likewise doubled from
// TMinLo and clamped to TMinHi.
func (e Envelope) Point(level int) (tmin, tmax Tick) {
	if level < 0 {
		level = 0
	}
	if max := e.Levels() - 1; level > max {
		level = max
	}
	tmin, tmax = e.TMinLo, e.TMaxLo
	for i := 0; i < level; i++ {
		tmin, tmax = doubleTo(tmin, e.TMinHi), doubleTo(tmax, e.TMaxHi)
	}
	return tmin, tmax
}

// ResponderConfig is the configuration participants of an adaptive
// cluster run with: the envelope's worst-case point. The coordinator's
// round length never exceeds TMaxHi at any level, so a watchdog derived
// from (TMinLo, TMaxHi) is sound at every operating point — and the wire
// format need not carry the coordinator's current level.
func (e Envelope) ResponderConfig(base Config) Config {
	base.TMin = e.TMinLo
	base.TMax = e.TMaxHi
	return base
}

// AdaptiveOptions tunes the adaptive coordinator's loss estimator. The
// zero value selects the defaults noted per field.
type AdaptiveOptions struct {
	// Envelope clamps the retuning; required.
	Envelope Envelope
	// Window is the number of recent rounds the loss estimate averages
	// over (default 8).
	Window int
	// WidenAt is the loss fraction at or above which the coordinator
	// widens one level (default 0.5 — at that rate the current level is
	// one bad coin-flip streak from a false confirmation).
	WidenAt float64
	// TightenAt is the loss fraction at or below which a round counts as
	// clean; only HoldRounds consecutive clean rounds tighten one level
	// (default 0.125). Must stay below WidenAt for hysteresis.
	TightenAt float64
	// HoldRounds is the clean-round streak required before each tighten
	// (default: Window), so one quiet window never undoes a widen that a
	// still-live partition forced.
	HoldRounds int
}

// withDefaults resolves the zero-value knobs.
func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	if o.Window <= 0 {
		o.Window = 8
	}
	if o.WidenAt == 0 {
		o.WidenAt = 0.5
	}
	if o.TightenAt == 0 {
		o.TightenAt = 0.125
	}
	if o.HoldRounds <= 0 {
		o.HoldRounds = o.Window
	}
	return o
}

// Validate checks the resolved options.
func (o AdaptiveOptions) Validate() error {
	if err := o.Envelope.Validate(); err != nil {
		return err
	}
	o = o.withDefaults()
	if o.WidenAt <= 0 || o.WidenAt > 1 {
		return fmt.Errorf("%w: WidenAt %v out of (0,1]", ErrConfig, o.WidenAt)
	}
	if o.TightenAt < 0 || o.TightenAt >= o.WidenAt {
		return fmt.Errorf("%w: TightenAt %v must be in [0, WidenAt)", ErrConfig, o.TightenAt)
	}
	return nil
}

// lossSample is one round's estimator input: how many members the
// coordinator counted on and how many failed to reply.
type lossSample struct {
	Expected, Missed int32
}

// AdaptiveCoordinator wraps a Coordinator with loss-driven retuning: it
// estimates the loss rate from the beat gaps each round exposes (the
// members whose reply did not arrive), and moves the inner coordinator
// between the envelope's operating points — widening under sustained
// loss so the protocol degrades toward plain-heartbeat robustness
// instead of false-confirming, tightening back only after a full streak
// of clean rounds. Every move is surfaced as an ActRetune action, so
// supervisors and conformance checkers see each transition.
type AdaptiveCoordinator struct {
	inner  *Coordinator
	opts   AdaptiveOptions
	levels int

	level int          // current envelope level
	ring  []lossSample // the estimator window; slots [0, filled) are in use

	pos, filled     int
	sumExp, sumMiss int64
	clean           int
	acts            []Action
}

var _ Machine = (*AdaptiveCoordinator)(nil)

// NewAdaptiveCoordinator builds an adaptive p[0]. The TMin/TMax of cc are
// ignored: the coordinator starts at the envelope's level-0 point.
func NewAdaptiveCoordinator(cc CoordinatorConfig, opts AdaptiveOptions) (*AdaptiveCoordinator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	cc.Config.TMin, cc.Config.TMax = opts.Envelope.Point(0)
	inner, err := NewCoordinator(cc)
	if err != nil {
		return nil, err
	}
	return &AdaptiveCoordinator{
		inner:  inner,
		opts:   opts,
		levels: opts.Envelope.Levels(),
		ring:   make([]lossSample, opts.Window),
	}, nil
}

// Start implements Machine.
func (a *AdaptiveCoordinator) Start(now Tick) []Action { return a.inner.Start(now) }

// OnBeat implements Machine.
func (a *AdaptiveCoordinator) OnBeat(b Beat, now Tick) []Action { return a.inner.OnBeat(b, now) }

// Crash implements Machine.
func (a *AdaptiveCoordinator) Crash(now Tick) []Action { return a.inner.Crash(now) }

// Status implements Machine.
func (a *AdaptiveCoordinator) Status() Status { return a.inner.Status() }

// OnTimer implements Machine. At each round boundary the estimator
// ingests the closing round's reply gaps first; if the windowed loss
// estimate crosses a threshold, the inner coordinator is retuned before
// it applies the acceleration rule — so a widen converts the round into
// a grace round at the new operating point instead of a false
// confirmation — and the ActRetune is prepended to the round's actions.
func (a *AdaptiveCoordinator) OnTimer(id TimerID, now Tick) []Action {
	if id != TimerRound || a.inner.Status() != StatusActive {
		return a.inner.OnTimer(id, now)
	}
	members, missed := a.inner.roundObservation()
	tmin, tmax, retuned := a.observeRound(members, missed)
	if !retuned {
		return a.inner.OnTimer(id, now)
	}
	// The point came from Envelope.Point, so Retune cannot reject it.
	_ = a.inner.Retune(tmin, tmax)
	a.acts = append(a.acts[:0], RetuneAction(tmin, tmax))
	a.acts = append(a.acts, a.inner.OnTimer(id, now)...)
	return a.acts
}

// observeRound pushes one round's sample and applies the hysteresis
// rule. It reports the new operating point when the level changed.
func (a *AdaptiveCoordinator) observeRound(members, missed int) (tmin, tmax Tick, retuned bool) {
	if members > 0 {
		if a.filled == len(a.ring) {
			s := a.ring[a.pos]
			a.sumExp -= int64(s.Expected)
			a.sumMiss -= int64(s.Missed)
		} else {
			a.filled++
		}
		a.ring[a.pos] = lossSample{Expected: int32(members), Missed: int32(missed)}
		a.pos = (a.pos + 1) % len(a.ring)
		a.sumExp += int64(members)
		a.sumMiss += int64(missed)
	}
	if a.sumExp == 0 {
		return 0, 0, false
	}
	rate := float64(a.sumMiss) / float64(a.sumExp)

	level := a.level
	switch {
	case rate >= a.opts.WidenAt:
		a.clean = 0
		if level < a.levels-1 {
			// Widen one level: samples gathered at the abandoned point do
			// not argue about the new one, so the window restarts.
			level++
			a.resetWindow()
			a.level = level
		}
		// At the top of the envelope this is a saturated grace: the point
		// is unchanged, but the retune still resets every member budget,
		// so as long as the measured loss stays at or above WidenAt the
		// coordinator behaves like a plain (non-accelerating) heartbeat —
		// graceful degradation instead of a false confirmation. The
		// rolling window keeps filling, so acceleration (and with it real
		// suspicion) resumes as soon as the loss subsides.
		tmin, tmax = a.opts.Envelope.Point(level)
		return tmin, tmax, true
	case rate <= a.opts.TightenAt:
		a.clean++
		if a.clean < a.opts.HoldRounds || level == 0 {
			return 0, 0, false
		}
		level--
	default:
		a.clean = 0
		return 0, 0, false
	}
	a.clean = 0
	a.resetWindow()
	a.level = level
	tmin, tmax = a.opts.Envelope.Point(level)
	return tmin, tmax, true
}

// resetWindow clears the estimator after a retune: samples gathered at
// the abandoned operating point do not argue about the new one.
func (a *AdaptiveCoordinator) resetWindow() {
	a.pos, a.filled = 0, 0
	a.sumExp, a.sumMiss = 0, 0
}
