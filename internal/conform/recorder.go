package conform

import (
	"math"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/netem"
)

// Recorder abstracts detector machine steps into model-alphabet events.
// It implements detector.Observer; attach it via Config.Observe or
// ClusterConfig.Observe. Safe for concurrent use (wall-clock nodes call
// from timer goroutines).
//
// Events outside the model alphabet — graceful leaves, restarts, rejoins,
// stray beats — are recorded under honest non-model labels, so the
// checker reports them as divergences instead of silently dropping them.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
//
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func NewRecorder() *Recorder { return &Recorder{} }

// Events returns a copy of the recorded trace.
//
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// ObserveStep implements detector.Observer.
//
//lint:allow noalloc-closure the recording observer allocates trace labels by design; conformance runs trade allocations for checking
func (r *Recorder) ObserveStep(id netem.NodeID, now core.Tick, tr detector.Trigger, actions []core.Action) {
	r.mu.Lock()
	defer r.mu.Unlock()
	abstractStep(func(label alphabet.Label) {
		r.events = append(r.events, Event{Time: now, Label: label})
	}, id, tr, actions)
}

// abstractStep maps one machine step (trigger plus returned actions) onto
// zero or more model-alphabet labels, emitted through add in order. It is
// the single abstraction shared by the Recorder (which retains events)
// and the StreamChecker (which checks and discards them), so the two
// observers cannot disagree about what a step means. Labels are values,
// so a step allocates nothing, whatever process ids it names.
func abstractStep(add func(alphabet.Label), id netem.NodeID, tr detector.Trigger, actions []core.Action) {
	coord := id == netem.NodeID(core.CoordinatorID)
	self := int(id)

	switch tr.Kind {
	case detector.TriggerBeat:
		// The delivery itself is observable regardless of the machine's
		// reaction: the model delivers to inactive processes too (their
		// receive self-loops consume the beat).
		b := tr.Beat
		switch {
		case coord && b.Stay:
			add(alphabet.DeliverBeatP0.Of(int(b.From)))
		case coord:
			add(alphabet.DeliverLeaveP0.Of(int(b.From)))
		case b.From == core.CoordinatorID && b.Stay:
			add(alphabet.DeliverBeat.Of(self))
		case b.From == core.CoordinatorID:
			// The coordinator's directed leave acknowledgement; no model
			// counterpart (the model's leaver concludes from its own beat).
			add(alphabet.DeliverLeaveAck.Of(self))
		default:
			add(alphabet.Label{Kind: alphabet.DeliverStray, A: int32(id), B: int32(b.From)})
		}
		addReactions(add, self, coord, tr, actions)

	case detector.TriggerTimer:
		if coord && tr.Timer == core.TimerRound {
			if len(actions) == 0 {
				return // stale fire on an inactive machine
			}
			add(alphabet.Timeout.Of(self))
		}
		addReactions(add, self, coord, tr, actions)

	case detector.TriggerStart:
		addReactions(add, self, coord, tr, actions)

	case detector.TriggerCrash:
		for _, a := range actions {
			if a.Kind == core.ActInactivate && a.Voluntary {
				add(alphabet.Crash.Of(self))
			}
		}

	case detector.TriggerLeave:
		add(alphabet.DecideLeave.Of(self))
		addReactions(add, self, coord, tr, actions)

	case detector.TriggerRejoin:
		add(alphabet.Rejoin.Of(self))
		addReactions(add, self, coord, tr, actions)

	case detector.TriggerRestart:
		add(alphabet.Restart.Of(self))
		addReactions(add, self, coord, tr, actions)
	}
}

// addReactions records the observable actions of one machine step: sends,
// inactivations and retunes. Suspect/Joined/Left notifications and timer
// (re)arming are not part of the model's trace alphabet — except that the
// coordinator's round continuation is keyed off SetTimer{TimerRound},
// because the model broadcasts p[0]'s beat even to an empty membership
// while the runtime's send loop then emits nothing. self is the stepping
// process (the coordinator when coord).
func addReactions(add func(alphabet.Label), self int, coord bool, tr detector.Trigger, actions []core.Action) {
	sentBeat := false
	for _, act := range actions {
		switch act.Kind {
		case core.ActSendBeat:
			switch {
			case coord && act.Beat.Stay:
				// Coalesce the per-member unicasts of one round into the
				// model's single broadcast. Emitted via the SetTimer key
				// below for timeouts; directly for the revised init.
				if tr.Kind != detector.TriggerTimer && !sentBeat {
					sentBeat = true
					add(alphabet.SendBeat.Of(self))
				}
			case coord:
				add(alphabet.SendLeaveAck.Of(int(act.To)))
			case act.Beat.Stay:
				if tr.Kind == detector.TriggerBeat {
					add(alphabet.SendBeat.Of(self)) // reply to a delivered beat
				} else {
					add(alphabet.SendJoin.Of(self)) // join solicitation (start or resend)
				}
			default:
				add(alphabet.SendLeave.Of(self))
			}
		case core.ActSetTimer:
			if coord && act.ID == core.TimerRound && tr.Kind == detector.TriggerTimer && !sentBeat {
				sentBeat = true
				add(alphabet.SendBeat.Of(self))
			}
		case core.ActRetune:
			add(alphabet.Label{Kind: alphabet.Retune, A: sat32(act.TMin), B: sat32(act.TMax)})
		case core.ActInactivate:
			if act.Voluntary {
				add(alphabet.Crash.Of(self))
			} else {
				add(alphabet.Inactivate.Of(self))
			}
		}
	}
}

// sat32 narrows a timing constant to the alphabet's argument width. A
// value that does not fit saturates instead of wrapping: no verified
// envelope reaches that far, so the retune stays unconfirmed rather than
// aliasing a small operating point.
func sat32(t core.Tick) int32 {
	return int32(min(max(t, math.MinInt32), math.MaxInt32))
}
