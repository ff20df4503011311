package detector

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netem"
)

// TriggerKind classifies what caused a protocol machine step.
type TriggerKind int

// Trigger kinds.
const (
	// TriggerStart: the machine's Start was delivered (initial entry).
	TriggerStart TriggerKind = iota + 1
	// TriggerRestart: a fresh machine's Start was delivered via Restart.
	TriggerRestart
	// TriggerTimer: a timer fired (Trigger.Timer identifies it).
	TriggerTimer
	// TriggerBeat: a beat was delivered (Trigger.Beat holds it).
	TriggerBeat
	// TriggerCrash: a crash was injected.
	TriggerCrash
	// TriggerLeave: a graceful leave was initiated.
	TriggerLeave
	// TriggerRejoin: a re-entry after a completed leave was initiated.
	TriggerRejoin
)

// String implements fmt.Stringer.
func (k TriggerKind) String() string {
	switch k {
	case TriggerStart:
		return "start"
	case TriggerRestart:
		return "restart"
	case TriggerTimer:
		return "timer"
	case TriggerBeat:
		return "beat"
	case TriggerCrash:
		return "crash"
	case TriggerLeave:
		return "leave"
	case TriggerRejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("TriggerKind(%d)", int(k))
	}
}

// Trigger describes the cause of one machine step.
type Trigger struct {
	Kind TriggerKind
	// Timer is the timer that fired, for TriggerTimer.
	Timer core.TimerID
	// Beat is the delivered beat, for TriggerBeat.
	Beat core.Beat
}

// Observer receives one callback per protocol machine step: the trigger
// that caused it and the actions the machine returned, before the node
// executes them. A beat delivery is observed even when the machine returns
// no actions (the delivery itself is an observable event).
//
// ObserveStep is called with the node's lock held, so steps of a single
// node arrive serialised in execution order; under a netem.SimClock the whole
// cluster is single-threaded and the global order is the execution order.
// Observers must not call back into the node. The conformance recorder
// (internal/conform) is the intended implementation.
type Observer interface {
	ObserveStep(id netem.NodeID, now core.Tick, tr Trigger, actions []core.Action)
}

// observe reports one machine step taken at now to the configured
// observer. Callers hold n.mu.
func (n *Node) observe(tr Trigger, now core.Tick, actions []core.Action) {
	if n.cfg.Observe != nil {
		n.cfg.Observe.ObserveStep(n.cfg.ID, now, tr, actions)
	}
}
