// Package faults is a deterministic, seedable fault-injection subsystem
// for the heartbeat protocols.
//
// The heartbeat papers define their protocols *by* behaviour under faults —
// message loss, process crash, partition, and eventual rejoin — so the
// repository needs a first-class way to script a reproducible fault
// campaign. A Schedule is an ordered list of timed fault events (node
// crash/restart, unidirectional and full partitions, bursty Gilbert–Elliott
// loss, duplication, reordering, asymmetric link latency, membership churn,
// per-node clock drift). Applying the same
// schedule with the same seed replays identically, whether the transport
// underneath is the virtual-time netem.Network or real UDP sockets: both
// are wrapped by the same FaultableTransport and driven by the same
// netem.Clock.
//
// The package deliberately depends only on core, netem and sim, so both
// the detector runtime and test code in any layer can use it.
package faults

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

// ErrSchedule reports an invalid fault schedule or fault parameter.
var ErrSchedule = errors.New("faults: invalid schedule")

// MaxTicks bounds every time and delay in a schedule. Each becomes a timer
// delay — an event's At, a message's reordering delay plus its latency —
// and must stay well inside the 2^48 ticks a drifting clock can rescale
// exactly (MaxDriftTerm).
const MaxTicks = 1 << 40

// Kind enumerates the fault event types a Schedule can express.
type Kind int

// Fault event kinds.
const (
	// KindCrash crashes a process. With a NodeControl attached the
	// process machine is crashed; otherwise the transport mutes every
	// send from the node (the network-visible effect of a crash).
	KindCrash Kind = iota + 1
	// KindRestart restarts a previously crashed process via NodeControl
	// and unmutes its sends.
	KindRestart
	// KindPartition isolates a node: every message to or from it is
	// dropped at send time (messages already in flight still arrive,
	// as on a real network).
	KindPartition
	// KindHeal ends a node's partition.
	KindHeal
	// KindLinkDown takes the unidirectional From→To link down.
	KindLinkDown
	// KindLinkUp restores the unidirectional From→To link.
	KindLinkUp
	// KindLoss installs a Gilbert–Elliott loss channel on the From→To
	// link, or on every link when AllLinks is set. A nil GE clears it.
	KindLoss
	// KindDup sets the message duplication probability (Prob).
	KindDup
	// KindReorder sets the reordering probability (Prob) and the maximum
	// extra delay (MaxDelay) applied to reordered messages.
	KindReorder
	// KindDrift sets a node's clock rate to Num/Den local ticks per real
	// tick and applies a one-off skew jump of Skew ticks (ClockControl
	// required).
	KindDrift
	// KindDelay adds a uniform MinDelay..MaxDelay extra latency to every
	// surviving message on the From→To link, or on every link when
	// AllLinks is set. Unlike KindReorder it is unconditional, so a
	// one-directional delay models asymmetric WAN latency. MinDelay =
	// MaxDelay = 0 clears the delay.
	KindDelay
	// KindLeave makes a member voluntarily leave the protocol via
	// MemberControl — the clean half of churn, as opposed to KindCrash.
	KindLeave
	// KindRejoin brings a departed member back via MemberControl with a
	// fresh machine, modelling churn re-arrival.
	KindRejoin
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindRestart:
		return "restart"
	case KindPartition:
		return "partition"
	case KindHeal:
		return "heal"
	case KindLinkDown:
		return "linkdown"
	case KindLinkUp:
		return "linkup"
	case KindLoss:
		return "loss"
	case KindDup:
		return "dup"
	case KindReorder:
		return "reorder"
	case KindDrift:
		return "drift"
	case KindDelay:
		return "delay"
	case KindLeave:
		return "leave"
	case KindRejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one timed fault. Which fields are meaningful depends on Kind.
type Event struct {
	// At is the virtual time (in ticks from schedule application) the
	// fault takes effect.
	At sim.Time
	// Kind selects the fault type.
	Kind Kind
	// Node is the target process for Crash/Restart/Partition/Heal/Drift.
	Node netem.NodeID
	// From and To name the unidirectional link for LinkDown/LinkUp and
	// for per-link Loss.
	From, To netem.NodeID
	// AllLinks makes a Loss event apply to every link instead of From→To.
	AllLinks bool
	// GE is the loss channel for KindLoss; nil clears the channel.
	GE *GilbertElliott
	// Prob is the probability for KindDup/KindReorder.
	Prob float64
	// MinDelay is the lower bound of the extra latency for KindDelay
	// (ticks).
	MinDelay sim.Time
	// MaxDelay bounds the extra delay of reordered messages and the extra
	// latency of KindDelay (ticks).
	MaxDelay sim.Time
	// Num/Den is the clock rate for KindDrift (local ticks per tick).
	Num, Den int64
	// Skew is a one-off clock jump for KindDrift, in ticks.
	Skew core.Tick
}

func (e Event) validate() error {
	if e.At < 0 {
		return fmt.Errorf("%w: %v at negative time %d", ErrSchedule, e.Kind, e.At)
	}
	if e.At > MaxTicks || e.MaxDelay > MaxTicks {
		return fmt.Errorf("%w: %v time %d or delay %d above %d ticks", ErrSchedule, e.Kind, e.At, e.MaxDelay, int64(MaxTicks))
	}
	switch e.Kind {
	case KindCrash, KindRestart, KindPartition, KindHeal:
		// Node may be any registered ID; nothing further to check.
	case KindLinkDown, KindLinkUp:
		if e.From == e.To {
			return fmt.Errorf("%w: %v on self-link %d→%d", ErrSchedule, e.Kind, e.From, e.To)
		}
	case KindLoss:
		if e.GE != nil {
			if err := e.GE.Validate(); err != nil {
				return err
			}
		}
		if !e.AllLinks && e.From == e.To {
			return fmt.Errorf("%w: loss on self-link %d→%d", ErrSchedule, e.From, e.To)
		}
	case KindDup:
		if !probOK(e.Prob) {
			return fmt.Errorf("%w: duplication probability %v out of [0,1]", ErrSchedule, e.Prob)
		}
	case KindReorder:
		if !probOK(e.Prob) {
			return fmt.Errorf("%w: reorder probability %v out of [0,1]", ErrSchedule, e.Prob)
		}
		if e.Prob > 0 && e.MaxDelay < 1 {
			return fmt.Errorf("%w: reordering needs MaxDelay >= 1, got %d", ErrSchedule, e.MaxDelay)
		}
	case KindDrift:
		if err := validDrift(e.Num, e.Den, e.Skew); err != nil {
			return err
		}
	case KindDelay:
		if e.MinDelay < 0 {
			return fmt.Errorf("%w: delay lower bound %d negative", ErrSchedule, e.MinDelay)
		}
		if e.MaxDelay < e.MinDelay {
			return fmt.Errorf("%w: delay bounds inverted: %d..%d", ErrSchedule, e.MinDelay, e.MaxDelay)
		}
		if !e.AllLinks && e.From == e.To {
			return fmt.Errorf("%w: delay on self-link %d→%d", ErrSchedule, e.From, e.To)
		}
	case KindLeave, KindRejoin:
		// Node may be any registered ID; nothing further to check.
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrSchedule, int(e.Kind))
	}
	return nil
}

// probOK reports whether v is a probability. Written positively so that
// NaN — which compares false against everything — is rejected too.
func probOK(v float64) bool { return v >= 0 && v <= 1 }

// Schedule is a scripted fault campaign. Events are applied in time order;
// events with equal times apply in slice order. The zero value is a valid
// empty schedule.
type Schedule struct {
	// Seed drives every random decision of the fault layer (loss,
	// duplication, reorder delays). Two applications of the same schedule
	// with the same seed against deterministic transports replay
	// identically.
	Seed int64
	// Events is the fault script.
	Events []Event
}

// Validate checks every event.
func (s *Schedule) Validate() error {
	for i, e := range s.Events {
		if err := e.validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// NodeControl lets a schedule crash and restart protocol processes, not
// just their network links. detector.Cluster implements it.
type NodeControl interface {
	// CrashNode voluntarily inactivates the process.
	CrashNode(id netem.NodeID) error
	// RestartNode replaces the process's machine with a fresh one and
	// starts it.
	RestartNode(id netem.NodeID) error
}

// ClockControl lets a schedule skew and drift per-node clocks.
// detector.Cluster implements it when fault injection is enabled.
type ClockControl interface {
	// SetDrift sets the node clock's rate to num/den local ticks per real
	// tick and jumps it forward by skew local ticks.
	SetDrift(id netem.NodeID, num, den int64, skew core.Tick) error
}

// MemberControl lets a schedule drive clean membership churn — voluntary
// leaves and rejoins, as opposed to NodeControl's crashes and restarts.
// detector.Cluster implements it for the dynamic protocol variants.
type MemberControl interface {
	// LeaveNode makes the member announce a voluntary leave.
	LeaveNode(id netem.NodeID) error
	// RejoinNode brings a departed member back with a fresh machine.
	RejoinNode(id netem.NodeID) error
}

// Target binds a schedule to the things it manipulates. Transport is
// required; Nodes, Clocks and Members are optional (see the Kind docs for
// the fallback behaviour).
type Target struct {
	Transport *FaultableTransport
	Nodes     NodeControl
	Clocks    ClockControl
	Members   MemberControl
	// OnError, if non-nil, observes control actions that fail at fire
	// time (e.g. crashing a node the cluster does not have). A schedule
	// fires asynchronously and has no caller to return an error to, so
	// without a hook such events are silent no-ops — which can make a
	// whole chaos experiment vacuous without anyone noticing.
	OnError func(e Event, err error)
}

// Apply validates the schedule and arms one timer per event on clock,
// relative to the moment of the call. It returns a cancel function that
// disarms any events that have not fired yet.
//
// Apply itself performs no fault; events at time 0 fire on the clock's
// first zero-delay expiry (for netem.SimClock that is the next simulator
// step, before any later-scheduled work at the same tick).
func (s *Schedule) Apply(clock netem.Clock, tgt Target) (cancel func(), err error) {
	if tgt.Transport == nil {
		return nil, fmt.Errorf("%w: target transport is required", ErrSchedule)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for i, e := range s.Events {
		if e.Kind == KindDrift && tgt.Clocks == nil {
			return nil, fmt.Errorf("%w: event %d: drift needs a ClockControl", ErrSchedule, i)
		}
		if e.Kind == KindRestart && tgt.Nodes == nil {
			return nil, fmt.Errorf("%w: event %d: restart needs a NodeControl", ErrSchedule, i)
		}
		if (e.Kind == KindLeave || e.Kind == KindRejoin) && tgt.Members == nil {
			return nil, fmt.Errorf("%w: event %d: %v needs a MemberControl", ErrSchedule, i, e.Kind)
		}
	}
	// Arm in time order so that same-tick events fire in schedule order
	// under FIFO clocks (netem.SimClock preserves arming order).
	order := make([]int, len(s.Events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return s.Events[order[a]].At < s.Events[order[b]].At
	})
	timers := make([]netem.Timer, 0, len(order))
	for _, i := range order {
		e := s.Events[i]
		t := clock.NewTimer(func(uint64) { applyEvent(e, tgt) })
		t.Reset(e.At, 0)
		timers = append(timers, t)
	}
	return func() {
		for _, t := range timers {
			t.Stop()
		}
	}, nil
}

// applyEvent executes one fault. Control errors go to Target.OnError
// when set and are dropped otherwise: a schedule naming an unknown node
// behaves like a fault on a node that does not exist, which is a no-op
// on a real network too.
func applyEvent(e Event, tgt Target) {
	fail := func(err error) {
		if err != nil && tgt.OnError != nil {
			tgt.OnError(e, err)
		}
	}
	ft := tgt.Transport
	switch e.Kind {
	case KindCrash:
		ft.SetNodeMuted(e.Node, true)
		if tgt.Nodes != nil {
			fail(tgt.Nodes.CrashNode(e.Node))
		}
	case KindRestart:
		ft.SetNodeMuted(e.Node, false)
		if tgt.Nodes != nil {
			fail(tgt.Nodes.RestartNode(e.Node))
		}
	case KindPartition:
		ft.SetPartitioned(e.Node, true)
	case KindHeal:
		ft.SetPartitioned(e.Node, false)
	case KindLinkDown:
		ft.SetLinkDown(e.From, e.To, true)
	case KindLinkUp:
		ft.SetLinkDown(e.From, e.To, false)
	case KindLoss:
		if e.AllLinks {
			ft.SetLoss(e.GE)
		} else {
			ft.SetLinkLoss(e.From, e.To, e.GE)
		}
	case KindDup:
		ft.SetDuplication(e.Prob)
	case KindReorder:
		ft.SetReordering(e.Prob, e.MaxDelay)
	case KindDrift:
		if tgt.Clocks != nil {
			fail(tgt.Clocks.SetDrift(e.Node, e.Num, e.Den, e.Skew))
		}
	case KindDelay:
		if e.AllLinks {
			ft.SetDelay(e.MinDelay, e.MaxDelay)
		} else {
			ft.SetLinkDelay(e.From, e.To, e.MinDelay, e.MaxDelay)
		}
	case KindLeave:
		if tgt.Members != nil {
			fail(tgt.Members.LeaveNode(e.Node))
		}
	case KindRejoin:
		if tgt.Members != nil {
			fail(tgt.Members.RejoinNode(e.Node))
		}
	}
}
