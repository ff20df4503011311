// Package detector runs the heartbeat protocol machines of internal/core
// over a clock and a transport, turning them into a usable failure
// detector — the downstream application both papers cite.
//
// A Node owns one protocol machine. It registers with a netem transport,
// decodes incoming beats, drives the machine, and executes the machine's
// actions: sending beats, (re)arming timers, and reporting liveness events
// to an EventSink. Nodes work identically over the discrete-event simulator
// (netem.SimClock + netem.Network) and in real time (netem.WallClock +
// netem.UDPTransport).
package detector

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

// EventKind classifies liveness events reported by a Node.
type EventKind int

// Event kinds.
const (
	// EventInactivated: the node stopped participating (see Voluntary).
	EventInactivated EventKind = iota + 1
	// EventSuspect: the coordinator's waiting time for Proc decayed below
	// tmin.
	EventSuspect
	// EventJoined: an expanding/dynamic participant was acknowledged.
	EventJoined
	// EventLeft: a dynamic participant completed a graceful leave.
	EventLeft
	// EventDown: a Supervisor confirmed a suspected peer as down; it
	// follows the peer's first suspicion since it last (re)joined or was
	// restarted.
	EventDown
	// EventRestarted: a Supervisor restarted the node with a fresh
	// machine.
	EventRestarted
	// EventPanic: a handler panic on the node was recovered.
	EventPanic
	// EventRetuned: an adaptive coordinator moved its timing constants to
	// a new operating point (TMin, TMax) within its envelope.
	EventRetuned
	// EventIncident: an online conformance checker reported a structured
	// incident (model divergence or R1–R3 violation) through the
	// supervisor's grading path; Detail carries the one-line summary.
	EventIncident
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventInactivated:
		return "inactivated"
	case EventSuspect:
		return "suspect"
	case EventJoined:
		return "joined"
	case EventLeft:
		return "left"
	case EventDown:
		return "down"
	case EventRestarted:
		return "restarted"
	case EventPanic:
		return "panic"
	case EventRetuned:
		return "retuned"
	case EventIncident:
		return "incident"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is a liveness notification.
type Event struct {
	Time core.Tick
	Node netem.NodeID
	Kind EventKind
	// Proc is the suspected process for EventSuspect.
	Proc core.ProcID
	// Voluntary distinguishes a crash from a protocol decision for
	// EventInactivated.
	Voluntary bool
	// TMin and TMax carry the new operating point for EventRetuned.
	TMin, TMax core.Tick
	// Detail is the conformance incident summary for EventIncident.
	Detail string
}

// EventSink receives events. A node delivers them on its clock (see
// netem.Clock), one at a time, so a sink shared by the nodes of one clock
// needs no lock.
type EventSink interface {
	HandleEvent(Event)
}

// EventFunc adapts a function to EventSink.
type EventFunc func(Event)

// HandleEvent implements EventSink.
//
//lint:allow noalloc-closure EventFunc adapts an installer-supplied sink; the bundled sinks (Supervisor, conform) are checked in their own right
func (f EventFunc) HandleEvent(e Event) { f(e) }

// Config assembles a Node.
type Config struct {
	// ID is the node's transport address; it must equal the machine's
	// process ID convention (coordinator at 0).
	ID netem.NodeID
	// Machine is the protocol role to run.
	Machine core.Machine
	// Clock drives timers.
	Clock netem.Clock
	// Transport carries beats. The node registers itself on creation.
	Transport netem.Transport
	// Events, if non-nil, receives liveness notifications.
	Events EventSink
	// Observe, if non-nil, receives every machine step (trigger plus
	// returned actions) before the actions are executed; see Observer.
	Observe Observer
	// ReceivePriority applies the §6.1 fix at the runtime level: a timer
	// firing is deferred behind any same-instant deliveries already in
	// flight, by re-queueing the timer callback once at zero delay. Set
	// it when the machine's Config.Fixed is set.
	ReceivePriority bool
}

// Node runs one protocol machine. It runs on its clock (see netem.Clock):
// its timer expiries and message deliveries arrive one at a time, and a
// caller on another goroutine — a test or a runner over a netem.WallClock
// — calls its methods through WallClock.Do. It takes no lock of its own.
type Node struct {
	cfg Config
	// timers holds a record per TimerID the machine has armed, in first-arm
	// order: three at most, so a scan beats hashing.
	timers    []*nodeTimer
	started   bool
	buf       []byte // scratch for marshalling outgoing beats
	recoverFn func(id netem.NodeID, op string, recovered any)
}

// nodeTimer is the state of one of the machine's logical timers, built on
// the timer's first arm and reused for every rearm.
type nodeTimer struct {
	id core.TimerID
	// gen counts the timer's SetTimer, CancelTimer and Restart events and
	// tags every arm. An expiry whose tag is no longer gen was superseded
	// and is dropped: a wall-clock expiry can already be waiting for the
	// clock when the machine rearms or cancels.
	gen uint64
	arm netem.Timer // runs out the machine's delay
	hop netem.Timer // §6.1 zero-delay hop after arm; nil unless ReceivePriority
}

// ErrNodeConfig reports an invalid node configuration.
var ErrNodeConfig = errors.New("detector: invalid node config")

// NewNode builds a node and registers it with the transport.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Machine == nil || cfg.Clock == nil || cfg.Transport == nil {
		return nil, fmt.Errorf("%w: machine, clock and transport are required", ErrNodeConfig)
	}
	n := &Node{cfg: cfg}
	if err := cfg.Transport.Register(cfg.ID, n.onMessage); err != nil {
		return nil, fmt.Errorf("detector: registering node %d: %w", cfg.ID, err)
	}
	return n, nil
}

// ID returns the node's transport address.
func (n *Node) ID() netem.NodeID { return n.cfg.ID }

// Status reports the machine's liveness state.
func (n *Node) Status() core.Status {
	return n.cfg.Machine.Status()
}

// SetRecover installs a handler for panics escaping the protocol machine.
// With a handler installed, a panic in OnBeat/OnTimer is recovered, the
// node's remaining state is left as the machine last wrote it (possibly
// corrupt — the handler should arrange a Restart), and the handler is
// called once the step has unwound. Without a handler panics propagate, as
// before.
func (n *Node) SetRecover(fn func(id netem.NodeID, op string, recovered any)) {
	n.recoverFn = fn
}

// Restart replaces the node's machine with m and starts it, cancelling
// every pending timer and invalidating in-flight timer callbacks of the
// old machine. It is the self-healing path: a crashed, wedged, or
// protocol-inactivated node re-enters the protocol as a fresh process
// (for the dynamic protocol, the fresh machine solicits a join, which the
// coordinator treats like any joiner). The node keeps its transport
// registration.
func (n *Node) Restart(m core.Machine) error {
	if m == nil {
		return fmt.Errorf("%w: restart needs a machine", ErrNodeConfig)
	}
	for _, t := range n.timers {
		n.stopTimer(t)
	}
	n.cfg.Machine = m
	n.started = true
	now := n.now()
	n.step(Trigger{Kind: TriggerRestart}, now, m.Start(now))
	return nil
}

// step reports one machine step taken at now to the observer and applies
// its actions.
func (n *Node) step(tr Trigger, now core.Tick, actions []core.Action) {
	n.observe(tr, now, actions)
	n.apply(now, actions)
}

// runGuarded reads the clock once and runs fn at that time as one step
// (see step). When a recover handler is installed, a
// panic from the machine (or from applying its actions) is captured and
// returned instead of propagating; otherwise it propagates unchanged. A
// step whose machine call panics is not observed.
func (n *Node) runGuarded(tr Trigger, fn func(now core.Tick) []core.Action) (recovered any) {
	defer func() {
		if r := recover(); r != nil {
			if n.recoverFn == nil {
				panic(r)
			}
			recovered = r
		}
	}()
	now := n.now()
	//lint:allow noalloc-closure fn is the machine-step closure built at each call site; its body is attributed to and checked at those sites
	n.step(tr, now, fn(now))
	return nil
}

// Start delivers Start to the machine. It must be called exactly once.
func (n *Node) Start() error {
	if n.started {
		return fmt.Errorf("%w: node %d already started", ErrNodeConfig, n.cfg.ID)
	}
	n.started = true
	now := n.now()
	n.step(Trigger{Kind: TriggerStart}, now, n.cfg.Machine.Start(now))
	return nil
}

// Crash injects a voluntary inactivation.
func (n *Node) Crash() {
	now := n.now()
	n.step(Trigger{Kind: TriggerCrash}, now, n.cfg.Machine.Crash(now))
}

// Leave starts a graceful departure; the machine must be a dynamic
// core.Participant.
func (n *Node) Leave() error {
	p, ok := n.cfg.Machine.(*core.Participant)
	if !ok {
		return fmt.Errorf("%w: node %d machine cannot leave", ErrNodeConfig, n.cfg.ID)
	}
	now := n.now()
	actions, err := p.Leave(now)
	if err != nil {
		return err
	}
	n.step(Trigger{Kind: TriggerLeave}, now, actions)
	return nil
}

// Rejoin re-enters the protocol after a completed leave; the machine must
// be a dynamic core.Participant and the coordinator must allow rejoin.
func (n *Node) Rejoin() error {
	p, ok := n.cfg.Machine.(*core.Participant)
	if !ok {
		return fmt.Errorf("%w: node %d machine cannot rejoin", ErrNodeConfig, n.cfg.ID)
	}
	now := n.now()
	actions, err := p.Rejoin(now)
	if err != nil {
		return err
	}
	n.step(Trigger{Kind: TriggerRejoin}, now, actions)
	return nil
}

// onMessage is the transport delivery handler.
func (n *Node) onMessage(msg netem.Message) {
	beat, err := core.UnmarshalBeat(msg.Payload)
	if err != nil {
		return // garbage on the wire is dropped, like a lost message
	}
	if rec := n.runGuarded(Trigger{Kind: TriggerBeat, Beat: beat}, func(now core.Tick) []core.Action {
		return n.cfg.Machine.OnBeat(beat, now)
	}); rec != nil {
		n.recoverFn(n.cfg.ID, "beat", rec)
	}
}

// fireTimer is the expiry callback of t's timers: arm's, and hop's when
// there is one. gen is the tag of the arm that is running out.
//
//hbvet:noalloc
func (n *Node) fireTimer(t *nodeTimer, gen uint64, hop bool) {
	if t.gen != gen {
		return // superseded by a later SetTimer, CancelTimer or Restart
	}
	if hop {
		// §6.1: let same-instant deliveries already queued run first by
		// taking one zero-delay hop through the scheduler.
		t.hop.Reset(0, gen)
		return
	}
	//lint:allow noalloc-closure closure does not escape runGuarded (called inline, not retained), so it stays on the stack
	if rec := n.runGuarded(Trigger{Kind: TriggerTimer, Timer: t.id}, func(now core.Tick) []core.Action {
		return n.cfg.Machine.OnTimer(t.id, now)
	}); rec != nil {
		//lint:allow noalloc-closure recover handler runs only after a machine panic, never in steady state
		n.recoverFn(n.cfg.ID, "timer", rec)
	}
}

// apply executes the actions of a machine step taken at now, which stamps
// the events it emits.
//
//hbvet:noalloc
func (n *Node) apply(now core.Tick, actions []core.Action) {
	for i := range actions {
		act := &actions[i]
		switch act.Kind {
		case core.ActSendBeat:
			// Marshal into the node's scratch buffer; transports copy the
			// payload before returning, so the buffer is free for the next
			// beat. Ignore send errors: an unknown recipient behaves like
			// a lossy link, which the protocol already tolerates.
			n.buf = act.Beat.AppendMarshal(n.buf[:0])
			_ = n.cfg.Transport.Send(n.cfg.ID, netem.NodeID(act.To), n.buf)
		case core.ActSetTimer:
			n.setTimer(act.ID, act.Delay)
		case core.ActCancelTimer:
			if t := n.timer(act.ID); t != nil {
				n.stopTimer(t)
			}
		case core.ActInactivate:
			n.emit(Event{Time: now, Node: n.cfg.ID, Kind: EventInactivated, Voluntary: act.Voluntary})
		case core.ActSuspect:
			n.emit(Event{Time: now, Node: n.cfg.ID, Kind: EventSuspect, Proc: act.Proc})
		case core.ActJoined:
			n.emit(Event{Time: now, Node: n.cfg.ID, Kind: EventJoined})
		case core.ActLeft:
			n.emit(Event{Time: now, Node: n.cfg.ID, Kind: EventLeft})
		case core.ActRetune:
			n.emit(Event{Time: now, Node: n.cfg.ID, Kind: EventRetuned, TMin: act.TMin, TMax: act.TMax})
		}
	}
}

// setTimer (re)arms the machine's timer id; steady-state rearms allocate
// nothing.
//
//hbvet:noalloc
func (n *Node) setTimer(id core.TimerID, d core.Tick) {
	t := n.timer(id)
	if t == nil {
		t = n.newTimer(id)
	}
	t.gen++ // strands the expiry this arm supersedes
	if t.hop != nil {
		t.hop.Stop()
	}
	t.arm.Reset(sim.Time(d), t.gen)
}

// timer returns timer id's record, or nil before its first arm.
//
//hbvet:noalloc
func (n *Node) timer(id core.TimerID) *nodeTimer {
	for _, t := range n.timers {
		if t.id == id {
			return t
		}
	}
	return nil
}

// newTimer builds timer id's record and expiry closures on its first arm.
//
//lint:allow noalloc-closure first-arm warm-up; one nodeTimer per TimerID, reused for every rearm
func (n *Node) newTimer(id core.TimerID) *nodeTimer {
	t := &nodeTimer{id: id}
	hop := n.cfg.ReceivePriority
	t.arm = n.cfg.Clock.NewTimer(func(gen uint64) { n.fireTimer(t, gen, hop) })
	if hop {
		t.hop = n.cfg.Clock.NewTimer(func(gen uint64) { n.fireTimer(t, gen, false) })
	}
	n.timers = append(n.timers, t)
	return t
}

// stopTimer disarms t and strands any expiry already past its Stop.
//
//hbvet:noalloc
func (n *Node) stopTimer(t *nodeTimer) {
	t.gen++
	t.arm.Stop()
	if t.hop != nil {
		t.hop.Stop()
	}
}

// now reads the node's clock in protocol ticks. Each step reads it once:
// the machine, the observer and the emitted events all see that reading.
func (n *Node) now() core.Tick { return core.Tick(n.cfg.Clock.Now()) }

func (n *Node) emit(e Event) {
	if n.cfg.Events != nil {
		n.cfg.Events.HandleEvent(e)
	}
}
