package detector

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/sim"
)

// manualClock is a netem.Clock under the test's hand. Its timers keep the
// tag of every arm a Reset or Stop superseded, so a test can deliver those
// expiries anyway — what a wall-clock timer does when its callback was
// already running, blocked on the owner's lock, as it was superseded.
type manualClock struct {
	now    sim.Time
	timers []*manualTimer
}

func (c *manualClock) Now() sim.Time { return c.now }

func (c *manualClock) NewTimer(fn func(tag uint64)) netem.Timer {
	t := &manualTimer{fn: fn}
	c.timers = append(c.timers, t)
	return t
}

// armed counts the clock's timers with a pending expiry.
func (c *manualClock) armed() int {
	n := 0
	for _, t := range c.timers {
		if t.pending {
			n++
		}
	}
	return n
}

// fireAll delivers every pending expiry, including ones armed by the
// expiries it delivers, and reports how many ran.
func (c *manualClock) fireAll() int {
	n := 0
	for i := 0; i < len(c.timers); i++ {
		if t := c.timers[i]; t.pending {
			t.pending = false
			t.fn(t.tag)
			n++
			i = -1
		}
	}
	return n
}

// deliverStale delivers every superseded expiry once.
func (c *manualClock) deliverStale() int {
	n := 0
	for _, t := range c.timers {
		stale := t.stale
		t.stale = nil
		for _, tag := range stale {
			t.fn(tag)
			n++
		}
	}
	return n
}

type manualTimer struct {
	fn      func(tag uint64)
	pending bool
	tag     uint64
	stale   []uint64
}

func (t *manualTimer) Reset(_ sim.Time, tag uint64) {
	t.Stop()
	t.pending, t.tag = true, tag
}

func (t *manualTimer) Stop() {
	if t.pending {
		t.pending = false
		t.stale = append(t.stale, t.tag)
	}
}

// scriptMachine answers every trigger with the actions its script holds
// for it and counts the expiries it is shown.
type scriptMachine struct {
	onStart, onTimer, onCrash []core.Action
	expiries                  int
}

func (m *scriptMachine) Start(core.Tick) []core.Action { return m.onStart }
func (m *scriptMachine) OnTimer(core.TimerID, core.Tick) []core.Action {
	m.expiries++
	return m.onTimer
}
func (m *scriptMachine) OnBeat(core.Beat, core.Tick) []core.Action { return nil }
func (m *scriptMachine) Crash(core.Tick) []core.Action             { return m.onCrash }
func (m *scriptMachine) Status() core.Status                       { return core.StatusActive }

func scriptNode(t *testing.T, clock netem.Clock, m core.Machine, priority bool) *Node {
	t.Helper()
	net, err := netem.NewNetwork(sim.New(), netem.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{ID: 1, Machine: m, Clock: clock, Transport: net, ReceivePriority: priority})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSupersededExpiryNeverReachesMachine drives the guard a wall clock
// needs: an expiry that a SetTimer, a CancelTimer or a Restart superseded
// may still be delivered, and the machine must not see it — neither the
// expiry of the machine's delay nor, with ReceivePriority, the expiry of
// the §6.1 zero-delay hop.
func TestSupersededExpiryNeverReachesMachine(t *testing.T) {
	set := []core.Action{core.SetTimer(core.TimerExpiry, 5)}
	// Each way of superseding returns the machine that must not see the
	// old expiry. Node.Crash is only the handle that makes the scripted
	// machine emit its next actions.
	supersede := map[string]func(*testing.T, *Node, *scriptMachine) *scriptMachine{
		"SetTimer": func(_ *testing.T, n *Node, m *scriptMachine) *scriptMachine {
			m.onCrash = set
			n.Crash()
			return m
		},
		"CancelTimer": func(_ *testing.T, n *Node, m *scriptMachine) *scriptMachine {
			m.onCrash = []core.Action{core.CancelTimer(core.TimerExpiry)}
			n.Crash()
			return m
		},
		"Restart": func(t *testing.T, n *Node, _ *scriptMachine) *scriptMachine {
			fresh := &scriptMachine{}
			if err := n.Restart(fresh); err != nil {
				t.Fatal(err)
			}
			return fresh
		},
	}
	for name, by := range supersede {
		for _, priority := range []bool{false, true} {
			for _, duringHop := range []bool{false, true} {
				if duringHop && !priority {
					continue
				}
				t.Run(fmt.Sprintf("%s/priority=%v/hop=%v", name, priority, duringHop), func(t *testing.T) {
					clock := &manualClock{}
					m := &scriptMachine{onStart: set}
					n := scriptNode(t, clock, m, priority)
					if duringHop {
						// Run the delay out so the hop is what is pending.
						clock.timers[0].pending = false
						clock.timers[0].fn(clock.timers[0].tag)
					}
					if clock.armed() != 1 {
						t.Fatalf("%d timers armed before superseding, want 1", clock.armed())
					}
					m = by(t, n, m)
					if got := clock.deliverStale(); got != 1 {
						t.Fatalf("delivered %d superseded expiries, want 1", got)
					}
					live := 0
					if name == "SetTimer" {
						live = 1 // the arm that superseded it is still good
					}
					if m.expiries != 0 || clock.armed() != live {
						t.Fatalf("superseded expiry got through: machine saw %d expiries, %d timers armed (want %d)",
							m.expiries, clock.armed(), live)
					}
					if clock.fireAll(); m.expiries != live {
						t.Fatalf("machine saw %d expiries, want %d", m.expiries, live)
					}
				})
			}
		}
	}
}

// TestTimerRearmAllocFreeUnderDriftClock: a fault campaign gives every node
// a DriftClock over the sim clock, and SetTimer/CancelTimer rearms there
// allocate nothing once each timer has been armed once.
func TestTimerRearmAllocFreeUnderDriftClock(t *testing.T) {
	for _, priority := range []bool{false, true} {
		s := sim.New()
		clock := faults.NewDriftClock(netem.SimClock{Sim: s})
		if err := clock.SetDrift(3, 2, 0); err != nil {
			t.Fatal(err)
		}
		rearm := []core.Action{
			core.SetTimer(core.TimerRound, 4),
			core.SetTimer(core.TimerExpiry, 9),
			core.SetTimer(core.TimerExpiry, 7),
			core.CancelTimer(core.TimerExpiry),
		}
		m := &scriptMachine{onStart: rearm, onTimer: rearm}
		scriptNode(t, clock, m, priority)
		s.RunUntil(20)
		before := m.expiries
		if n := testing.AllocsPerRun(200, func() { s.Step() }); n != 0 {
			t.Errorf("priority=%v: a timer rearm allocates %v per event, want 0", priority, n)
		}
		if m.expiries == before {
			t.Fatalf("priority=%v: no timer expired while measuring", priority)
		}
	}
}

// rearmMachine rearms all three timer IDs on every trigger and counts the
// expiries it is shown per ID.
type rearmMachine struct {
	scriptMachine
	fired [4]int
}

func (m *rearmMachine) OnTimer(id core.TimerID, now core.Tick) []core.Action {
	m.fired[id]++
	return m.scriptMachine.OnTimer(id, now)
}

// TestNodeRearmsAllThreeTimersAllocFree: the node keeps one record per
// TimerID in a slice it scans, so once each ID has been armed once, rearming
// and cancelling any of them allocates nothing, builds no second record, and
// an expiry reaches the machine under the ID that was armed.
func TestNodeRearmsAllThreeTimersAllocFree(t *testing.T) {
	for _, priority := range []bool{false, true} {
		s := sim.New()
		rearm := []core.Action{
			core.SetTimer(core.TimerJoinResend, 2),
			core.SetTimer(core.TimerRound, 3),
			core.SetTimer(core.TimerExpiry, 9),
			core.SetTimer(core.TimerExpiry, 5),
			core.CancelTimer(core.TimerRound),
			core.SetTimer(core.TimerRound, 4),
		}
		m := &rearmMachine{scriptMachine: scriptMachine{onStart: rearm, onTimer: rearm}}
		n := scriptNode(t, netem.SimClock{Sim: s}, m, priority)
		s.RunUntil(20)
		if allocs := testing.AllocsPerRun(200, func() { s.Step() }); allocs != 0 {
			t.Errorf("priority=%v: rearming three timers allocates %v per event, want 0", priority, allocs)
		}
		if len(n.timers) != 3 {
			t.Errorf("priority=%v: node holds %d timer records, want one per TimerID", priority, len(n.timers))
		}
		// Every trigger rearms all three, so only the shortest delay ever
		// runs out.
		if m.fired[core.TimerJoinResend] == 0 || m.fired[core.TimerRound] != 0 || m.fired[core.TimerExpiry] != 0 {
			t.Errorf("priority=%v: expiries per TimerID %v, want only join-resend's", priority, m.fired)
		}
	}
}

// TestSupervisorStopLeavesNothingArmed: with a poll and a restart backoff
// both pending, Stop disarms them, and expiries delivered late anyway do
// nothing.
func TestSupervisorStopLeavesNothingArmed(t *testing.T) {
	clock := &manualClock{}
	var events []Event
	sup, err := NewSupervisor(SupervisorConfig{
		Clock:  clock,
		Events: EventFunc(func(e Event) { events = append(events, e) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := scriptNode(t, clock, &scriptMachine{}, false)
	if err := sup.Manage(n, func() (core.Machine, error) { return &scriptMachine{}, nil }); err != nil {
		t.Fatal(err)
	}
	sup.scheduleRestart(n.ID())
	sup.HandleEvent(Event{Node: 0, Kind: EventSuspect, Proc: 1})
	if got := clock.armed(); got != 2 {
		t.Fatalf("%d supervisor timers armed, want poll + restart", got)
	}
	events = nil

	sup.Stop()
	if got := clock.armed(); got != 0 {
		t.Fatalf("%d timers still armed after Stop", got)
	}
	if got := clock.deliverStale(); got != 2 {
		t.Fatalf("delivered %d late expiries, want 2", got)
	}
	if len(events) != 0 || clock.armed() != 0 || sup.Restarts(n.ID()) != 0 {
		t.Fatalf("late expiries acted after Stop: events %v, %d timers armed, %d restarts",
			events, clock.armed(), sup.Restarts(n.ID()))
	}
}
