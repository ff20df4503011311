package detector

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

// creepingClock is a simulator clock whose reading moves on by one tick on
// every Now, as a wall clock can between two reads in one step. It counts
// its reads and remembers the last one.
type creepingClock struct {
	netem.SimClock
	reads int
	last  sim.Time
}

func (c *creepingClock) Now() sim.Time {
	c.reads++
	c.last = c.Sim.Now() + sim.Time(c.reads)
	return c.last
}

// stepTimeProbe checks each step of one node against its creepingClock:
// the step reads the clock once, and the observer sees that reading.
type stepTimeProbe struct {
	t     *testing.T
	id    netem.NodeID
	clock *creepingClock
	// base is the clock's read count when the current step began.
	base int
	// steps holds the observed steps of the current step window.
	steps []observedStep
	seen  map[TriggerKind]bool
}

type observedStep struct {
	kind TriggerKind
	now  core.Tick
}

func (p *stepTimeProbe) ObserveStep(id netem.NodeID, now core.Tick, tr Trigger, _ []core.Action) {
	if id != p.id {
		return
	}
	if reads := p.clock.reads - p.base; reads != 1 {
		p.t.Errorf("%v step: the clock was read %d times before the observer ran, want 1", tr.Kind, reads)
	}
	if now != core.Tick(p.clock.last) {
		p.t.Errorf("%v step: observer got t=%d, the machine's reading was t=%d", tr.Kind, now, p.clock.last)
	}
	p.steps = append(p.steps, observedStep{tr.Kind, now})
	p.seen[tr.Kind] = true
}

// TestNodeReadsClockOncePerStep drives a dynamic participant through
// start, beat, leave, rejoin, crash, restart and timer steps on a clock
// whose reading creeps on every read. Each step must read the clock
// exactly once, so the machine, the observer and every event the step
// emits carry one time; a step that read it again would stamp its
// observation and events later than the machine acted.
func TestNodeReadsClockOncePerStep(t *testing.T) {
	cfg := ClusterConfig{Protocol: ProtocolDynamic, Core: core.Config{TMin: 2, TMax: 8}, N: 1, AllowRejoin: true}
	s := sim.New()
	nw, err := netem.NewNetwork(s, netem.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	clock := &creepingClock{SimClock: netem.SimClock{Sim: s}}
	probe := &stepTimeProbe{t: t, id: 1, clock: clock, seen: map[TriggerKind]bool{}}
	var events []Event
	sink := EventFunc(func(e Event) {
		if e.Node == probe.id {
			events = append(events, e)
		}
	})
	coordMachine, err := newCoordinatorMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewNode(Config{ID: 0, Machine: coordMachine, Clock: netem.SimClock{Sim: s}, Transport: nw})
	if err != nil {
		t.Fatal(err)
	}
	partMachine, err := newParticipantMachine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewNode(Config{ID: 1, Machine: partMachine, Clock: clock, Transport: nw, Events: sink, Observe: probe})
	if err != nil {
		t.Fatal(err)
	}

	// step runs one step window — a direct call, or one simulator event —
	// and checks that it read the clock once per observed step and
	// stamped every event it emitted with that step's time.
	step := func(name string, fn func()) {
		t.Helper()
		probe.base, probe.steps = clock.reads, nil
		firstEvent := len(events)
		fn()
		if reads := clock.reads - probe.base; reads != len(probe.steps) {
			t.Fatalf("%s: %d clock reads for %d machine steps", name, reads, len(probe.steps))
		}
		for _, e := range events[firstEvent:] {
			if len(probe.steps) != 1 || e.Time != probe.steps[0].now {
				t.Fatalf("%s: %v event stamped t=%d, steps %v", name, e.Kind, e.Time, probe.steps)
			}
		}
	}
	run := func(until sim.Time) {
		t.Helper()
		done := false
		if _, err := s.ScheduleAt(until, func() { done = true }); err != nil {
			t.Fatal(err)
		}
		for !done {
			step("event", func() { s.Step() })
		}
	}
	mustStep := func(name string, fn func() error) {
		t.Helper()
		step(name, func() {
			if err := fn(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
	}

	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	mustStep("start", part.Start)
	run(60)
	mustStep("leave", part.Leave)
	run(120)
	mustStep("rejoin", part.Rejoin)
	run(180)
	step("crash", part.Crash)
	restart, err := newParticipantMachine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustStep("restart", func() error { return part.Restart(restart) })
	run(240)
	// With the coordinator gone the participant's watchdog runs out.
	coord.Crash()
	run(400)

	for _, k := range []TriggerKind{TriggerStart, TriggerBeat, TriggerLeave, TriggerRejoin, TriggerCrash, TriggerRestart, TriggerTimer} {
		if !probe.seen[k] {
			t.Errorf("no %v step observed", k)
		}
	}
	kinds := map[EventKind]bool{}
	for _, e := range events {
		kinds[e.Kind] = true
	}
	for _, k := range []EventKind{EventJoined, EventLeft, EventInactivated} {
		if !kinds[k] {
			t.Errorf("no %v event emitted; events %v", k, events)
		}
	}
}
