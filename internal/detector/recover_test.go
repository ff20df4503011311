package detector

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

// boomMachine panics in OnBeat and OnTimer while armed, and otherwise
// returns nothing; Start arms an expiry timer.
type boomMachine struct {
	scriptMachine
	armed bool
}

func (m *boomMachine) OnBeat(core.Beat, core.Tick) []core.Action {
	if m.armed {
		panic("boom beat")
	}
	return nil
}

func (m *boomMachine) OnTimer(core.TimerID, core.Tick) []core.Action {
	if m.armed {
		panic("boom timer")
	}
	return nil
}

// stepLog is an Observer recording the trigger kinds it is shown.
type stepLog []TriggerKind

func (l *stepLog) ObserveStep(_ netem.NodeID, _ core.Tick, tr Trigger, _ []core.Action) {
	*l = append(*l, tr.Kind)
}

// TestSetRecoverRecoversStepOnce: with a handler installed, a panicking
// OnBeat and a panicking OnTimer are each recovered, the handler is called
// once per panic with op "beat" or "timer" and the panic value, the
// panicking step is not observed, and the node takes its next step as
// usual. Without a handler the panic reaches the simulator's caller.
func TestSetRecoverRecoversStepOnce(t *testing.T) {
	type call struct {
		id  netem.NodeID
		op  string
		rec any
	}
	s := sim.New()
	net, err := netem.NewNetwork(s, netem.LinkConfig{MinDelay: 1, MaxDelay: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Register(0, func(netem.Message) {}); err != nil {
		t.Fatal(err)
	}
	m := &boomMachine{scriptMachine: scriptMachine{onStart: []core.Action{core.SetTimer(core.TimerExpiry, 5)}}}
	var steps stepLog
	n, err := NewNode(Config{ID: 1, Machine: m, Clock: netem.SimClock{Sim: s}, Transport: net, Observe: &steps})
	if err != nil {
		t.Fatal(err)
	}
	var calls []call
	n.SetRecover(func(id netem.NodeID, op string, rec any) { calls = append(calls, call{id, op, rec}) })
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	beat := core.Beat{From: 0, Stay: true}.AppendMarshal(nil)

	m.armed = true
	if err := net.Send(0, 1, beat); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2)
	if want := []call{{1, "beat", "boom beat"}}; len(calls) != 1 || calls[0] != want[0] {
		t.Fatalf("after a panicking OnBeat: handler calls %v, want %v", calls, want)
	}
	s.RunUntil(6)
	if want := (call{1, "timer", "boom timer"}); len(calls) != 2 || calls[1] != want {
		t.Fatalf("after a panicking OnTimer: handler calls %v, want a second call %v", calls, want)
	}
	if want := []TriggerKind{TriggerStart}; len(steps) != 1 || steps[0] != want[0] {
		t.Fatalf("observed steps %v, want only %v: a panicking step is not observed", steps, want)
	}

	m.armed = false
	if err := net.Send(0, 1, beat); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(8)
	if len(calls) != 2 || len(steps) != 2 || steps[1] != TriggerBeat {
		t.Fatalf("a quiet beat after the panics: handler calls %v, steps %v; want no call and one beat step", calls, steps)
	}

	// Without a handler the panic propagates out of the event.
	n.SetRecover(nil)
	m.armed = true
	if err := net.Send(0, 1, beat); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != "boom beat" {
				t.Errorf("without a handler: recovered %v from the simulator, want the machine's panic", r)
			}
		}()
		s.RunUntil(10)
	}()
	if len(calls) != 2 {
		t.Errorf("a removed handler was called: %v", calls)
	}
}
