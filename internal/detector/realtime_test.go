package detector

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
)

// TestRealTimeOverUDP runs the binary protocol end-to-end over real UDP
// sockets and the wall clock: steady state first, then a crash, then the
// coordinator's detection. Wall-clock tests are inherently jittery, so
// the tick is generous and only coarse milestones are asserted. The nodes
// run on the clock; the test reaches them, and the events they emit,
// through clock.Do.
func TestRealTimeOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test; skipped in -short")
	}
	clock, err := netem.NewWallClock(5 * time.Millisecond)
	if err != nil {
		t.Fatalf("NewWallClock: %v", err)
	}
	transport := netem.NewUDPTransport(clock)
	defer func() {
		if err := transport.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	cfg := core.Config{TMin: 4, TMax: 16}

	var events []Event
	sink := EventFunc(func(e Event) { events = append(events, e) })

	coordMachine, err := core.NewCoordinator(core.CoordinatorConfig{
		Config:     cfg,
		Membership: core.MembershipFixed,
		Members:    []core.ProcID{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewNode(Config{
		ID: 0, Machine: coordMachine, Clock: clock, Transport: transport, Events: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	respMachine, err := core.NewResponder(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := NewNode(Config{
		ID: 1, Machine: respMachine, Clock: clock, Transport: transport, Events: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.Do(func() {
		if err := coord.Start(); err != nil {
			t.Error(err)
		}
		if err := resp.Start(); err != nil {
			t.Error(err)
		}
	})
	status := func(n *Node) (st core.Status) {
		clock.Do(func() { st = n.Status() })
		return st
	}

	// Steady state: several rounds without events.
	time.Sleep(time.Duration(cfg.TMax) * 5 * time.Millisecond * 6)
	var early int
	clock.Do(func() { early = len(events) })
	if early != 0 {
		clock.Do(func() { t.Fatalf("events during steady state: %v", events) })
	}
	if status(coord) != core.StatusActive || status(resp) != core.StatusActive {
		t.Fatal("cluster not active in steady state")
	}

	// Crash the responder; detection must follow within the corrected
	// bound plus generous wall-clock slack.
	clock.Do(resp.Crash)
	deadline := time.Now().Add(time.Duration(cfg.CoordinatorDetectionBound()+4*cfg.TMax) * 5 * time.Millisecond)
	for time.Now().Before(deadline) {
		if status(coord) != core.StatusActive {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	clock.Do(func() {
		if coord.Status() != core.StatusInactive {
			t.Fatalf("coordinator did not detect the crash; status %v, events %v",
				coord.Status(), events)
		}
		var suspected bool
		for _, e := range events {
			if e.Kind == EventSuspect && e.Node == 0 && e.Proc == 1 {
				suspected = true
			}
		}
		if !suspected {
			t.Fatalf("no suspicion event recorded: %v", events)
		}
	})
}
