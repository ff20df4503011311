package detector

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

// panicMachine wraps a protocol machine and panics on the next beat after
// arm() — a stand-in for a latent handler bug.
type panicMachine struct {
	core.Machine
	armed atomic.Bool
}

func (p *panicMachine) arm() { p.armed.Store(true) }

func (p *panicMachine) OnBeat(b core.Beat, now core.Tick) []core.Action {
	if p.armed.CompareAndSwap(true, false) {
		panic("injected handler bug")
	}
	return p.Machine.OnBeat(b, now)
}

// supervisedPair builds a binary coordinator/responder pair on a fresh
// simulator with the responder's machine wrapped in pm, both nodes
// reporting into sup, and the responder managed by sup.
func supervisedPair(t *testing.T, sup *Supervisor, clock netem.Clock, net netem.Transport, pm *panicMachine) (coord, resp *Node) {
	t.Helper()
	cfg := core.Config{TMin: 2, TMax: 10}
	coordMachine, err := core.NewCoordinator(core.CoordinatorConfig{
		Config: cfg, Membership: core.MembershipFixed, Members: []core.ProcID{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err = NewNode(Config{ID: 0, Machine: coordMachine, Clock: clock, Transport: net, Events: sup})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.NewResponder(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	pm.Machine = inner
	resp, err = NewNode(Config{ID: 1, Machine: pm, Clock: clock, Transport: net, Events: sup})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Manage(resp, func() (core.Machine, error) { return core.NewResponder(cfg, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	if err := resp.Start(); err != nil {
		t.Fatal(err)
	}
	return coord, resp
}

func TestSupervisorRestartsPanickedNode(t *testing.T) {
	s := sim.New(sim.WithSeed(1))
	net, err := netem.NewNetwork(s, netem.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	clock := netem.SimClock{Sim: s}
	var events []Event
	sup, err := NewSupervisor(SupervisorConfig{
		Clock:      clock,
		Events:     EventFunc(func(e Event) { events = append(events, e) }),
		CheckEvery: 4,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pm := &panicMachine{}
	coord, resp := supervisedPair(t, sup, clock, net, pm)

	s.RunUntil(100)
	if len(events) != 0 {
		t.Fatalf("events during steady state: %v", events)
	}
	pm.arm()
	s.RunUntil(1000)

	if sup.Restarts(1) != 1 {
		t.Fatalf("restarts = %d, want 1", sup.Restarts(1))
	}
	var sawPanic, sawRestart bool
	for _, e := range events {
		switch {
		case e.Node == 1 && e.Kind == EventPanic:
			sawPanic = true
		case e.Node == 1 && e.Kind == EventRestarted:
			sawRestart = true
		case e.Kind == EventInactivated:
			t.Fatalf("panic brought the protocol down: %v", events)
		}
	}
	if !sawPanic || !sawRestart {
		t.Fatalf("panic/restart events missing: %v", events)
	}
	// The healed pair keeps beating.
	if coord.Status() != core.StatusActive || resp.Status() != core.StatusActive {
		t.Fatalf("cluster not active after self-heal: p0=%v p1=%v",
			coord.Status(), resp.Status())
	}
	// The replacement machine is a fresh responder, not the wrapper.
	if _, wrapped := resp.Machine().(*panicMachine); wrapped {
		t.Fatal("restart kept the broken machine")
	}
}

func TestSupervisorGivesUpAfterMaxRestarts(t *testing.T) {
	// A responder with no coordinator inactivates every ResponderBound;
	// the supervisor must retry with backoff and eventually give up.
	s := sim.New(sim.WithSeed(2))
	net, err := netem.NewNetwork(s, netem.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	clock := netem.SimClock{Sim: s}
	var events []Event
	sup, err := NewSupervisor(SupervisorConfig{
		Clock:       clock,
		Events:      EventFunc(func(e Event) { events = append(events, e) }),
		CheckEvery:  4,
		MaxRestarts: 3,
		Backoff:     Backoff{Base: 1, Max: 4},
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{TMin: 2, TMax: 10}
	m, err := core.NewResponder(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := NewNode(Config{ID: 1, Machine: m, Clock: clock, Transport: net, Events: sup})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Manage(resp, func() (core.Machine, error) { return core.NewResponder(cfg, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := resp.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2000)

	if got := sup.Restarts(1); got != 3 {
		t.Fatalf("restarts = %d, want 3", got)
	}
	gaveUp := 0
	for _, e := range events {
		if e.Node == 1 && e.Kind == EventGaveUp {
			gaveUp++
		}
	}
	if gaveUp != 1 {
		t.Fatalf("gave-up events = %d, want exactly 1: %v", gaveUp, events)
	}
	if resp.Status() != core.StatusInactive {
		t.Fatalf("abandoned node status = %v, want inactive", resp.Status())
	}
}

func TestSupervisorRestartCrashedFlag(t *testing.T) {
	run := func(restartCrashed bool) (*Supervisor, *Node, *sim.Simulator) {
		s := sim.New(sim.WithSeed(3))
		net, err := netem.NewNetwork(s, netem.LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		clock := netem.SimClock{Sim: s}
		sup, err := NewSupervisor(SupervisorConfig{
			Clock: clock, CheckEvery: 4, RestartCrashed: restartCrashed, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		pm := &panicMachine{}
		_, resp := supervisedPair(t, sup, clock, net, pm)
		s.RunUntil(50)
		resp.Crash()
		s.RunUntil(100)
		return sup, resp, s
	}

	sup, resp, _ := run(false)
	if sup.Restarts(1) != 0 || resp.Status() != core.StatusCrashed {
		t.Fatalf("crashed node healed without RestartCrashed: restarts=%d status=%v",
			sup.Restarts(1), resp.Status())
	}
	sup, resp, _ = run(true)
	if sup.Restarts(1) == 0 || resp.Status() != core.StatusActive {
		t.Fatalf("RestartCrashed did not heal: restarts=%d status=%v",
			sup.Restarts(1), resp.Status())
	}
}

func TestSupervisorConfirmsDown(t *testing.T) {
	s := sim.New()
	clock := netem.SimClock{Sim: s}
	var events []Event
	sup, err := NewSupervisor(SupervisorConfig{
		Clock:        clock,
		Events:       EventFunc(func(e Event) { events = append(events, e) }),
		ConfirmAfter: 10,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A suspicion left uncontradicted hardens into confirmed-down.
	sup.HandleEvent(Event{Node: 0, Kind: EventSuspect, Proc: 2})
	if got := sup.PeerState(2); got != PeerSuspected {
		t.Fatalf("peer 2 = %v right after suspect, want suspected", got)
	}
	s.RunUntil(20)
	if got := sup.PeerState(2); got != PeerDown {
		t.Fatalf("peer 2 = %v after the window, want down", got)
	}
	var confirmed bool
	for _, e := range events {
		if e.Kind == EventDown && e.Proc == 2 {
			confirmed = true
		}
	}
	if !confirmed {
		t.Fatalf("no EventDown for peer 2: %v", events)
	}

	// A rejoin inside the window clears the suspicion; no EventDown fires.
	sup.HandleEvent(Event{Node: 3, Kind: EventSuspect, Proc: 3})
	s.RunUntil(25)
	sup.HandleEvent(Event{Node: 3, Kind: EventJoined})
	s.RunUntil(60)
	if got := sup.PeerState(3); got != PeerHealthy {
		t.Fatalf("peer 3 = %v after rejoin, want healthy", got)
	}
	for _, e := range events {
		if e.Kind == EventDown && e.Proc == 3 {
			t.Fatalf("contradicted suspicion still confirmed: %v", events)
		}
	}
	if got := sup.PeerState(9); got != PeerHealthy {
		t.Fatalf("unknown peer = %v, want healthy", got)
	}
	if PeerDown.String() != "down" || PeerState(9).String() == "" {
		t.Fatal("PeerState.String mismatch")
	}
}

func TestBackoffDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := Backoff{Base: 2, Max: 16}
	for attempt, want := range []core.Tick{2, 4, 8, 16, 16, 16} {
		if got := b.delay(attempt, rng); got != want {
			t.Fatalf("delay(%d) = %d, want %d", attempt, got, want)
		}
	}
	// Defaults: Base 1, Max 64.
	if got := b.delay(0, rng); got != 2 {
		t.Fatalf("delay(0) = %d", got)
	}
	zero := Backoff{}
	if got := zero.delay(0, rng); got != 1 {
		t.Fatalf("zero backoff delay(0) = %d, want 1", got)
	}
	if got := zero.delay(20, rng); got != 64 {
		t.Fatalf("zero backoff delay(20) = %d, want 64", got)
	}
	// Jitter stretches the delay by at most the configured fraction.
	j := Backoff{Base: 4, Max: 4, Jitter: 0.5}
	for i := 0; i < 200; i++ {
		if d := j.delay(0, rng); d < 4 || d > 6 {
			t.Fatalf("jittered delay %d outside [4, 6]", d)
		}
	}
}

func TestSupervisorValidation(t *testing.T) {
	if _, err := NewSupervisor(SupervisorConfig{}); !errors.Is(err, ErrNodeConfig) {
		t.Fatalf("clockless supervisor accepted: %v", err)
	}
	s := sim.New()
	sup, err := NewSupervisor(SupervisorConfig{Clock: netem.SimClock{Sim: s}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Manage(nil, nil); !errors.Is(err, ErrNodeConfig) {
		t.Fatalf("nil node accepted: %v", err)
	}
	net, err := netem.NewNetwork(s, netem.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewResponder(core.Config{TMin: 2, TMax: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{ID: 1, Machine: m, Clock: netem.SimClock{Sim: s}, Transport: net})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Manage(n, nil); err != nil {
		t.Fatal(err)
	}
	if err := sup.Manage(n, nil); !errors.Is(err, ErrNodeConfig) {
		t.Fatalf("double Manage accepted: %v", err)
	}
	sup.Stop()
	if err := sup.Manage(n, nil); !errors.Is(err, ErrNodeConfig) {
		t.Fatalf("Manage after Stop accepted: %v", err)
	}
	if got := sup.Restarts(42); got != 0 {
		t.Fatalf("Restarts of unmanaged node = %d", got)
	}
}

// TestSupervisorHealsPanicMidRunRealTime is the wall-clock, -race variant:
// a handler panic strikes a live UDP cluster and the supervisor restarts
// the node while beats keep flowing on other goroutines.
func TestSupervisorHealsPanicMidRunRealTime(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test; skipped in -short")
	}
	transport := netem.NewUDPTransport()
	defer func() {
		if err := transport.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	clock, err := netem.NewWallClock(5 * time.Millisecond)
	if err != nil {
		t.Fatalf("NewWallClock: %v", err)
	}
	cfg := core.Config{TMin: 4, TMax: 16}

	var mu sync.Mutex
	var events []Event
	sup, err := NewSupervisor(SupervisorConfig{
		Clock: clock,
		Events: EventFunc(func(e Event) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, e)
		}),
		CheckEvery: 8,
		Backoff:    Backoff{Base: 1, Max: 8, Jitter: 0.3},
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	coordMachine, err := core.NewCoordinator(core.CoordinatorConfig{
		Config: cfg, Membership: core.MembershipFixed, Members: []core.ProcID{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewNode(Config{ID: 0, Machine: coordMachine, Clock: clock, Transport: transport, Events: sup})
	if err != nil {
		t.Fatal(err)
	}
	pm := &panicMachine{}
	inner, err := core.NewResponder(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	pm.Machine = inner
	resp, err := NewNode(Config{ID: 1, Machine: pm, Clock: clock, Transport: transport, Events: sup})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Manage(resp, func() (core.Machine, error) { return core.NewResponder(cfg, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	if err := resp.Start(); err != nil {
		t.Fatal(err)
	}

	// Let the pair reach steady state, then break the responder mid-run.
	time.Sleep(300 * time.Millisecond)
	pm.arm()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sup.Restarts(1) >= 1 && resp.Status() == core.StatusActive {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sup.Restarts(1) < 1 {
		t.Fatal("supervisor never restarted the panicked node")
	}
	// Give the healed pair a few more rounds; nobody may wind down.
	time.Sleep(300 * time.Millisecond)
	if coord.Status() != core.StatusActive || resp.Status() != core.StatusActive {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("cluster did not survive the panic: p0=%v p1=%v events=%v",
			coord.Status(), resp.Status(), events)
	}
	mu.Lock()
	defer mu.Unlock()
	var sawPanic, sawRestart bool
	for _, e := range events {
		if e.Node == 1 && e.Kind == EventPanic {
			sawPanic = true
		}
		if e.Node == 1 && e.Kind == EventRestarted {
			sawRestart = true
		}
	}
	if !sawPanic || !sawRestart {
		t.Fatalf("panic/restart events missing: %v", events)
	}
}
