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
	resp.mu.Lock()
	_, wrapped := resp.cfg.Machine.(*panicMachine)
	resp.mu.Unlock()
	if wrapped {
		t.Fatal("restart kept the broken machine")
	}
}

// TestSupervisorLeavesCrashedNodeDown: a voluntary crash is an operator
// action, not a failure the supervisor heals.
func TestSupervisorLeavesCrashedNodeDown(t *testing.T) {
	s := sim.New(sim.WithSeed(3))
	net, err := netem.NewNetwork(s, netem.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	clock := netem.SimClock{Sim: s}
	sup, err := NewSupervisor(SupervisorConfig{Clock: clock, CheckEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, resp := supervisedPair(t, sup, clock, net, &panicMachine{})
	s.RunUntil(50)
	resp.Crash()
	s.RunUntil(100)
	if sup.Restarts(1) != 0 || resp.Status() != core.StatusCrashed {
		t.Fatalf("crashed node healed: restarts=%d status=%v", sup.Restarts(1), resp.Status())
	}
}

// TestSupervisorConfirmsDown: a peer's first suspicion is confirmed at
// once with one EventDown; further suspicions of it stay quiet until it
// rejoins, and a rejoined peer's next suspicion is confirmed again.
func TestSupervisorConfirmsDown(t *testing.T) {
	s := sim.New()
	clock := netem.SimClock{Sim: s}
	var events []Event
	sup, err := NewSupervisor(SupervisorConfig{
		Clock:  clock,
		Events: EventFunc(func(e Event) { events = append(events, e) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	downs := func(p core.ProcID) int {
		n := 0
		for _, e := range events {
			if e.Kind == EventDown && e.Proc == p {
				n++
			}
		}
		return n
	}

	sup.HandleEvent(Event{Node: 0, Kind: EventSuspect, Proc: 2})
	sup.HandleEvent(Event{Node: 0, Kind: EventSuspect, Proc: 2})
	if got := downs(2); got != 1 {
		t.Fatalf("peer 2 confirmed down %d times, want once: %v", got, events)
	}
	if e := events[1]; e.Kind != EventDown || e.Node != 0 {
		t.Fatalf("EventDown does not follow the suspicion from its node: %v", events)
	}

	if downs(9) != 0 || sup.down[9] {
		t.Fatal("an unsuspected peer is down")
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
