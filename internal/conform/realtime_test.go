package conform

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/models"
	"repro/internal/netem"
)

// panicOnce wraps a machine whose next OnBeat, once armed, panics.
type panicOnce struct {
	core.Machine
	armed atomic.Bool
}

func (p *panicOnce) OnBeat(b core.Beat, now core.Tick) []core.Action {
	if p.armed.CompareAndSwap(true, false) {
		panic("injected handler bug")
	}
	return p.Machine.OnBeat(b, now)
}

// TestWallClockClusterShort runs the whole wall-clock runtime in -short
// mode, so that a -race run covers it: a binary pair over loopback UDP on a
// fast WallClock, a StreamChecker observing every step and reporting to a
// Supervisor, the responder's first beat panicking so that the supervisor
// restarts it, and the test's own calls going through WallClock.Do.
// Real time is jittery, so nothing is asserted of the trace's conformance:
// only that the checker saw the steps, the supervisor healed the panic, and
// the events of both arrived.
func TestWallClockClusterShort(t *testing.T) {
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	cfg := model.Core()
	clock, err := netem.NewWallClock(2 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	transport := netem.NewUDPTransport(clock)
	defer func() {
		if err := transport.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	sc, err := NewStreamChecker(StreamConfig{Check: &CampaignCheck{Model: model}, Horizon: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var events []detector.Event
	sup, err := detector.NewSupervisor(detector.SupervisorConfig{
		Clock:      clock,
		Events:     detector.EventFunc(func(e detector.Event) { events = append(events, e) }),
		CheckEvery: 4,
		Backoff:    detector.Backoff{Base: 1, Max: 4, Jitter: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.BindSupervisor(sup)

	coordMachine, err := core.NewCoordinator(core.CoordinatorConfig{
		Config: cfg, Membership: core.MembershipFixed, Members: []core.ProcID{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := detector.NewNode(detector.Config{
		ID: 0, Machine: coordMachine, Clock: clock, Transport: transport, Events: sup, Observe: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.NewResponder(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	pm := &panicOnce{Machine: inner}
	pm.armed.Store(true)
	resp, err := detector.NewNode(detector.Config{
		ID: 1, Machine: pm, Clock: clock, Transport: transport, Events: sup, Observe: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.Do(func() {
		if err := sup.Manage(resp, func() (core.Machine, error) { return core.NewResponder(cfg, 1) }); err != nil {
			t.Fatal(err)
		}
		if err := coord.Start(); err != nil {
			t.Fatal(err)
		}
		if err := resp.Start(); err != nil {
			t.Fatal(err)
		}
	})

	restarts := 0
	for deadline := time.Now().Add(5 * time.Second); restarts == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		clock.Do(func() { restarts = sup.Restarts(1) })
	}
	// A few more rounds on the healed pair, then stop everything on the
	// clock and read the results there.
	time.Sleep(50 * time.Millisecond)
	clock.Do(func() {
		sup.Stop()
		coord.Crash()
		resp.Crash()
		res, err := sc.Finish(0)
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		if restarts == 0 {
			t.Fatalf("supervisor never restarted the panicked responder; events %v", events)
		}
		if res.Events == 0 {
			t.Fatal("the stream checker observed no step")
		}
		var sawPanic, sawRestart bool
		for _, e := range events {
			sawPanic = sawPanic || e.Node == 1 && e.Kind == detector.EventPanic
			sawRestart = sawRestart || e.Node == 1 && e.Kind == detector.EventRestarted
		}
		if !sawPanic || !sawRestart {
			t.Fatalf("panic/restart events missing: %v", events)
		}
	})
}
