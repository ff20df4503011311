package detector

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

// lonelyResponder builds a responder with no coordinator under sup: it
// inactivates every ResponderBound, so the supervisor restarts it on a
// fixed cadence — a clean probe for restart pacing.
func lonelyResponder(t *testing.T, sup *Supervisor, clock netem.Clock, net netem.Transport) *Node {
	t.Helper()
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
	return resp
}

// restartTimes extracts the times of EventRestarted for node 1.
func restartTimes(events []Event) []core.Tick {
	var out []core.Tick
	for _, e := range events {
		if e.Node == 1 && e.Kind == EventRestarted {
			out = append(out, e.Time)
		}
	}
	return out
}

// TestSupervisorBackoffResetAfterCleanRejoin is the regression test for
// the backoff exponent: repeated restarts grow it, but a clean rejoin
// (EventJoined from the node) must reset it to zero so the next failure
// episode starts from Base again — only the lifetime restart budget keeps
// counting.
func TestSupervisorBackoffResetAfterCleanRejoin(t *testing.T) {
	s := sim.New(sim.WithSeed(7))
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
		Backoff:    Backoff{Base: 2, Max: 256},
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	lonelyResponder(t, sup, clock, net)

	s.RunUntil(400)
	times := restartTimes(events)
	if len(times) < 3 {
		t.Fatalf("expected at least 3 restarts, got %d", len(times))
	}
	gap := func(i int) core.Tick { return times[i+1] - times[i] }
	// The exponent grows: each inter-restart gap is at least the previous
	// one plus the doubled backoff share.
	if gap(1) <= gap(0) {
		t.Fatalf("backoff not growing: gaps %d then %d", gap(0), gap(1))
	}
	attemptNow := func() int {
		sup.mu.Lock()
		defer sup.mu.Unlock()
		return sup.nodes[1].attempt
	}
	grown := attemptNow()
	if grown < 3 {
		t.Fatalf("attempt = %d after %d restarts, want >= 3", grown, len(times))
	}
	budget := sup.Restarts(1)

	// A clean rejoin ends the episode: exponent resets, budget does not.
	sup.HandleEvent(Event{Time: core.Tick(clock.Now()), Node: 1, Kind: EventJoined})
	if got := attemptNow(); got != 0 {
		t.Fatalf("attempt = %d after clean rejoin, want 0", got)
	}
	if got := sup.Restarts(1); got != budget {
		t.Fatalf("restart budget changed on rejoin: %d -> %d", budget, got)
	}

	// The next failure episode paces from Base again: the first
	// post-rejoin gap drops back below the grown pre-rejoin gap.
	events = events[:0]
	s.RunUntil(800)
	times = restartTimes(events)
	if len(times) < 2 {
		t.Fatalf("expected restarts after rejoin, got %d", len(times))
	}
	if first := times[1] - times[0]; first >= gap(1) {
		t.Fatalf("backoff did not reset: post-rejoin gap %d >= pre-rejoin gap %d", first, gap(1))
	}
}

// TestSupervisorEnvelopeAwareBackoff drives the same failing node twice —
// once healthy, once after a retune above the envelope floor — and checks
// that the degraded guard stretches every restart delay by
// DegradedFactor, and releases once the coordinator tightens back.
func TestSupervisorEnvelopeAwareBackoff(t *testing.T) {
	env := core.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 8, TMaxHi: 32}
	run := func(retuneTMax core.Tick) ([]core.Tick, SupervisorMetrics) {
		s := sim.New(sim.WithSeed(9))
		net, err := netem.NewNetwork(s, netem.LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		clock := netem.SimClock{Sim: s}
		var events []Event
		sup, err := NewSupervisor(SupervisorConfig{
			Clock:          clock,
			Events:         EventFunc(func(e Event) { events = append(events, e) }),
			CheckEvery:     4,
			Backoff:        Backoff{Base: 8, Max: 8},
			Envelope:       &env,
			DegradedFactor: 4,
			Seed:           9,
		})
		if err != nil {
			t.Fatal(err)
		}
		lonelyResponder(t, sup, clock, net)
		if retuneTMax != 0 {
			sup.HandleEvent(Event{Node: 0, Kind: EventRetuned, TMin: 2, TMax: retuneTMax})
		}
		s.RunUntil(120)
		return restartTimes(events), sup.Metrics()
	}

	healthy, hm := run(0)
	degraded, dm := run(32)
	if len(healthy) == 0 || len(degraded) == 0 {
		t.Fatalf("expected restarts in both runs: %v / %v", healthy, degraded)
	}
	if hm.Degraded || hm.RestartsHeld != 0 {
		t.Fatalf("healthy run tripped the guard: %+v", hm)
	}
	if !dm.Degraded || dm.RestartsHeld == 0 {
		t.Fatalf("degraded run did not trip the guard: %+v", dm)
	}
	if dm.TMax != 32 {
		t.Fatalf("guard did not record the operating point: %+v", dm)
	}
	// Same seed, same poll cadence: the only difference is the stretched
	// backoff, Base·(DegradedFactor-1) = 24 ticks on the first restart.
	if d := degraded[0] - healthy[0]; d != 24 {
		t.Fatalf("first restart delayed by %d, want 24", d)
	}

	// A retune back to the envelope floor releases the guard.
	s := sim.New()
	sup, err := NewSupervisor(SupervisorConfig{Clock: netem.SimClock{Sim: s}, Envelope: &env})
	if err != nil {
		t.Fatal(err)
	}
	sup.HandleEvent(Event{Kind: EventRetuned, TMin: 2, TMax: 32})
	if !sup.Metrics().Degraded {
		t.Fatal("widened retune did not degrade")
	}
	sup.HandleEvent(Event{Kind: EventRetuned, TMin: 2, TMax: 8})
	m := sup.Metrics()
	if m.Degraded {
		t.Fatal("floor retune did not release the guard")
	}
	if m.Retunes != 2 {
		t.Fatalf("Retunes = %d, want 2", m.Retunes)
	}
}

// TestSupervisorMetricsTransitions checks the suspect→confirmed counters.
func TestSupervisorMetricsTransitions(t *testing.T) {
	s := sim.New()
	sup, err := NewSupervisor(SupervisorConfig{Clock: netem.SimClock{Sim: s}, ConfirmAfter: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Peer 2: suspicion hardens into a confirm. Duplicate suspicions of an
	// already-suspected peer do not double-count.
	sup.HandleEvent(Event{Node: 0, Kind: EventSuspect, Proc: 2})
	sup.HandleEvent(Event{Node: 0, Kind: EventSuspect, Proc: 2})
	// Peer 3: contradicted inside the window, never confirmed.
	sup.HandleEvent(Event{Node: 3, Kind: EventSuspect, Proc: 3})
	sup.HandleEvent(Event{Node: 3, Kind: EventJoined})
	s.RunUntil(30)
	m := sup.Metrics()
	if m.Suspects != 2 {
		t.Fatalf("Suspects = %d, want 2", m.Suspects)
	}
	if m.Confirms != 1 {
		t.Fatalf("Confirms = %d, want 1", m.Confirms)
	}
}
