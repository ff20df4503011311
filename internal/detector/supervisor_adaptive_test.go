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
// episode starts from Base again — only the lifetime restart count keeps
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
	attemptNow := func() int { return sup.find(1).attempt }
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

// TestSupervisorMetricsTransitions counts the suspect→down transitions in
// the event stream: every suspicion is forwarded, only the first one per
// failure becomes an EventDown, and a rejoin starts a new failure.
func TestSupervisorMetricsTransitions(t *testing.T) {
	s := sim.New()
	suspects, downs := map[core.ProcID]int{}, map[core.ProcID]int{}
	sup, err := NewSupervisor(SupervisorConfig{
		Clock: netem.SimClock{Sim: s},
		Events: EventFunc(func(e Event) {
			switch e.Kind {
			case EventSuspect:
				suspects[e.Proc]++
			case EventDown:
				downs[e.Proc]++
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Peer 2: a duplicate suspicion of an already-down peer is forwarded
	// but not confirmed twice.
	sup.HandleEvent(Event{Node: 0, Kind: EventSuspect, Proc: 2})
	sup.HandleEvent(Event{Node: 0, Kind: EventSuspect, Proc: 2})
	// Peer 3: down, rejoins, and is suspected again — two failures.
	sup.HandleEvent(Event{Node: 3, Kind: EventSuspect, Proc: 3})
	sup.HandleEvent(Event{Node: 3, Kind: EventJoined})
	sup.HandleEvent(Event{Node: 0, Kind: EventSuspect, Proc: 3})
	s.RunUntil(30)
	if suspects[2] != 2 || suspects[3] != 2 {
		t.Fatalf("suspicions forwarded = %v, want 2 for each of peers 2 and 3", suspects)
	}
	if downs[2] != 1 {
		t.Fatalf("peer 2 confirmed down %d times, want once", downs[2])
	}
	if downs[3] != 2 {
		t.Fatalf("peer 3 confirmed down %d times across a rejoin, want twice", downs[3])
	}
}
