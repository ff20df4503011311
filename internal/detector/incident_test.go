package detector

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// TestSupervisorReportIncident: incidents from an attached conformance
// checker are emitted as EventIncident with the summary in
// Detail — including after Stop, since streaming checkers file their
// loss-gated verdicts at Finish, after the run ends.
func TestSupervisorReportIncident(t *testing.T) {
	s := sim.New(sim.WithSeed(1))
	clock := netem.SimClock{Sim: s}
	var events []Event
	sup, err := NewSupervisor(SupervisorConfig{
		Clock:  clock,
		Events: EventFunc(func(e Event) { events = append(events, e) }),
	})
	if err != nil {
		t.Fatal(err)
	}

	sup.ReportIncident(0, "divergence at t=7 (event 3): timeout p[0]")
	sup.Stop()
	sup.ReportIncident(2, "R2 violated at t=40 by p[2] (event 9)")

	var inc []Event
	for _, e := range events {
		if e.Kind == EventIncident {
			inc = append(inc, e)
		}
	}
	if len(inc) != 2 {
		t.Fatalf("EventIncident count = %d, want 2: %v", len(inc), events)
	}
	if inc[0].Node != 0 || inc[0].Detail != "divergence at t=7 (event 3): timeout p[0]" {
		t.Fatalf("first incident = %+v", inc[0])
	}
	if inc[1].Node != 2 || inc[1].Detail != "R2 violated at t=40 by p[2] (event 9)" {
		t.Fatalf("post-Stop incident = %+v", inc[1])
	}
	if EventIncident.String() != "incident" {
		t.Fatalf("EventIncident.String() = %q", EventIncident.String())
	}
}
