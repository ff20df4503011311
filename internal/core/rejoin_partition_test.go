// Rejoin-under-partition: the paper-level requirements R1–R3 (see
// internal/models) reinterpreted as runtime monitors over a detector
// cluster's event trace. This file lives in package core_test so it can
// drive the full runtime stack (detector + faults) against the core
// machines without an import cycle.
package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faults"
)

// TestRejoinAfterLongPartition partitions a dynamic member for longer
// than the responder bound 3·tmax − tmin — long enough that every process
// provably winds down — then heals the link. With the self-healing
// supervisor in place the member must rejoin and the network re-form,
// and the recorded trace must satisfy the runtime reading of R1–R3:
//
//	R1: the coordinator suspects the partitioned process within its
//	    detection bound of the partition onset.
//	R2: no healthy participant is non-voluntarily inactivated while the
//	    coordinator is still up (participant winddown follows, never
//	    precedes, the coordinator's).
//	R3: the coordinator's own non-voluntary inactivation is justified: it
//	    happens at or after the partition, with a same-instant suspicion.
func TestRejoinAfterLongPartition(t *testing.T) {
	cfg := core.Config{TMin: 2, TMax: 10}
	const (
		partitionAt = 500
		healAt      = 600 // duration 100 >> ResponderBound (3·10−2 = 28)
		horizon     = 3000
	)
	if healAt-partitionAt <= int(cfg.ResponderBound()) {
		t.Fatalf("partition window %d not past the responder bound %d",
			healAt-partitionAt, cfg.ResponderBound())
	}
	c, err := detector.NewCluster(detector.ClusterConfig{
		Protocol:    detector.ProtocolDynamic,
		Core:        cfg,
		N:           2,
		Seed:        31,
		AllowRejoin: true,
		Faults: &faults.Schedule{Events: []faults.Event{
			{At: partitionAt, Kind: faults.KindPartition, Node: 2},
			{At: healAt, Kind: faults.KindHeal, Node: 2},
		}},
		Heal: &detector.SupervisorConfig{
			CheckEvery: 8,
			Backoff:    detector.Backoff{Base: 2, Max: 32},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Sim.RunUntil(horizon)

	// --- End state: the healed member rejoined and the network re-formed.
	for id := core.ProcID(1); id <= 2; id++ {
		if got := c.Participants[id].Status(); got != core.StatusActive {
			t.Errorf("p[%d] = %v at horizon, want active", id, got)
		}
	}
	if got := c.Coordinator.Status(); got != core.StatusActive {
		t.Errorf("p[0] = %v at horizon, want active", got)
	}
	joins := 0
	for _, e := range c.Events {
		if e.Node == 2 && e.Kind == detector.EventJoined {
			joins++
		}
	}
	if joins < 2 {
		t.Fatalf("p[2] joined %d times, want initial + post-heal: %v", joins, c.Events)
	}

	// --- Clean prefix: nothing suspicious before the partition.
	for _, e := range c.Events {
		if e.Time < partitionAt &&
			(e.Kind == detector.EventSuspect || e.Kind == detector.EventInactivated) {
			t.Fatalf("event before any fault: %+v", e)
		}
	}

	// --- R1: suspicion of the partitioned process within the bound.
	var suspectAt core.Tick = -1
	for _, e := range c.Events {
		if e.Node == 0 && e.Kind == detector.EventSuspect && e.Proc == 2 {
			suspectAt = e.Time
			break
		}
	}
	if suspectAt < 0 {
		t.Fatalf("R1: partitioned p[2] never suspected: %v", c.Events)
	}
	if bound := core.Tick(partitionAt) + cfg.CoordinatorDetectionBound() + cfg.TMin; suspectAt > bound {
		t.Fatalf("R1: suspicion at %d, after the bound %d", suspectAt, bound)
	}

	// --- R2/R3: locate the first non-voluntary inactivations.
	firstInact := map[int]core.Tick{} // node -> time, first non-voluntary only
	for _, e := range c.Events {
		if e.Kind == detector.EventInactivated && !e.Voluntary {
			if _, seen := firstInact[int(e.Node)]; !seen {
				firstInact[int(e.Node)] = e.Time
			}
		}
	}
	coordInact, coordDied := firstInact[0]
	if !coordDied {
		t.Fatalf("coordinator never wound down despite the partition: %v", c.Events)
	}
	// R3: justified — at or after the partition, with same-instant suspicion.
	if coordInact < partitionAt {
		t.Fatalf("R3: coordinator inactivated at %d, before the partition", coordInact)
	}
	if coordInact < suspectAt {
		t.Fatalf("R3: coordinator inactivated at %d without a prior/same-instant suspicion (suspect at %d)",
			coordInact, suspectAt)
	}
	// R2: the healthy participant p[1] never goes down while p[0] is up.
	if p1Inact, died := firstInact[1]; died && p1Inact < coordInact {
		t.Fatalf("R2: p[1] inactivated at %d while the coordinator was alive until %d",
			p1Inact, coordInact)
	}

	// --- Self-healing actually did the work: restarts happened.
	if c.Supervisor.Restarts(0) == 0 {
		t.Fatal("supervisor never restarted the coordinator")
	}
	if c.Supervisor.Restarts(2) == 0 {
		t.Fatal("supervisor never restarted the partitioned node")
	}
}
