package detector

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// TestClusterFaultReplayByteIdentical is the subsystem's core guarantee:
// one schedule — a crash at t1, a partition over [t2, t3], bursty
// Gilbert–Elliott loss throughout — replayed over two fresh clusters with
// the same seeds yields byte-identical event traces and statistics.
func TestClusterFaultReplayByteIdentical(t *testing.T) {
	run := func() string {
		sched := &faults.Schedule{Seed: 99, Events: []faults.Event{
			{At: 0, Kind: faults.KindLoss, AllLinks: true,
				GE: &faults.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.4, LossBad: 0.8}},
			{At: 150, Kind: faults.KindCrash, Node: 2},
			{At: 300, Kind: faults.KindPartition, Node: 1},
			{At: 400, Kind: faults.KindHeal, Node: 1},
		}}
		cfg := ClusterConfig{
			Protocol: ProtocolStatic,
			Core:     core.Config{TMin: 2, TMax: 16},
			N:        2,
			Seed:     11,
			Faults:   sched,
		}
		c := newCluster(t, cfg)
		c.Sim.RunUntil(2000)
		out := fmt.Sprintf("faults=%+v\nnet=%+v\n", c.Faults.Stats(), c.Net.Stats().Total)
		for _, e := range c.Events {
			out += fmt.Sprintf("t=%d n=%d %v proc=%d vol=%v\n",
				e.Time, e.Node, e.Kind, e.Proc, e.Voluntary)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fault replay diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty trace; the schedule did nothing")
	}
}

// TestClusterScheduledCrashDetected ports the manual Crash() injection
// onto the schedule path: a scripted crash must be suspected and wind the
// network down exactly like a direct one.
func TestClusterScheduledCrashDetected(t *testing.T) {
	cfg := binaryConfig()
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{At: 100, Kind: faults.KindCrash, Node: 1},
	}}
	c := newCluster(t, cfg)
	c.Sim.RunUntil(1000)
	if c.Participants[1].Status() != core.StatusCrashed {
		t.Fatalf("scheduled crash did not land: %v", c.Participants[1].Status())
	}
	ev, ok := c.FirstEvent(0, EventSuspect)
	if !ok || ev.Proc != 1 {
		t.Fatalf("no suspicion of p[1]: %v", c.Events)
	}
	delay := ev.Time - 100
	bound := cfg.Core.CoordinatorDetectionBound() + cfg.Core.TMin
	if delay <= 0 || delay > bound {
		t.Fatalf("detection delay %d outside (0, %d]", delay, bound)
	}
	if !allInactive(c) {
		t.Fatal("cluster not fully inactive after detection")
	}
}

// TestClusterScheduledRestartRevives: a scripted crash+restart pair over a
// self-healing dynamic cluster brings the member back as a fresh
// incarnation and the network re-forms.
func TestClusterScheduledRestartRevives(t *testing.T) {
	cfg := ClusterConfig{
		Protocol:    ProtocolDynamic,
		Core:        core.Config{TMin: 2, TMax: 10},
		N:           2,
		Seed:        21,
		AllowRejoin: true,
		Faults: &faults.Schedule{Events: []faults.Event{
			{At: 200, Kind: faults.KindCrash, Node: 1},
			{At: 600, Kind: faults.KindRestart, Node: 1},
		}},
		Heal: &SupervisorConfig{CheckEvery: 8, Backoff: Backoff{Base: 2, Max: 16}},
	}
	c := newCluster(t, cfg)
	defer c.Stop()
	c.Sim.RunUntil(3000)
	if got := c.Participants[1].Status(); got != core.StatusActive {
		t.Fatalf("p[1] = %v after scheduled restart, want active", got)
	}
	if got := c.Coordinator.Status(); got != core.StatusActive {
		t.Fatalf("p[0] = %v, want active (self-heal failed): %v", got, c.Events)
	}
	if got := c.Participants[2].Status(); got != core.StatusActive {
		t.Fatalf("p[2] = %v, want active", got)
	}
	// The crash must have disturbed the network (paper semantics) and the
	// supervisor must have healed at least the coordinator afterwards.
	if _, ok := c.FirstEvent(0, EventInactivated); !ok {
		t.Fatalf("crash never wound the coordinator down: %v", c.Events)
	}
	if _, ok := c.FirstEvent(0, EventRestarted); !ok {
		t.Fatalf("supervisor never restarted the coordinator: %v", c.Events)
	}
	joins := 0
	for _, e := range c.Events {
		if e.Node == 1 && e.Kind == EventJoined {
			joins++
		}
	}
	if joins < 2 {
		t.Fatalf("p[1] joined %d times, want initial + post-restart: %v", joins, c.Events)
	}
}

// TestClusterClockDrift: a mild per-node clock drift from a schedule must
// not break a healthy cluster (the protocol tolerates rate skews well
// below the tmax/tmin ratio).
func TestClusterClockDrift(t *testing.T) {
	cfg := binaryConfig()
	cfg.Core = core.Config{TMin: 2, TMax: 16}
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{At: 0, Kind: faults.KindDrift, Node: 1, Num: 11, Den: 10},
	}}
	c := newCluster(t, cfg)
	c.Sim.RunUntil(4000)
	if c.Coordinator.Status() != core.StatusActive || c.Participants[1].Status() != core.StatusActive {
		t.Fatalf("mild drift killed the cluster: %v", c.Events)
	}
	if len(c.Events) != 0 {
		t.Fatalf("events under mild drift: %v", c.Events)
	}
	// The drifted clock really runs fast.
	if lo, hi := c.Clocks[1].Now(), c.Clocks[0].Now(); lo <= hi {
		t.Fatalf("drifted clock at %d, undrifted at %d; want faster", lo, hi)
	}
}

// TestClusterFaultControlErrors: schedules addressing unknown nodes fail
// loudly at the control interface.
func TestClusterFaultControlErrors(t *testing.T) {
	cfg := binaryConfig()
	cfg.Faults = &faults.Schedule{}
	c := newCluster(t, cfg)
	if err := c.CrashNode(42); err == nil {
		t.Fatal("CrashNode(42) on a 2-node cluster succeeded")
	}
	if err := c.RestartNode(42); err == nil {
		t.Fatal("RestartNode(42) succeeded")
	}
	if err := c.SetDrift(42, 2, 1, 0); err == nil {
		t.Fatal("SetDrift(42) succeeded")
	}
	if err := c.RestartNode(0); err != nil {
		t.Fatalf("RestartNode(coordinator): %v", err)
	}
}

// TestClusterFaultScheduleErrorsRecorded: a schedule event addressing an
// unknown node is recorded on the cluster instead of vanishing.
func TestClusterFaultScheduleErrorsRecorded(t *testing.T) {
	cfg := binaryConfig()
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{At: 10, Kind: faults.KindCrash, Node: 42},
		{At: 20, Kind: faults.KindCrash, Node: 1},
	}}
	c := newCluster(t, cfg)
	c.Sim.RunUntil(100)
	errs := c.FaultErrors()
	if len(errs) != 1 {
		t.Fatalf("FaultErrors = %v, want exactly the node-42 crash", errs)
	}
	if got := errs[0].Error(); !strings.Contains(got, "node=42") {
		t.Fatalf("error %q does not name the bad node", got)
	}
}
