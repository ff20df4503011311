package detector

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/sim"
)

func newCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return c
}

func binaryConfig() ClusterConfig {
	return ClusterConfig{
		Protocol: ProtocolBinary,
		Core:     core.Config{TMin: 2, TMax: 10},
		Seed:     1,
	}
}

func TestBinaryClusterStaysAliveWithoutFaults(t *testing.T) {
	c := newCluster(t, binaryConfig())
	c.Sim.RunUntil(1000)
	if c.Coordinator.Status() != core.StatusActive {
		t.Fatalf("p[0] = %v, want active", c.Coordinator.Status())
	}
	if c.Participants[1].Status() != core.StatusActive {
		t.Fatalf("p[1] = %v, want active", c.Participants[1].Status())
	}
	if len(c.Events) != 0 {
		t.Fatalf("events on a fault-free run: %v", c.Events)
	}
	// Steady state: one beat each way per tmax.
	st := c.Net.Stats()
	wantBeats := uint64(1000 / 10)
	if st.Total.Sent < 2*wantBeats-4 || st.Total.Sent > 2*wantBeats+4 {
		t.Fatalf("sent %d beats over 1000 ticks, want about %d", st.Total.Sent, 2*wantBeats)
	}
}

func TestBinaryClusterDetectsResponderCrash(t *testing.T) {
	cfg := binaryConfig()
	c := newCluster(t, cfg)
	c.Sim.RunUntil(100)
	c.Participants[1].Crash()
	crashAt := core.Tick(100)
	c.Sim.RunUntil(1000)
	ev, ok := c.FirstEvent(0, EventSuspect)
	if !ok || ev.Proc != 1 {
		t.Fatalf("no suspicion of p[1]: %v", c.Events)
	}
	inact, ok := c.FirstEvent(0, EventInactivated)
	if !ok || inact.Voluntary {
		t.Fatalf("p[0] did not inactivate non-voluntarily: %v", c.Events)
	}
	// The crash can only be noticed from the first beat p[1] fails to
	// answer; detection from the crash instant is bounded by the corrected
	// bound plus one round-trip allowance.
	delay := inact.Time - crashAt
	bound := cfg.Core.CoordinatorDetectionBound() + cfg.Core.TMin
	if delay <= 0 || delay > bound {
		t.Fatalf("detection delay %d outside (0, %d]", delay, bound)
	}
	if !allInactive(c) {
		t.Fatal("cluster not fully inactive after detection")
	}
}

func TestBinaryClusterDetectsCoordinatorCrash(t *testing.T) {
	cfg := binaryConfig()
	c := newCluster(t, cfg)
	c.Sim.RunUntil(100)
	c.Coordinator.Crash()
	c.Sim.RunUntil(1000)
	ev, ok := c.FirstEvent(1, EventInactivated)
	if !ok || ev.Voluntary {
		t.Fatalf("p[1] did not inactivate: %v", c.Events)
	}
	// p[1] inactivates within its watchdog bound of the last beat it saw,
	// which is at most the bound plus a round after the crash.
	if d := ev.Time - 100; d > cfg.Core.ResponderBound()+cfg.Core.TMax {
		t.Fatalf("p[1] detection delay %d too large", d)
	}
}

func TestBinaryClusterChannelCrash(t *testing.T) {
	cfg := binaryConfig()
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{At: 100, Kind: faults.KindPartition, Node: 1},
	}}
	c := newCluster(t, cfg)
	c.Sim.RunUntil(99)
	if c.Lost() != 0 {
		t.Fatalf("%d messages lost before the partition", c.Lost())
	}
	c.Sim.RunUntil(1000)
	if c.Lost() == 0 {
		t.Fatal("partition dropped nothing: Lost() must count fault-layer drops")
	}
	if c.Coordinator.Status() != core.StatusInactive {
		t.Fatalf("p[0] = %v after channel crash", c.Coordinator.Status())
	}
	if c.Participants[1].Status() != core.StatusInactive {
		t.Fatalf("p[1] = %v after channel crash", c.Participants[1].Status())
	}
}

func TestStaticClusterSurvivesAndDetects(t *testing.T) {
	cfg := ClusterConfig{
		Protocol: ProtocolStatic,
		Core:     core.Config{TMin: 2, TMax: 10},
		N:        4,
		Seed:     3,
	}
	c := newCluster(t, cfg)
	c.Sim.RunUntil(500)
	if len(c.Events) != 0 {
		t.Fatalf("events on fault-free static run: %v", c.Events)
	}
	c.Participants[3].Crash()
	c.Sim.RunUntil(1500)
	ev, ok := c.FirstEvent(0, EventSuspect)
	if !ok || ev.Proc != 3 {
		t.Fatalf("suspect = %v, want p[3]", c.Events)
	}
	// One crash brings down the whole network (the protocol's goal).
	if !allInactive(c) {
		t.Fatal("cluster survived a member crash")
	}
}

func TestExpandingClusterJoin(t *testing.T) {
	cfg := ClusterConfig{
		Protocol: ProtocolExpanding,
		Core:     core.Config{TMin: 2, TMax: 10},
		N:        3,
		Seed:     4,
	}
	c := newCluster(t, cfg)
	c.Sim.RunUntil(200)
	for pid := core.ProcID(1); pid <= 3; pid++ {
		if _, ok := c.FirstEvent(netem.NodeID(pid), EventJoined); !ok {
			t.Fatalf("p[%d] never joined: %v", pid, c.Events)
		}
	}
	c.Sim.RunUntil(2000)
	if c.Coordinator.Status() != core.StatusActive {
		t.Fatal("expanding coordinator inactivated without faults")
	}
}

func TestDynamicClusterLeaveDoesNotDisturb(t *testing.T) {
	cfg := ClusterConfig{
		Protocol: ProtocolDynamic,
		Core:     core.Config{TMin: 2, TMax: 10},
		N:        3,
		Seed:     5,
	}
	c := newCluster(t, cfg)
	c.Sim.RunUntil(200)
	if err := c.Participants[2].Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	c.Sim.RunUntil(2000)
	if _, ok := c.FirstEvent(2, EventLeft); !ok {
		t.Fatalf("p[2] never completed its leave: %v", c.Events)
	}
	// A graceful leave must not disturb anyone else.
	if c.Coordinator.Status() != core.StatusActive {
		t.Fatal("coordinator inactivated after a graceful leave")
	}
	for _, pid := range []core.ProcID{1, 3} {
		if c.Participants[pid].Status() != core.StatusActive {
			t.Fatalf("p[%d] = %v after p[2] left", pid, c.Participants[pid].Status())
		}
	}
	if c.Participants[2].Status() != core.StatusLeft {
		t.Fatalf("p[2] = %v, want left", c.Participants[2].Status())
	}
}

func TestDynamicClusterCrashDisturbsEveryone(t *testing.T) {
	cfg := ClusterConfig{
		Protocol: ProtocolDynamic,
		Core:     core.Config{TMin: 2, TMax: 10},
		N:        2,
		Seed:     6,
	}
	c := newCluster(t, cfg)
	c.Sim.RunUntil(200)
	c.Participants[1].Crash()
	c.Sim.RunUntil(2000)
	if !allInactive(c) {
		t.Fatal("a crash (unlike a leave) must take the network down")
	}
}

func TestLeaveOnNonDynamicNode(t *testing.T) {
	c := newCluster(t, binaryConfig())
	if err := c.Participants[1].Leave(); err == nil {
		t.Fatal("Leave on a binary responder succeeded")
	}
}

func TestClusterToleratesModerateLoss(t *testing.T) {
	cfg := binaryConfig()
	cfg.Link = netem.LinkConfig{LossProb: 0.05, MaxDelay: 1}
	cfg.Core = core.Config{TMin: 2, TMax: 16}
	c := newCluster(t, cfg)
	c.Sim.RunUntil(5000)
	// 5% loss needs log2(16/2)=3 consecutive losses (of beats or
	// replies) to kill the protocol; with seed 1 over 5000 ticks the
	// cluster stays up. This mirrors the 1998 reliability argument.
	if c.Coordinator.Status() != core.StatusActive || c.Participants[1].Status() != core.StatusActive {
		t.Fatalf("cluster died under 5%% loss: %v", c.Events)
	}
}

func TestNodeValidation(t *testing.T) {
	s := sim.New()
	net, err := netem.NewNetwork(s, netem.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	m, err := core.NewResponder(core.Config{TMin: 1, TMax: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{ID: 1, Machine: m, Clock: netem.SimClock{Sim: s}, Transport: net})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	if err := n.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := n.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	// Registering a second node with the same ID must fail.
	if _, err := NewNode(Config{ID: 1, Machine: m, Clock: netem.SimClock{Sim: s}, Transport: net}); err == nil {
		t.Fatal("duplicate transport ID accepted")
	}
}

func TestGarbagePayloadIgnored(t *testing.T) {
	c := newCluster(t, binaryConfig())
	// Inject garbage straight at p[0]'s handler via the network.
	if err := c.Net.Register(99, func(netem.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := c.Net.Send(99, 0, []byte("not a beat")); err != nil {
		t.Fatal(err)
	}
	c.Sim.RunUntil(1000)
	if c.Coordinator.Status() != core.StatusActive {
		t.Fatal("garbage datagram disturbed the protocol")
	}
}

func TestTimerReplaceSemantics(t *testing.T) {
	// A responder's watchdog is re-armed by every beat; the superseded
	// timer must never fire. Run long enough that a stale fire would
	// inactivate p[1] despite a healthy p[0].
	cfg := binaryConfig()
	c := newCluster(t, cfg)
	c.Sim.RunUntil(sim.Time(cfg.Core.ResponderBound()) * 20)
	if c.Participants[1].Status() != core.StatusActive {
		t.Fatal("stale watchdog fire inactivated a healthy responder")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	bad := []ClusterConfig{
		{Protocol: ProtocolStatic, Core: core.Config{TMin: 1, TMax: 2}, N: 0},
		{Protocol: ProtocolStatic, Core: core.Config{TMin: 0, TMax: 2}, N: 1},
		{Protocol: Protocol(99), Core: core.Config{TMin: 1, TMax: 2}, N: 1},
	}
	for _, cfg := range bad {
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestProtocolString(t *testing.T) {
	for p, want := range map[Protocol]string{
		ProtocolBinary:    "binary",
		ProtocolStatic:    "static",
		ProtocolExpanding: "expanding",
		ProtocolDynamic:   "dynamic",
		Protocol(42):      "Protocol(42)",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestEventKindString(t *testing.T) {
	if EventInactivated.String() != "inactivated" || EventKind(9).String() == "" {
		t.Fatal("EventKind.String mismatch")
	}
}

func TestRejoinEndToEnd(t *testing.T) {
	cfg := ClusterConfig{
		Protocol:    ProtocolDynamic,
		Core:        core.Config{TMin: 2, TMax: 10},
		N:           2,
		Seed:        8,
		AllowRejoin: true,
	}
	c := newCluster(t, cfg)
	c.Sim.RunUntil(100)
	if err := c.Participants[1].Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	c.Sim.RunUntil(300)
	if c.Participants[1].Status() != core.StatusLeft {
		t.Fatalf("p[1] = %v, want left", c.Participants[1].Status())
	}
	if err := c.Participants[1].Rejoin(); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	c.Sim.RunUntil(500)
	if c.Participants[1].Status() != core.StatusActive {
		t.Fatalf("p[1] = %v after rejoin, want active", c.Participants[1].Status())
	}
	joins := 0
	for _, e := range c.Events {
		if e.Node == 1 && e.Kind == EventJoined {
			joins++
		}
	}
	if joins != 2 {
		t.Fatalf("join events = %d, want 2 (initial + rejoin)", joins)
	}
	// The rejoined member participates fully: its crash takes the
	// network down.
	c.Participants[1].Crash()
	c.Sim.RunUntil(1000)
	if !allInactive(c) {
		t.Fatal("rejoined member's crash did not wind the network down")
	}
}

func TestRejoinOnNonDynamicNode(t *testing.T) {
	c := newCluster(t, binaryConfig())
	if err := c.Participants[1].Rejoin(); err == nil {
		t.Fatal("Rejoin on a binary responder succeeded")
	}
}

// allInactive reports whether every node of c has stopped participating
// (crashed, inactivated, or left).
func allInactive(c *Cluster) bool {
	if c.Coordinator.Status() == core.StatusActive {
		return false
	}
	for _, n := range c.Participants {
		if n.Status() == core.StatusActive {
			return false
		}
	}
	return true
}
