package detector

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/sim"
)

// Protocol names a heartbeat protocol variant for cluster assembly.
type Protocol int

// Protocol variants.
const (
	// ProtocolBinary is the two-process accelerated protocol (N is
	// forced to 1).
	ProtocolBinary Protocol = iota + 1
	// ProtocolStatic is the fixed-membership N-process protocol.
	ProtocolStatic
	// ProtocolExpanding admits participants at run time.
	ProtocolExpanding
	// ProtocolDynamic additionally supports graceful leave.
	ProtocolDynamic
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtocolBinary:
		return "binary"
	case ProtocolStatic:
		return "static"
	case ProtocolExpanding:
		return "expanding"
	case ProtocolDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// ClusterConfig assembles a simulated cluster: one coordinator plus N
// participants connected by a netem.Network.
type ClusterConfig struct {
	// Protocol selects the variant.
	Protocol Protocol
	// Core carries tmin/tmax and the variant/fix switches. The plain
	// heartbeat the 1998 paper compares against (fixed period P, the first
	// miss is fatal) is ProtocolBinary, or ProtocolStatic for N > 1, at
	// TMin = TMax = P.
	Core core.Config
	// N is the number of participants (ignored for ProtocolBinary,
	// which always has exactly one).
	N int
	// Adaptive, if non-nil, runs the adaptive variant: the coordinator
	// retunes Core.TMin/TMax within Adaptive.Envelope from observed loss
	// (Core's own TMin/TMax are ignored — the run starts at the
	// envelope's level-0 point), and every participant runs at the
	// envelope's worst-case watchdog configuration, which is sound at all
	// levels (see core.Envelope.ResponderConfig).
	Adaptive *core.AdaptiveOptions
	// Link is the default unidirectional link shape. To honour the
	// papers' round-trip bound, keep MaxDelay at or below tmin/2 per
	// direction (zero-delay links are always safe). At exactly tmin/2 a
	// reply can land on the tick a tmin-long round times out, which
	// without Core.Fixed is a false suspicion (the §6.1 race).
	Link netem.LinkConfig
	// Seed drives the simulator's randomness (loss, delays).
	Seed int64
	// AllowRejoin enables the rejoin extension (ProtocolDynamic only).
	AllowRejoin bool
	// Faults, if non-nil, wraps the network in a fault-injection layer
	// and applies the schedule from virtual time 0 when Start is called.
	// The fault layer's randomness is seeded from Faults.Seed, or Seed
	// when that is zero. Every node then also gets its own driftable
	// clock, addressable through schedule drift events.
	Faults *faults.Schedule
	// Heal, if non-nil, places every node under a Supervisor built from
	// this config; the Clock and Events fields are filled in by the
	// cluster (supervisor events land in Cluster.Events like all others).
	Heal *SupervisorConfig
	// Observe, if non-nil, receives every machine step of every node; see
	// Observer. The conformance layer uses this to record abstract traces.
	Observe Observer
	// WrapMachine, if non-nil, wraps every protocol machine at
	// construction time (including machines built for restarts). The
	// conformance tests use it to inject deliberately defective machines
	// and check that trace inclusion catches them.
	WrapMachine func(id netem.NodeID, m core.Machine) core.Machine
	// TimerWheel is ignored; it stays declared only until bench/ stops setting it.
	//
	//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
	TimerWheel bool
}

// Cluster is a simulated deployment of one protocol instance.
type Cluster struct {
	// Sim is the virtual clock; run it to make progress.
	Sim *sim.Simulator
	// Net is the emulated network.
	Net *netem.Network
	// Transport is what the nodes actually send through: Faults when
	// fault injection is configured, otherwise Net.
	Transport netem.Transport
	// Faults is the fault-injection layer (nil without cfg.Faults).
	Faults *faults.FaultableTransport
	// Supervisor is the self-healing layer (nil without cfg.Heal).
	Supervisor *Supervisor
	// Clocks holds the per-node driftable clocks (nil without cfg.Faults).
	Clocks map[netem.NodeID]*faults.DriftClock
	// Coordinator is p[0].
	Coordinator *Node
	// Participants maps process IDs (1..N) to their nodes.
	Participants map[core.ProcID]*Node
	// Events records every liveness event in emission order.
	Events []Event

	cfg          ClusterConfig
	cancelFaults func()
	faultErrs    []error
}

// Compile-time wiring checks: a cluster is a complete fault-schedule target.
var (
	_ faults.NodeControl   = (*Cluster)(nil)
	_ faults.ClockControl  = (*Cluster)(nil)
	_ faults.MemberControl = (*Cluster)(nil)
)

// NewCluster builds and wires a cluster; Start must still be called.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Protocol == ProtocolBinary {
		cfg.N = 1
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("%w: cluster needs at least one participant", ErrNodeConfig)
	}
	if cfg.Adaptive != nil {
		if err := cfg.Adaptive.Validate(); err != nil {
			return nil, err
		}
		// The envelope supplies the timing constants; fill Core with the
		// starting point so the config validates and non-adaptive
		// derivations (bounds, link-delay sanity) see real values.
		cfg.Core.TMin, cfg.Core.TMax = cfg.Adaptive.Envelope.Point(0)
	}
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	s := sim.New(sim.WithSeed(cfg.Seed))
	clock := netem.SimClock{Sim: s}
	net, err := netem.NewNetwork(s, cfg.Link)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Sim:          s,
		Net:          net,
		Participants: make(map[core.ProcID]*Node, cfg.N),
		cfg:          cfg,
	}
	c.Transport = net
	if cfg.Faults != nil {
		seed := cfg.Faults.Seed
		if seed == 0 {
			seed = cfg.Seed
		}
		c.Faults = faults.Wrap(net, clock, seed)
		c.Transport = c.Faults
		c.Clocks = make(map[netem.NodeID]*faults.DriftClock, cfg.N+1)
	}
	sink := EventSink(EventFunc(func(e Event) { c.Events = append(c.Events, e) }))
	if cfg.Heal != nil {
		hc := *cfg.Heal
		hc.Clock = clock
		hc.Events = sink
		sup, err := NewSupervisor(hc)
		if err != nil {
			return nil, err
		}
		c.Supervisor = sup
		sink = sup
	}
	clockFor := func(id netem.NodeID) netem.Clock {
		if c.Clocks == nil {
			return clock
		}
		dc := faults.NewDriftClock(clock)
		c.Clocks[id] = dc
		return dc
	}

	coordMachine, err := newCoordinatorMachine(cfg)
	if err != nil {
		return nil, err
	}
	c.Coordinator, err = NewNode(Config{
		ID:              netem.NodeID(core.CoordinatorID),
		Machine:         coordMachine,
		Clock:           clockFor(netem.NodeID(core.CoordinatorID)),
		Transport:       c.Transport,
		Events:          sink,
		Observe:         cfg.Observe,
		ReceivePriority: cfg.Core.Fixed,
	})
	if err != nil {
		return nil, err
	}

	for i := 1; i <= cfg.N; i++ {
		pid := core.ProcID(i)
		machine, err := newParticipantMachine(cfg, pid)
		if err != nil {
			return nil, err
		}
		node, err := NewNode(Config{
			ID:              netem.NodeID(pid),
			Machine:         machine,
			Clock:           clockFor(netem.NodeID(pid)),
			Transport:       c.Transport,
			Events:          sink,
			Observe:         cfg.Observe,
			ReceivePriority: cfg.Core.Fixed,
		})
		if err != nil {
			return nil, err
		}
		c.Participants[pid] = node
	}

	if c.Supervisor != nil {
		if err := c.Supervisor.Manage(c.Coordinator, func() (core.Machine, error) {
			return newCoordinatorMachine(cfg)
		}); err != nil {
			return nil, err
		}
		for i := 1; i <= cfg.N; i++ {
			pid := core.ProcID(i)
			if err := c.Supervisor.Manage(c.Participants[pid], func() (core.Machine, error) {
				return newParticipantMachine(cfg, pid)
			}); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

func newCoordinatorMachine(cfg ClusterConfig) (core.Machine, error) {
	cc := core.CoordinatorConfig{Config: cfg.Core}
	switch cfg.Protocol {
	case ProtocolBinary, ProtocolStatic:
		cc.Membership = core.MembershipFixed
		cc.Members = make([]core.ProcID, cfg.N)
		for i := range cc.Members {
			cc.Members[i] = core.ProcID(i + 1)
		}
	case ProtocolExpanding:
		cc.Membership = core.MembershipExpanding
	case ProtocolDynamic:
		cc.Membership = core.MembershipDynamic
		cc.AllowRejoin = cfg.AllowRejoin
	default:
		return nil, fmt.Errorf("%w: unknown protocol %d", ErrNodeConfig, int(cfg.Protocol))
	}
	var m core.Machine
	var err error
	if cfg.Adaptive != nil {
		m, err = core.NewAdaptiveCoordinator(cc, *cfg.Adaptive)
	} else {
		m, err = core.NewCoordinator(cc)
	}
	if err != nil {
		return nil, err
	}
	return wrapMachine(cfg, netem.NodeID(core.CoordinatorID), m), nil
}

func newParticipantMachine(cfg ClusterConfig, pid core.ProcID) (core.Machine, error) {
	if cfg.Adaptive != nil {
		cfg.Core = cfg.Adaptive.Envelope.ResponderConfig(cfg.Core)
	}
	var m core.Machine
	var err error
	switch cfg.Protocol {
	case ProtocolBinary, ProtocolStatic:
		m, err = core.NewResponder(cfg.Core, pid)
	case ProtocolExpanding:
		m, err = core.NewParticipant(cfg.Core, pid, false)
	case ProtocolDynamic:
		m, err = core.NewParticipant(cfg.Core, pid, true)
	default:
		return nil, fmt.Errorf("%w: unknown protocol %d", ErrNodeConfig, int(cfg.Protocol))
	}
	if err != nil {
		return nil, err
	}
	return wrapMachine(cfg, netem.NodeID(pid), m), nil
}

func wrapMachine(cfg ClusterConfig, id netem.NodeID, m core.Machine) core.Machine {
	if cfg.WrapMachine == nil {
		return m
	}
	return cfg.WrapMachine(id, m)
}

// Start arms the fault schedule (if any) and starts every node: the
// coordinator first, then participants in ascending ID order, all at
// virtual time 0.
func (c *Cluster) Start() error {
	if c.cfg.Faults != nil {
		cancel, err := c.cfg.Faults.Apply(netem.SimClock{Sim: c.Sim}, faults.Target{
			Transport: c.Faults,
			Nodes:     c,
			Clocks:    c,
			Members:   c,
			OnError: func(e faults.Event, err error) {
				c.faultErrs = append(c.faultErrs,
					fmt.Errorf("t=%d %s node=%d: %w", e.At, e.Kind, e.Node, err))
			},
		})
		if err != nil {
			return err
		}
		c.cancelFaults = cancel
	}
	if err := c.Coordinator.Start(); err != nil {
		return err
	}
	for i := 1; i <= len(c.Participants); i++ {
		if err := c.Participants[core.ProcID(i)].Start(); err != nil {
			return err
		}
	}
	return nil
}

// Stop disarms pending fault events and halts the supervisor, leaving the
// nodes as they are. It is safe to call on a cluster without either.
func (c *Cluster) Stop() {
	if c.cancelFaults != nil {
		c.cancelFaults()
		c.cancelFaults = nil
	}
	if c.Supervisor != nil {
		c.Supervisor.Stop()
	}
}

// FaultErrors reports the schedule events that failed at fire time
// (e.g. a crash naming a node the cluster does not have). A non-empty
// result usually means the schedule does not do what its author thinks.
func (c *Cluster) FaultErrors() []error {
	return append([]error(nil), c.faultErrs...)
}

// Lost counts the messages dropped anywhere between a send and its
// delivery — link loss, and the fault layer's muted senders, partitions,
// downed links and loss channels. Zero is the no-loss premise of
// requirements R2/R3.
func (c *Cluster) Lost() uint64 {
	lost := c.Net.Stats().Total.Lost
	if c.Faults != nil {
		fs := c.Faults.Stats()
		lost += fs.DroppedMuted + fs.DroppedPartition + fs.DroppedLoss
	}
	return lost
}

// node resolves a transport ID to its Node.
func (c *Cluster) node(id netem.NodeID) (*Node, error) {
	if id == netem.NodeID(core.CoordinatorID) {
		return c.Coordinator, nil
	}
	if n, ok := c.Participants[core.ProcID(id)]; ok {
		return n, nil
	}
	return nil, fmt.Errorf("%w: no node %d in cluster", ErrNodeConfig, id)
}

// CrashNode implements faults.NodeControl.
func (c *Cluster) CrashNode(id netem.NodeID) error {
	n, err := c.node(id)
	if err != nil {
		return err
	}
	n.Crash()
	return nil
}

// RestartNode implements faults.NodeControl: the node gets a fresh
// machine of its configured role, as if the process image were relaunched.
func (c *Cluster) RestartNode(id netem.NodeID) error {
	n, err := c.node(id)
	if err != nil {
		return err
	}
	var m core.Machine
	if id == netem.NodeID(core.CoordinatorID) {
		m, err = newCoordinatorMachine(c.cfg)
	} else {
		m, err = newParticipantMachine(c.cfg, core.ProcID(id))
	}
	if err != nil {
		return err
	}
	return n.Restart(m)
}

// LeaveNode implements faults.MemberControl: the member announces a
// graceful departure (dynamic participants only).
func (c *Cluster) LeaveNode(id netem.NodeID) error {
	n, err := c.node(id)
	if err != nil {
		return err
	}
	return n.Leave()
}

// RejoinNode implements faults.MemberControl: a departed member re-enters
// the protocol (dynamic participants with rejoin enabled only).
func (c *Cluster) RejoinNode(id netem.NodeID) error {
	n, err := c.node(id)
	if err != nil {
		return err
	}
	return n.Rejoin()
}

// SetDrift implements faults.ClockControl.
func (c *Cluster) SetDrift(id netem.NodeID, num, den int64, skew core.Tick) error {
	dc, ok := c.Clocks[id]
	if !ok {
		return fmt.Errorf("%w: node %d has no driftable clock (fault injection off?)", ErrNodeConfig, id)
	}
	return dc.SetDrift(num, den, skew)
}

// FirstEvent returns the first recorded event matching kind on node, or
// false if none.
func (c *Cluster) FirstEvent(node netem.NodeID, kind EventKind) (Event, bool) {
	for _, e := range c.Events {
		if e.Node == node && e.Kind == kind {
			return e, true
		}
	}
	return Event{}, false
}
