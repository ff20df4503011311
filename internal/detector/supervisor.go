package detector

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

// Backoff bounds the pacing of supervisor restarts: exponential growth
// from Base, capped at Max, plus an optional random jitter fraction so
// that simultaneously failed nodes do not thunder back in lockstep.
type Backoff struct {
	// Base is the delay before the first restart, in ticks (default 1).
	Base core.Tick
	// Max caps the exponential growth (default 64·Base).
	Max core.Tick
	// Jitter in [0,1] adds a uniform extra delay of up to Jitter·delay.
	Jitter float64
}

func (b Backoff) delay(attempt int, rng *rand.Rand) core.Tick {
	base := b.Base
	if base <= 0 {
		base = 1
	}
	max := b.Max
	if max <= 0 {
		max = 64 * base
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if b.Jitter > 0 {
		d += core.Tick(float64(d) * b.Jitter * rng.Float64())
	}
	return d
}

// SupervisorConfig assembles a Supervisor.
type SupervisorConfig struct {
	// Clock drives health polls and backoff waits.
	Clock netem.Clock
	// Events, if non-nil, receives both the node events routed through
	// the supervisor and the supervisor's own events (EventDown,
	// EventRestarted, EventPanic).
	Events EventSink
	// Backoff paces restarts.
	Backoff Backoff
	// CheckEvery is the health-poll period in ticks (default 8).
	CheckEvery core.Tick
}

// supervised is the per-node bookkeeping.
type supervised struct {
	node     *Node
	factory  func() (core.Machine, error)
	restart  netem.Timer // runs out the backoff before a restart
	restarts int         // lifetime total
	attempt  int         // backoff exponent; reset to 0 by a clean rejoin
	pending  bool        // a restart is scheduled
	wedged   bool        // a panic was recovered; machine state is suspect
}

// Supervisor is the self-healing layer over a set of Nodes: it recovers
// handler panics, restarts protocol-inactivated or wedged nodes with
// bounded exponential backoff plus jitter, and confirms a suspected peer
// down, once per failure, before notifying the application. A voluntary
// crash is an operator action (or a scripted fault whose restart is
// likewise scripted) and is not healed. It runs identically over
// netem.SimClock (deterministic, single-threaded) and netem.WallClock
// (concurrent); all methods are safe for concurrent use.
//
// Lock discipline: the supervisor never calls into a Node while holding
// its own lock, because nodes deliver events into HandleEvent while
// holding theirs. It does create and arm its timers under the lock, so
// that Stop sees every timer and none is armed after it.
type Supervisor struct {
	mu    sync.Mutex
	cfg   SupervisorConfig
	rng   *rand.Rand // backoff jitter
	nodes map[netem.NodeID]*supervised
	// down holds the peers confirmed down since they last (re)joined or
	// were restarted.
	down    map[core.ProcID]bool
	poll    netem.Timer   // health-poll period; nil until the first Manage
	timers  []netem.Timer // every timer above, in creation order, for Stop
	stopped bool
}

// NewSupervisor builds a supervisor; nodes are attached with Manage.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("%w: supervisor needs a clock", ErrNodeConfig)
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 8
	}
	return &Supervisor{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(0)),
		nodes: make(map[netem.NodeID]*supervised),
		down:  make(map[core.ProcID]bool),
	}, nil
}

// Manage places a node under supervision. factory builds the replacement
// machine for each restart; a nil factory disables restarts for this node
// (panics are still recovered and reported). The first Manage call starts
// the health-poll loop.
func (s *Supervisor) Manage(n *Node, factory func() (core.Machine, error)) error {
	if n == nil {
		return fmt.Errorf("%w: supervisor needs a node", ErrNodeConfig)
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return fmt.Errorf("%w: supervisor stopped", ErrNodeConfig)
	}
	if _, ok := s.nodes[n.ID()]; ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: node %d already supervised", ErrNodeConfig, n.ID())
	}
	id := n.ID()
	s.nodes[id] = &supervised{
		node:    n,
		factory: factory,
		restart: s.newTimer(func(uint64) { s.restartNow(id) }),
	}
	if s.poll == nil {
		s.poll = s.newTimer(func(uint64) { s.runPoll() })
		s.arm(s.poll, s.cfg.CheckEvery, 0)
	}
	s.mu.Unlock()

	n.SetRecover(s.onPanic)
	return nil
}

// Stop halts polling and cancels scheduled restarts.
// Managed nodes keep running; they are just no longer healed.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	for _, t := range s.timers {
		t.Stop()
	}
}

// Restarts reports how many times a node has been restarted.
func (s *Supervisor) Restarts(id netem.NodeID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sn, ok := s.nodes[id]; ok {
		return sn.restarts
	}
	return 0
}

// newTimer creates one of the supervisor's timers and records it for
// Stop. Callers hold s.mu.
func (s *Supervisor) newTimer(fn func(tag uint64)) netem.Timer {
	t := s.cfg.Clock.NewTimer(fn)
	s.timers = append(s.timers, t)
	return t
}

// arm (re)arms one of the supervisor's timers, unless Stop has run.
// Callers hold s.mu.
func (s *Supervisor) arm(t netem.Timer, d core.Tick, tag uint64) {
	if !s.stopped {
		t.Reset(sim.Time(d), tag)
	}
}

// runPoll is the periodic health check: protocol-inactivated or wedged
// nodes get a restart scheduled.
func (s *Supervisor) runPoll() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	type probe struct {
		id netem.NodeID
		sn *supervised
	}
	probes := make([]probe, 0, len(s.nodes))
	for id, sn := range s.nodes {
		probes = append(probes, probe{id, sn})
	}
	s.mu.Unlock()
	// Probe in a stable order: restart scheduling draws from the jitter
	// rng and arms same-tick timers, so map order would leak into the
	// replay trace.
	sort.Slice(probes, func(i, j int) bool { return probes[i].id < probes[j].id })

	for _, p := range probes {
		status := p.sn.node.Status()
		s.mu.Lock()
		wedged := p.sn.wedged
		s.mu.Unlock()
		if wedged || status == core.StatusInactive {
			s.scheduleRestart(p.id)
		}
	}
	s.mu.Lock()
	s.arm(s.poll, s.cfg.CheckEvery, 0)
	s.mu.Unlock()
}

// onPanic is the node recover handler: report, mark wedged, heal. The
// panic value and operation are deliberately not rethrown — the whole
// point of supervision is to turn them into a restart.
func (s *Supervisor) onPanic(id netem.NodeID, _ string, _ any) {
	s.mu.Lock()
	sn, ok := s.nodes[id]
	if ok {
		sn.wedged = true
	}
	s.mu.Unlock()
	s.emit(Event{Time: s.now(), Node: id, Kind: EventPanic})
	if ok {
		s.scheduleRestart(id)
	}
}

// scheduleRestart arms a backoff-delayed restart for the node unless one
// is already pending.
func (s *Supervisor) scheduleRestart(id netem.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn, ok := s.nodes[id]
	if !ok || sn.pending || sn.factory == nil {
		return
	}
	sn.pending = true
	s.arm(sn.restart, s.cfg.Backoff.delay(sn.attempt, s.rng), 0)
}

// restartNow builds the replacement machine and swaps it in.
func (s *Supervisor) restartNow(id netem.NodeID) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	sn, ok := s.nodes[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	factory := sn.factory
	s.mu.Unlock()

	m, err := factory()
	var restartErr error
	if err != nil {
		restartErr = err
	} else {
		restartErr = sn.node.Restart(m)
	}

	s.mu.Lock()
	sn.pending = false
	sn.restarts++
	sn.attempt++
	if restartErr == nil {
		sn.wedged = false
		// A restarted process is a fresh incarnation; forget old
		// suspicions about it.
		delete(s.down, core.ProcID(id))
	}
	s.mu.Unlock()

	if restartErr != nil {
		// The factory or swap failed (e.g. a transient bind error under a
		// real transport): try again with grown backoff.
		s.scheduleRestart(id)
		return
	}
	s.emit(Event{Time: s.now(), Node: id, Kind: EventRestarted})
}

// HandleEvent implements EventSink. Install the supervisor as the Events
// sink of its managed nodes: it forwards everything to the configured
// sink and follows a peer's first suspicion with EventDown.
func (s *Supervisor) HandleEvent(e Event) {
	s.emit(e)
	switch e.Kind {
	case EventSuspect:
		s.mu.Lock()
		first := !s.down[e.Proc] && !s.stopped
		s.down[e.Proc] = true
		s.mu.Unlock()
		if first {
			s.emit(Event{Time: s.now(), Node: e.Node, Kind: EventDown, Proc: e.Proc})
		}
	case EventJoined:
		// The node itself (re)joined: it is alive, clear opinions of it,
		// and let its restart backoff start over — a clean rejoin ends
		// the failure episode the exponent was counting.
		s.mu.Lock()
		delete(s.down, core.ProcID(e.Node))
		if sn, ok := s.nodes[e.Node]; ok {
			sn.attempt = 0
		}
		s.mu.Unlock()
	}
}

// ReportIncident feeds a structured incident from an attached online
// conformance checker (e.g. conform.StreamChecker) to the configured sink
// as an EventIncident carrying the summary. node is the blamed process
// (the coordinator for model divergences). Unlike timers, incident
// reporting survives Stop — a checker finishing after the run still files
// its loss-gated violations.
func (s *Supervisor) ReportIncident(node netem.NodeID, detail string) {
	s.emit(Event{Time: s.now(), Node: node, Kind: EventIncident, Detail: detail})
}

// now reads the supervisor's clock in protocol ticks.
func (s *Supervisor) now() core.Tick { return core.Tick(s.cfg.Clock.Now()) }

func (s *Supervisor) emit(e Event) {
	if s.cfg.Events != nil {
		s.cfg.Events.HandleEvent(e)
	}
}
