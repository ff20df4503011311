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

// PeerState is the supervisor's graded opinion of a peer process —
// the degraded-mode distinction between a timing wobble and a confirmed
// failure.
type PeerState int

// Peer states.
const (
	// PeerHealthy: no outstanding suspicion.
	PeerHealthy PeerState = iota
	// PeerSuspected: some node's waiting time for the peer decayed below
	// tmin, but the confirmation window has not elapsed.
	PeerSuspected
	// PeerDown: the suspicion outlived the confirmation window.
	PeerDown
)

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case PeerHealthy:
		return "healthy"
	case PeerSuspected:
		return "suspected"
	case PeerDown:
		return "down"
	default:
		return fmt.Sprintf("PeerState(%d)", int(s))
	}
}

// SupervisorConfig assembles a Supervisor.
type SupervisorConfig struct {
	// Clock drives health polls, backoff waits and confirmation windows.
	Clock netem.Clock
	// Events, if non-nil, receives both the node events routed through
	// the supervisor and the supervisor's own events (EventDown,
	// EventRestarted, EventPanic, EventGaveUp).
	Events EventSink
	// Backoff paces restarts.
	Backoff Backoff
	// MaxRestarts bounds restarts per node; <= 0 means unlimited.
	MaxRestarts int
	// CheckEvery is the health-poll period in ticks (default 8).
	CheckEvery core.Tick
	// ConfirmAfter is how long a suspicion must persist before the peer
	// is confirmed down and EventDown fires; 0 confirms immediately.
	ConfirmAfter core.Tick
	// RestartCrashed also restarts voluntarily crashed nodes. By default
	// only protocol-forced inactivations and recovered panics heal: a
	// voluntary crash is an operator action (or a scripted fault whose
	// restart is likewise scripted).
	RestartCrashed bool
	// Seed drives the backoff jitter.
	Seed int64
	// Envelope, if non-nil, enables envelope-aware backoff for adaptive
	// clusters: while the coordinator's last EventRetuned point sits above
	// the envelope floor (TMax > Envelope.TMaxLo), the network is known to
	// be losing beats, so every scheduled restart delay is stretched by
	// DegradedFactor — a node restarted into a live partition would only
	// be suspected again, and tight restart pacing turns that into a
	// restart storm.
	Envelope *core.Envelope
	// DegradedFactor multiplies restart backoff while degraded
	// (default 4; only meaningful with Envelope set).
	DegradedFactor int
}

// supervised is the per-node bookkeeping.
type supervised struct {
	node     *Node
	factory  func() (core.Machine, error)
	restart  netem.Timer // runs out the backoff before a restart
	restarts int         // lifetime total, counts against MaxRestarts
	attempt  int         // backoff exponent; reset to 0 by a clean rejoin
	pending  bool        // a restart is scheduled
	wedged   bool        // a panic was recovered; machine state is suspect
	gaveUp   bool
}

// Supervisor is the self-healing layer over a set of Nodes: it recovers
// handler panics, restarts crashed or wedged nodes with bounded
// exponential backoff plus jitter, and grades peers from suspected to
// confirmed-down before notifying the application. It runs identically
// over netem.SimClock (deterministic, single-threaded) and netem.WallClock
// (concurrent); all methods are safe for concurrent use.
//
// Lock discipline: the supervisor never calls into a Node while holding
// its own lock, because nodes deliver events into HandleEvent while
// holding theirs. It does create and arm its timers under the lock, so
// that Stop sees every timer and none is armed after it.
type Supervisor struct {
	mu       sync.Mutex
	cfg      SupervisorConfig
	rng      *rand.Rand
	nodes    map[netem.NodeID]*supervised
	peers    map[core.ProcID]PeerState
	peerGen  map[core.ProcID]uint64
	confirms map[core.ProcID]*confirmation
	poll     netem.Timer   // health-poll period; nil until the first Manage
	timers   []netem.Timer // every timer above, in creation order, for Stop
	stopped  bool
	metrics  SupervisorMetrics
}

// confirmation is one peer's confirmation-window timer, armed with the
// peer's peerGen as its tag, and the node whose suspicion opened the window.
type confirmation struct {
	timer netem.Timer
	by    netem.NodeID
}

// SupervisorMetrics exposes the supervisor's transition counters and the
// restart-storm guard state, so campaigns can assert "no restart thrash
// under partition" instead of eyeballing logs.
type SupervisorMetrics struct {
	// Suspects counts healthy→suspected peer transitions.
	Suspects int
	// Confirms counts suspected→down transitions (suspicions that
	// outlived the confirmation window uncontradicted).
	Confirms int
	// RestartsScheduled counts restarts armed (including ones later
	// invalidated by Stop).
	RestartsScheduled int
	// RestartsHeld counts restarts whose backoff was stretched by the
	// envelope-aware degraded guard.
	RestartsHeld int
	// Retunes counts EventRetuned notifications seen.
	Retunes int
	// Incidents counts structured conformance incidents reported through
	// ReportIncident by an attached online checker.
	Incidents int
	// Degraded reports whether the guard currently considers the
	// coordinator widened above the envelope floor.
	Degraded bool
	// TMin and TMax are the coordinator's last reported operating point
	// (zero until the first retune).
	TMin, TMax core.Tick
}

// Metrics returns a snapshot of the supervisor's counters.
func (s *Supervisor) Metrics() SupervisorMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

// NewSupervisor builds a supervisor; nodes are attached with Manage.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("%w: supervisor needs a clock", ErrNodeConfig)
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 8
	}
	if cfg.DegradedFactor <= 0 {
		cfg.DegradedFactor = 4
	}
	return &Supervisor{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		nodes:    make(map[netem.NodeID]*supervised),
		peers:    make(map[core.ProcID]PeerState),
		peerGen:  make(map[core.ProcID]uint64),
		confirms: make(map[core.ProcID]*confirmation),
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

// Stop halts polling and cancels scheduled restarts and confirmations.
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

// PeerState reports the supervisor's current opinion of a peer process.
func (s *Supervisor) PeerState(p core.ProcID) PeerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peers[p]
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

// runPoll is the periodic health check: protocol-inactivated (and, if
// configured, crashed) or wedged nodes get a restart scheduled.
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
		needsRestart := wedged ||
			status == core.StatusInactive ||
			(status == core.StatusCrashed && s.cfg.RestartCrashed)
		if needsRestart {
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
// is already pending or the budget is exhausted.
func (s *Supervisor) scheduleRestart(id netem.NodeID) {
	s.mu.Lock()
	sn, ok := s.nodes[id]
	if !ok || sn.pending || sn.gaveUp || sn.factory == nil {
		s.mu.Unlock()
		return
	}
	if s.cfg.MaxRestarts > 0 && sn.restarts >= s.cfg.MaxRestarts {
		sn.gaveUp = true
		s.mu.Unlock()
		s.emit(Event{Time: s.now(), Node: id, Kind: EventGaveUp})
		return
	}
	sn.pending = true
	d := s.cfg.Backoff.delay(sn.attempt, s.rng)
	s.metrics.RestartsScheduled++
	if s.metrics.Degraded {
		// Restart-storm guard: under a degraded (widened) envelope the
		// restarted node is likely to be suspected again; pace restarts
		// well below the loss episode's timescale.
		d *= core.Tick(s.cfg.DegradedFactor)
		s.metrics.RestartsHeld++
	}
	s.arm(sn.restart, d, 0)
	s.mu.Unlock()
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
		proc := core.ProcID(id)
		delete(s.peers, proc)
		s.peerGen[proc]++
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
// sink of its managed nodes: it grades peer suspicions into confirmed
// downs and forwards everything — suspicions immediately (degraded mode),
// EventDown only after the confirmation window — to the configured sink.
func (s *Supervisor) HandleEvent(e Event) {
	s.emit(e)
	switch e.Kind {
	case EventSuspect:
		s.noteSuspect(e)
	case EventJoined:
		// The node itself (re)joined: it is alive, clear opinions of it,
		// and let its restart backoff start over — a clean rejoin ends
		// the failure episode the exponent was counting.
		s.clearPeer(core.ProcID(e.Node))
		s.mu.Lock()
		if sn, ok := s.nodes[e.Node]; ok {
			sn.attempt = 0
		}
		s.mu.Unlock()
	case EventRetuned:
		s.noteRetune(e)
	}
}

// ReportIncident feeds a structured incident from an attached online
// conformance checker (e.g. conform.StreamChecker) into the grading
// path: the incident is counted in the metrics and emitted to the
// configured sink as an EventIncident carrying the summary. node is the
// blamed process (the coordinator for model divergences). Unlike timers,
// incident reporting survives Stop — a checker finishing after the run
// still files its loss-gated violations.
func (s *Supervisor) ReportIncident(node netem.NodeID, detail string) {
	s.mu.Lock()
	s.metrics.Incidents++
	s.mu.Unlock()
	s.emit(Event{Time: s.now(), Node: node, Kind: EventIncident, Detail: detail})
}

// noteRetune tracks the adaptive coordinator's operating point for the
// envelope-aware restart guard.
func (s *Supervisor) noteRetune(e Event) {
	s.mu.Lock()
	s.metrics.Retunes++
	s.metrics.TMin, s.metrics.TMax = e.TMin, e.TMax
	if s.cfg.Envelope != nil {
		s.metrics.Degraded = e.TMax > s.cfg.Envelope.TMaxLo
	}
	s.mu.Unlock()
}

func (s *Supervisor) noteSuspect(e Event) {
	s.mu.Lock()
	if s.peers[e.Proc] != PeerHealthy {
		s.mu.Unlock()
		return // already suspected or down
	}
	s.peers[e.Proc] = PeerSuspected
	s.metrics.Suspects++
	s.peerGen[e.Proc]++
	gen := s.peerGen[e.Proc]
	c, ok := s.confirms[e.Proc]
	if !ok {
		c = s.newConfirmation(e.Proc)
	}
	c.by = e.Node
	wait := s.cfg.ConfirmAfter
	if wait > 0 {
		s.arm(c.timer, wait, gen)
	}
	s.mu.Unlock()
	if wait <= 0 {
		s.confirmDown(e.Proc, gen)
	}
}

// newConfirmation builds proc's confirmation record on its first suspicion.
// Callers hold s.mu.
//
//lint:allow noalloc-closure one confirmation record and timer per peer, reused for every later suspicion
func (s *Supervisor) newConfirmation(proc core.ProcID) *confirmation {
	c := &confirmation{timer: s.newTimer(func(gen uint64) { s.confirmDown(proc, gen) })}
	s.confirms[proc] = c
	return c
}

// confirmDown ends proc's confirmation window; gen is the peerGen the
// window was opened under.
func (s *Supervisor) confirmDown(proc core.ProcID, gen uint64) {
	s.mu.Lock()
	if s.stopped || s.peerGen[proc] != gen || s.peers[proc] != PeerSuspected {
		s.mu.Unlock()
		return // contradicted (rejoin/restart) in the meantime
	}
	by := s.confirms[proc].by
	s.peers[proc] = PeerDown
	s.metrics.Confirms++
	s.mu.Unlock()
	s.emit(Event{Time: s.now(), Node: by, Kind: EventDown, Proc: proc})
}

func (s *Supervisor) clearPeer(p core.ProcID) {
	s.mu.Lock()
	delete(s.peers, p)
	s.peerGen[p]++
	s.mu.Unlock()
}

// now reads the supervisor's clock in protocol ticks.
func (s *Supervisor) now() core.Tick { return core.Tick(s.cfg.Clock.Now()) }

func (s *Supervisor) emit(e Event) {
	if s.cfg.Events != nil {
		s.cfg.Events.HandleEvent(e)
	}
}
