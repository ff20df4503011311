package conform

import (
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/netem"
	"repro/internal/trace"
)

// divergePoint is a divergence located by the engine, before the
// StreamChecker binds it to its bounded incident tail (Incident).
type divergePoint struct {
	cfg      models.Config
	index    int
	time     core.Tick
	label    alphabet.Label
	expected []string
}

// streamEngine advances the frontier one event at a time: the
// trace-inclusion half of the StreamChecker. The frontier is a node of the
// current spec's frontier graph (check.go), so a step is a successor
// lookup and the engine holds no state sets of its own. maxFrontierSeen is
// the widest stepped frontier; the all-states root a reseed points at
// does not count, as it collapses on the next step.
type streamEngine struct {
	check *CampaignCheck   // spec source for piecewise mode; nil in plain mode
	env   *models.Envelope // nil: plain single-spec mode
	sp    *Spec
	at    *node // the frontier, a node of sp's graph
	now   core.Tick

	level    int
	degraded bool

	confirmed   int
	degradedEvs int
	retunes     int
	saturations int
	finalLevel  int

	maxFrontierSeen int
}

// newStreamEngine builds a plain (single-specification) engine.
func newStreamEngine(sp *Spec) *streamEngine {
	first := sp.graph.initial
	return &streamEngine{sp: sp, at: first, maxFrontierSeen: len(first.set)}
}

// newAdaptiveEngine builds a piecewise engine over the campaign's
// envelope, starting at level 0. No single model covers an adaptive run,
// so feed checks it piecewise:
//
//   - Between retunes the trace must be included in the LTS of the level
//     in force — the same antichain simulation and tick discipline as a
//     plain engine.
//   - A retune label is confirmed by locating its operating point among
//     the envelope's levels (a point outside the verified family is an
//     unconfirmed divergence). The engine then switches to that level's
//     specification with the frontier reseeded to every state: the model
//     family has no transition connecting the levels, so the suffix is
//     checked against all continuations of the new level.
//   - Divergences at by-design non-model events (alphabet.Kind.ByDesign)
//     are counted as confirmed and the frontier likewise reseeded at the
//     current level.
//   - A retune that re-holds the current point is saturation: the
//     coordinator is at the envelope ceiling under sustained loss,
//     converting every round into a grace round — plain-heartbeat
//     behaviour that is deliberately NOT a trace of the fixed top-level
//     model (whose reachable states correlate a silent member's watchdog
//     with the coordinator's decayed budget and so force a suspicion the
//     degraded runtime refuses). Until the next level change the engine
//     is in degraded mode: trace inclusion is suspended, events outside
//     the level's alphabet are counted as degraded, and checking resumes
//     from the all-states frontier at the next level change.
//
// The all-states reseed — and degraded mode's suspended checking — make
// the piecewise check an over-approximation after the first confirmed
// divergence: it can miss a real divergence, never invent one, so "zero
// unconfirmed divergences" remains a sound campaign gate.
func newAdaptiveEngine(c *CampaignCheck) (*streamEngine, error) {
	if c.Envelope == nil {
		return nil, fmt.Errorf("%w: piecewise streaming needs an envelope", ErrUnsupported)
	}
	if err := c.Envelope.Validate(); err != nil {
		return nil, err
	}
	sp, err := c.SpecAt(0)
	if err != nil {
		return nil, err
	}
	e := newStreamEngine(sp)
	e.check, e.env = c, c.Envelope
	return e, nil
}

// step advances the frontier over one visible label. It reports false —
// leaving the frontier untouched, so the expected labels can be listed —
// when no model state can take the label.
func (e *streamEngine) step(label int32) bool {
	next := e.sp.step(e.at, label)
	if len(next.set) == 0 {
		return false
	}
	e.at = next
	e.maxFrontierSeen = max(e.maxFrontierSeen, len(next.set))
	return true
}

// reseed restarts the frontier from every state of the current spec, the
// over-approximation used after confirmed divergences: the root of the
// spec's graph.
func (e *streamEngine) reseed() {
	e.at = &e.sp.graph.root
}

func (e *streamEngine) diverge(idx int, label alphabet.Label) *divergePoint {
	return &divergePoint{
		cfg: e.sp.Cfg, index: idx, time: e.now,
		label: label, expected: e.sp.enabled(e.at),
	}
}

// advance moves time forward to target, stepping the model's tick label.
// A tick that leaves the frontier as it was leaves it so at every later
// tick, so the rest of the gap then passes at once: a pointer compare, as
// equal published sets are one node, or a set compare between unpublished
// nodes. In degraded mode time passes unchecked (and out-of-order
// timestamps move it backwards).
func (e *streamEngine) advance(to core.Tick, idx int) *divergePoint {
	if e.degraded {
		e.now = to
		return nil
	}
	for e.now < to {
		prev := e.at
		if !e.step(e.sp.tickID) {
			return e.diverge(idx, tick)
		}
		e.now++
		if e.at == prev || e.at.kids == nil && slices.Equal(e.at.set, prev.set) {
			e.now = to
		}
	}
	return nil
}

// feed consumes event i. A non-nil divergePoint is the first unconfirmed
// divergence — the engine must not be fed further. The error path is spec
// construction for a newly entered envelope level.
func (e *streamEngine) feed(i int, ev Event) (*divergePoint, error) {
	if d := e.advance(ev.Time, i); d != nil {
		return d, nil
	}
	if e.env == nil {
		if id := e.sp.id(ev.Label); id < 0 || !e.step(id) {
			return e.diverge(i, ev.Label), nil
		}
		return nil, nil
	}
	// Piecewise adaptive mode, by newAdaptiveEngine's rules in order:
	// in-alphabet step, envelope-confirmed retune, by-design divergence,
	// degraded tolerance, unconfirmed.
	if id := e.sp.id(ev.Label); id >= 0 {
		if e.degraded {
			return nil, nil
		}
		if e.step(id) {
			return nil, nil
		}
	}
	kind := ev.Label.Kind
	switch {
	case kind == alphabet.Retune:
		next, ok := envelopeLevelOf(*e.env, ev.Label.A, ev.Label.B)
		if !ok {
			return e.diverge(i, ev.Label), nil
		}
		e.retunes++
		if next == e.level {
			e.degraded = true
			e.saturations++
			return nil, nil
		}
		e.degraded = false
		e.level = next
		e.finalLevel = next
		sp, err := e.check.SpecAt(next)
		if err != nil {
			return nil, err
		}
		e.sp = sp
	case kind.ByDesign():
		e.confirmed++
	case e.degraded:
		e.degradedEvs++
		return nil, nil
	default:
		return e.diverge(i, ev.Label), nil
	}
	e.reseed()
	return nil, nil
}

// finish checks the final passage of time up to the horizon.
func (e *streamEngine) finish(horizon core.Tick, idx int) *divergePoint {
	return e.advance(horizon, idx)
}

// levelInForce is the envelope level the engine is checking against, or
// baseLevel for a plain engine.
func (e *streamEngine) levelInForce() int {
	if e.env == nil {
		return baseLevel
	}
	return e.level
}

// monitor interprets R1–R3 as internal/models defines them, one event at
// a time, in O(n) state: it keeps the models.Observables as the model's
// edges drive the slots they are read from, and after every event reports
// each (property, process) the first time its rule holds. Loss leaves no
// event, so Lost stays false and R2/R3 reports wait for Finish's loss
// count. An armed R1 obligation is judged when the next delivery from its
// participant moves it, or at the end of the run, if the horizon covers
// its deadline.
type monitor struct {
	bound, horizon core.Tick

	obs   models.Observables
	p0End core.Tick             // when p[0] first stopped; farFuture before
	r1    []models.R1Obligation // by participant
	armed []core.Tick           // when each obligation was last armed

	seen [models.R3 + 1]models.Members // the processes reported, by property
	viol []ReqViolation                // in trace order
}

func newMonitor(cfg models.Config, horizon core.Tick) *monitor {
	m := &monitor{
		bound:   core.Tick(cfg.DetectionBound()),
		horizon: horizon,
		obs:     cfg.Initial(),
		p0End:   farFuture,
		r1:      make([]models.R1Obligation, cfg.N+1),
		armed:   make([]core.Tick, cfg.N+1),
	}
	for i := range m.r1 {
		m.r1[i] = cfg.R1Start()
	}
	return m
}

// report records v unless its property was reported for its process.
func (m *monitor) report(v ReqViolation) {
	if m.seen[v.Prop]&models.Member(v.Proc) == 0 {
		m.seen[v.Prop] |= models.Member(v.Proc)
		m.viol = append(m.viol, v)
	}
}

// closeR1 judges participant i's obligation up to next. The horizon test
// keeps the deadline from overflowing on far-future times.
func (m *monitor) closeR1(i int, next core.Tick) {
	if m.r1[i] != models.R1Armed || m.armed[i] >= m.horizon-m.bound {
		return
	}
	if deadline := m.armed[i] + m.bound; next > deadline && m.p0End > deadline {
		m.report(ReqViolation{Prop: models.R1, Proc: i, Time: deadline + 1})
	}
}

// observe consumes one event and returns the violations it revealed.
// Only deliveries at p[0], inactivations and crashes move the monitor, and
// only when they are about p[0] or a participant it tracks; the rules are
// evaluated again only when the vector moved.
func (m *monitor) observe(ev Event) []ReqViolation {
	before, o := len(m.viol), &m.obs
	p, k := int(ev.Label.A), ev.Label.Kind
	member := p >= 1 && p < len(m.r1)
	switch {
	case (k == alphabet.DeliverBeatP0 || k == alphabet.DeliverLeaveP0) && member:
		m.closeR1(p, ev.Time)
		if m.r1[p] = m.r1[p].Next(k); m.r1[p] == models.R1Armed {
			m.armed[p] = ev.Time
		}
		joined := o.Joined
		if o.Active&models.Member(0) != 0 { // only p[0] alive counts members
			o.Joined &^= models.Member(p)
			if k == alphabet.DeliverBeatP0 {
				o.Joined |= models.Member(p)
			}
		}
		if o.Joined == joined {
			return m.viol[before:]
		}
	case (k == alphabet.Inactivate || k == alphabet.Crash) && (p == 0 || member):
		o.Active &^= models.Member(p)
		if k == alphabet.Inactivate {
			o.NVInact |= models.Member(p)
		}
		if p == 0 && m.p0End == farFuture {
			m.p0End = ev.Time
		}
	default:
		return nil
	}
	for r2 := o.R2(); r2 != 0; r2 &= r2 - 1 {
		m.report(ReqViolation{Prop: models.R2, Proc: bits.TrailingZeros64(uint64(r2)), Time: ev.Time})
	}
	if o.R3() {
		m.report(ReqViolation{Prop: models.R3, Time: ev.Time})
	}
	return m.viol[before:]
}

// finishTime closes the still-armed R1 obligations at the end of the run
// and returns the violations that revealed.
func (m *monitor) finishTime() []ReqViolation {
	before := len(m.viol)
	for i := 1; i < len(m.r1); i++ {
		m.closeR1(i, farFuture)
	}
	return m.viol[before:]
}

// IncidentKind classifies structured incidents.
type IncidentKind int

// Incident kinds.
const (
	// IncidentDivergence: the stream left the model (an unconfirmed
	// divergence; inclusion checking stops here).
	IncidentDivergence IncidentKind = iota + 1
	// IncidentViolation: a requirement (R1–R3) was violated on the stream.
	IncidentViolation
)

// String implements fmt.Stringer.
func (k IncidentKind) String() string {
	switch k {
	case IncidentDivergence:
		return "divergence"
	case IncidentViolation:
		return "violation"
	default:
		return fmt.Sprintf("IncidentKind(%d)", int(k))
	}
}

// Incident is a structured conformance incident assembled online from
// bounded state: enough to render a first-divergence report (from the
// bounded tail), plus triage fields for the supervisor's grading path.
type Incident struct {
	Kind IncidentKind
	// Cfg is the model configuration in force (the envelope level's, for
	// piecewise streams).
	Cfg models.Config
	// Level is the envelope level in force when the incident fired, or -1
	// for non-adaptive streams.
	Level int
	// Seq is the offending event's position in the full stream, or the
	// stream's length when the model forced an action the stream never
	// produced before it ended.
	Seq int
	// Time is the virtual time of the incident (for violations, the time
	// the violation became observable, which can precede the current
	// event's timestamp).
	Time core.Tick
	// Label and Expected describe a divergence: the unmatched runtime
	// label (LabelTick for a forced model action the runtime never
	// produced) and the sorted labels the model allows.
	Label    string
	Expected []string
	// Prop and Proc describe a violation (see ReqViolation).
	Prop models.Property
	Proc int
	// Verified reports the violation was cross-checked against the model
	// checker; ModelAgrees then means the model admits the violation too —
	// the paper's expected counter-example. Verified && !ModelAgrees is
	// the serious case: the runtime violated a property the model proves
	// satisfied.
	Verified    bool
	ModelAgrees bool
	// Skipped and Tail are the bounded MSC context: the last events
	// preceding the incident and how many earlier ones the memory budget
	// dropped.
	Skipped int
	Tail    []Event
	// Shrunk and ShrunkDiv hold a minimised reproduction of a divergence
	// and its own divergence incident, when triage ran ShrinkRun on the
	// incident's run configuration.
	Shrunk    *RunConfig
	ShrunkDiv *Incident
}

// String is the one-line summary forwarded to the supervisor.
func (inc *Incident) String() string {
	if inc.Kind == IncidentViolation {
		note := ""
		if inc.Verified {
			if inc.ModelAgrees {
				note = ", model-confirmed"
			} else {
				note = ", model disagrees"
			}
		}
		return fmt.Sprintf("%v violated at t=%d by p[%d] (event %d%s)",
			inc.Prop, inc.Time, inc.Proc, inc.Seq, note)
	}
	if inc.Label == LabelTick {
		return fmt.Sprintf("divergence at t=%d: model forces one of [%s], runtime produced nothing",
			inc.Time, strings.Join(inc.Expected, ", "))
	}
	return fmt.Sprintf("divergence at t=%d (event %d): runtime produced %q, model allows [%s]",
		inc.Time, inc.Seq, inc.Label, strings.Join(inc.Expected, ", "))
}

// Render writes the incident report: the bounded tail as an ASCII message
// sequence chart (internal/trace), then the incident line and, for a
// divergence, what the model would have allowed.
func (inc *Incident) Render(w io.Writer, title string) error {
	if inc.Skipped > 0 {
		if _, err := fmt.Fprintf(w, "… %d earlier events omitted …\n", inc.Skipped); err != nil {
			return err
		}
	}
	steps := make([]mc.Step, 0, len(inc.Tail))
	for _, ev := range inc.Tail {
		steps = append(steps, mc.Step{Label: ev.Label, Time: int(ev.Time)})
	}
	if err := trace.Render(w, title, steps); err != nil {
		return err
	}
	switch {
	case inc.Kind == IncidentViolation:
		_, err := fmt.Fprintf(w, "\nviolation at t=%d (event %d): %s\n", inc.Time, inc.Seq, inc.String())
		return err
	case inc.Label == LabelTick:
		if _, err := fmt.Fprintf(w, "\nstuck at t=%d: the model forces a visible action before time can pass\n", inc.Time); err != nil {
			return err
		}
	default:
		if _, err := fmt.Fprintf(w, "\ndivergence at t=%d (event %d): runtime produced %q\n", inc.Time, inc.Seq, inc.Label); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "model allows: %s\n", strings.Join(inc.Expected, ", "))
	return err
}

// StreamConfig assembles a StreamChecker.
type StreamConfig struct {
	// Check supplies the model and the shared per-level spec cache.
	// Check.Envelope == nil checks against the single base specification;
	// otherwise the stream is checked piecewise across envelope levels
	// (newAdaptiveEngine's rules).
	Check *CampaignCheck
	// Horizon is the virtual time Finish checks the passage of time up to.
	// RunStream sets it to the run's horizon.
	Horizon core.Tick
	// Verify, if non-nil, cross-checks each violation incident against
	// the model checker (use cachedVerify-style backends: it runs inline
	// on the event path at incident time).
	Verify VerifyFunc
}

// StreamChecker is the conformance checker, the one way a trace is
// checked: a detector.Observer that abstracts machine steps into
// model-alphabet events (exactly as Recorder does) and checks them
// incrementally — antichain frontier advance per event, piecewise across
// envelope retunes, plus the streaming R1–R3 monitor — in bounded memory,
// with no retained trace beyond the incident tail ring. A live cluster
// attaches it as its observer (RunStream); a recorded trace is checked by
// Feed per event, then Finish. It takes no lock: as an observer it runs on
// the cluster's clock, one step at a time (see netem.Clock), and Finish
// runs after the cluster has stopped, or through the clock's Do.
type StreamChecker struct {
	cfg    StreamConfig
	eng    *streamEngine
	mon    *monitor
	monCfg models.Config
	sup    *detector.Supervisor

	add    func(alphabet.Label) // pre-bound abstractStep target (no per-step closure)
	obsNow core.Tick

	seq         int
	tail        [mscTail]Event // ring buffer of the last mscTail events
	done        bool           // inclusion stopped at the first unconfirmed divergence
	failed      error          // internal error (level spec construction)
	incidents   []*Incident
	unconfirmed *Incident
	finished    bool
	result      *StreamResult
}

// NewStreamChecker builds a stream checker. Specs come from the shared
// CampaignCheck cache, so many concurrent checkers (one per cluster under
// a campaign) share one spec build, and one frontier graph, per operating
// point.
func NewStreamChecker(cfg StreamConfig) (*StreamChecker, error) {
	if cfg.Check == nil {
		return nil, fmt.Errorf("%w: stream checker needs a CampaignCheck", ErrUnsupported)
	}
	var (
		eng    *streamEngine
		monCfg models.Config
	)
	if env := cfg.Check.Envelope; env != nil {
		e, err := newAdaptiveEngine(cfg.Check)
		if err != nil {
			return nil, err
		}
		eng = e
		// R1's detection bound varies with the level in force; monitor at
		// the envelope ceiling — the loosest bound — so online violations
		// can only be under-, never over-reported across retunes.
		monCfg = env.LevelConfig(cfg.Check.Model, env.Levels()-1)
	} else {
		sp, err := cfg.Check.Spec()
		if err != nil {
			return nil, err
		}
		eng = newStreamEngine(sp)
		monCfg = cfg.Check.Model
	}
	sc := &StreamChecker{
		cfg:    cfg,
		eng:    eng,
		mon:    newMonitor(monCfg, cfg.Horizon),
		monCfg: monCfg,
	}
	sc.add = func(label alphabet.Label) { sc.feed(Event{Time: sc.obsNow, Label: label}) }
	return sc, nil
}

// BindSupervisor forwards every subsequent incident to the supervisor's
// grading path (detector.Supervisor.ReportIncident). Bind after building
// the cluster and before starting it.
func (sc *StreamChecker) BindSupervisor(sup *detector.Supervisor) {
	sc.sup = sup
}

// ObserveStep implements detector.Observer: the machine step is
// abstracted into model-alphabet events and checked immediately, without
// being retained.
//
//lint:allow noalloc-closure the streaming checker allocates incident records by design; conformance runs trade allocations for checking
func (sc *StreamChecker) ObserveStep(id netem.NodeID, now core.Tick, tr detector.Trigger, actions []core.Action) {
	sc.obsNow = now
	abstractStep(sc.add, id, tr, actions)
}

// Feed consumes one pre-abstracted event — of a recorded trace, or a
// generated corpus. Live clusters attach the checker as an Observer
// instead.
//
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (sc *StreamChecker) Feed(ev Event) { sc.feed(ev) }

func (sc *StreamChecker) feed(ev Event) {
	if sc.finished {
		return
	}
	i := sc.seq
	if !sc.done && sc.failed == nil {
		d, err := sc.eng.feed(i, ev)
		switch {
		case err != nil:
			sc.failed = err
			sc.done = true
		case d != nil:
			sc.done = true
			sc.unconfirmed = sc.divergenceIncident(d)
			sc.emit(sc.unconfirmed)
		}
	}
	for _, v := range sc.mon.observe(ev) {
		if v.Prop == models.R1 {
			sc.violationIncident(v, i)
		}
	}
	sc.tail[i%mscTail] = ev
	sc.seq++
}

// tailLen is the number of live ring entries.
func (sc *StreamChecker) tailLen() int {
	return min(sc.seq, mscTail)
}

// newIncident snapshots the bounded context shared by all incident kinds.
// The tail holds the events before the current one, so it excludes the
// offending event itself.
func (sc *StreamChecker) newIncident(kind IncidentKind, seq int) *Incident {
	n := sc.tailLen()
	t := make([]Event, n)
	start := sc.seq - n
	for k := 0; k < n; k++ {
		t[k] = sc.tail[(start+k)%mscTail]
	}
	return &Incident{
		Kind:    kind,
		Cfg:     sc.monCfg,
		Level:   sc.eng.levelInForce(),
		Seq:     seq,
		Skipped: seq - n,
		Tail:    t,
	}
}

func (sc *StreamChecker) divergenceIncident(d *divergePoint) *Incident {
	inc := sc.newIncident(IncidentDivergence, d.index)
	inc.Cfg = d.cfg
	inc.Time = d.time
	inc.Label = d.label.String()
	inc.Expected = d.expected
	return inc
}

func (sc *StreamChecker) violationIncident(v ReqViolation, seq int) {
	inc := sc.newIncident(IncidentViolation, seq)
	inc.Time = v.Time
	inc.Prop = v.Prop
	inc.Proc = v.Proc
	if sc.cfg.Verify != nil {
		// A verification error leaves the incident unverified rather than
		// suppressing it: the violation stands on the trace alone.
		if verdict, err := sc.cfg.Verify(sc.monCfg, v.Prop); err == nil {
			inc.Verified = true
			inc.ModelAgrees = !verdict.Satisfied
		}
	}
	sc.emit(inc)
}

func (sc *StreamChecker) emit(inc *Incident) {
	sc.incidents = append(sc.incidents, inc)
	if sc.sup != nil {
		sc.sup.ReportIncident(netem.NodeID(inc.Proc), inc.String())
	}
}

// StreamResult summarises a finished stream.
type StreamResult struct {
	// Events is the number of events consumed.
	Events int
	// Incidents lists every incident in emission order, including the
	// loss-gated R2/R3 violations resolved at Finish.
	Incidents []*Incident
	// Unconfirmed is the first unconfirmed divergence (inclusion checking
	// stopped there; the R1–R3 monitor kept running), nil when the stream
	// conformed.
	Unconfirmed *Incident
	// Piecewise counters (newAdaptiveEngine's rules). Confirmed counts
	// divergences explained by design: the runtime leave handshake,
	// restarts, rejoins, and stray beats between participants. Degraded
	// counts events outside the level alphabet seen in degraded mode, where
	// trace inclusion is suspended. Retunes counts envelope transitions,
	// each confirmed against the envelope's level set; Saturations those
	// that re-held the current point. FinalLevel is the envelope level in
	// force when the stream ended. For a non-adaptive stream FinalLevel is
	// -1 and the other four are zero.
	Confirmed, Degraded, Retunes, Saturations, FinalLevel int
	// MaxFrontierSeen is the high-water stepped frontier width.
	MaxFrontierSeen int
	// Verdicts is the run's R1–R3 outcome.
	Verdicts TraceVerdicts
}

// Finish closes the stream at the configured horizon: it checks the final
// passage of time, closes the R1 monitoring intervals, resolves the
// loss-contingent R2/R3 candidates against the run's loss count, and
// returns the summary. Further events are ignored; repeated calls return
// the same result. The error reports an internal failure (a level spec
// that could not be built), never non-conformance.
func (sc *StreamChecker) Finish(lost uint64) (*StreamResult, error) {
	if sc.finished {
		return sc.result, sc.failed
	}
	sc.finished = true
	if sc.failed == nil && !sc.done {
		if d := sc.eng.finish(sc.cfg.Horizon, sc.seq); d != nil {
			sc.done = true
			sc.unconfirmed = sc.divergenceIncident(d)
			sc.emit(sc.unconfirmed)
		}
	}
	for _, v := range sc.mon.finishTime() {
		sc.violationIncident(v, sc.seq)
	}
	// The loss-gated R2/R3 reports stand on a loss-free run only.
	tv := TraceVerdicts{LossFree: lost == 0}
	for _, v := range sc.mon.viol {
		if v.Prop == models.R1 || lost == 0 {
			tv.Violations = append(tv.Violations, v)
		}
		if v.Prop != models.R1 && lost == 0 {
			sc.violationIncident(v, sc.seq)
		}
	}
	finalLevel := baseLevel
	if sc.eng.env != nil {
		finalLevel = sc.eng.finalLevel
	}
	sc.result = &StreamResult{
		Events:          sc.seq,
		Incidents:       sc.incidents,
		Unconfirmed:     sc.unconfirmed,
		Confirmed:       sc.eng.confirmed,
		Degraded:        sc.eng.degradedEvs,
		Retunes:         sc.eng.retunes,
		Saturations:     sc.eng.saturations,
		FinalLevel:      finalLevel,
		MaxFrontierSeen: sc.eng.maxFrontierSeen,
		Verdicts:        tv,
	}
	return sc.result, sc.failed
}

// RunStream drives one simulated cluster with a stream checker attached as
// its observer and finishes the stream with the run's loss count. The
// checker is built from cfg with Horizon set to rc.Horizon.
func RunStream(rc RunConfig, cfg StreamConfig) (*StreamResult, error) {
	cfg.Horizon = rc.Horizon
	sc, err := NewStreamChecker(cfg)
	if err != nil {
		return nil, err
	}
	_, lost, err := runObserved(rc, sc)
	if err != nil {
		return nil, err
	}
	return sc.Finish(lost)
}
