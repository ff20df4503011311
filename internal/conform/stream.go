package conform

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/netem"
	"repro/internal/trace"
)

// divergePoint is a divergence located by the shared streaming engine,
// before it is bound to a full offline trace (Divergence) or to a bounded
// incident tail (Incident).
type divergePoint struct {
	cfg      models.Config
	index    int
	time     core.Tick
	label    alphabet.Label
	expected []string
}

func (d *divergePoint) divergence(events []Event) *Divergence {
	return &Divergence{
		Cfg: d.cfg, Events: events, Index: d.index,
		Time: d.time, Label: d.label.String(), Expected: d.expected,
	}
}

// streamEngine advances the antichain frontier one event at a time. It is
// the single implementation behind offline replay (Spec.CheckTrace,
// CampaignCheck.CheckTraceAdaptive) and the online StreamChecker, so the
// two cannot drift: the offline checkers are thin loops over feed/finish,
// and streaming verdicts are byte-identical to offline replay by
// construction.
//
// With a positive maxFrontier the engine enforces a hard antichain
// budget: a frontier stepped past the budget sheds the inclusion check —
// the sampled-observer degradation of a production checker under a trace
// its memory envelope cannot follow — instead of growing without bound.
// Shedding is one-way and sound: it can only under-report divergences,
// never fabricate one, and the R1–R3 monitor is unaffected. The frontier
// is intrinsically bounded by the spec's state count (states are deduped
// per generation); the budget caps the sustained width well below that.
// All-states reseeds after confirmed divergences are exempt (they stand
// for NumStates states by construction and collapse on the next step);
// the budget gates stepped frontiers only — private or shared region
// nodes alike, by their set size — which is also what maxFrontierSeen
// tracks.
type streamEngine struct {
	check *CampaignCheck   // spec source for piecewise mode; nil in plain mode
	env   *models.Envelope // nil: plain single-spec mode
	sp    *Spec
	ck    *checker
	now   core.Tick

	level    int
	degraded bool

	confirmed   int
	degradedEvs int
	retunes     int
	saturations int
	finalLevel  int

	maxFrontier     int
	shed            bool
	shedEvents      int
	maxFrontierSeen int
}

// newStreamEngine builds a plain (single-specification) engine over the
// given scratch.
func newStreamEngine(sp *Spec, sc *scratch, maxFrontier int) *streamEngine {
	e := &streamEngine{sp: sp, ck: newChecker(sp, sc), maxFrontier: maxFrontier}
	e.noteFrontier()
	return e
}

// newAdaptiveEngine builds a piecewise engine over the campaign's
// envelope, starting at level 0 (per CheckTraceAdaptive's contract). Its
// scratch comes from the campaign's pool; release returns it.
func newAdaptiveEngine(c *CampaignCheck, maxFrontier int) (*streamEngine, error) {
	if c.Envelope == nil {
		return nil, fmt.Errorf("%w: piecewise streaming needs an envelope", ErrUnsupported)
	}
	sp, err := c.SpecAt(0)
	if err != nil {
		return nil, err
	}
	e := newStreamEngine(sp, c.getScratch(), maxFrontier)
	e.check, e.env = c, c.Envelope
	return e, nil
}

// release hands the checker's scratch back to the campaign's pool. The
// engine must not be fed, finished or asked for a divergence afterwards.
func (e *streamEngine) release(c *CampaignCheck) {
	c.scratchPool.Put(e.ck.scratch)
	e.ck.scratch = nil
}

func (e *streamEngine) noteFrontier() {
	n := e.ck.width()
	if n > e.maxFrontierSeen {
		e.maxFrontierSeen = n
	}
	if e.maxFrontier > 0 && n > e.maxFrontier {
		e.shed = true
	}
}

// stepNoted steps the frontier and applies the budget on success.
func (e *streamEngine) stepNoted(id int32) bool {
	if !e.ck.step(id) {
		return false
	}
	e.noteFrontier()
	return true
}

// reseed restarts the frontier from every state of the current spec, the
// over-approximation used after confirmed divergences. A shed engine
// skips it: inclusion checking is already suspended for good.
func (e *streamEngine) reseed() {
	if e.shed {
		return
	}
	e.ck.reseed(e.sp)
}

func (e *streamEngine) diverge(idx int, label alphabet.Label) *divergePoint {
	return &divergePoint{
		cfg: e.sp.Cfg, index: idx, time: e.now,
		label: label, expected: e.ck.enabled(),
	}
}

// advance moves time forward to target, stepping the model's tick label.
// In degraded mode time passes unchecked (and, matching the offline
// piecewise checker exactly, out-of-order timestamps move it backwards);
// a shed engine advances monotonically without stepping.
func (e *streamEngine) advance(to core.Tick, idx int) *divergePoint {
	if e.degraded {
		e.now = to
		return nil
	}
	for e.now < to {
		if e.shed {
			e.now = to
			return nil
		}
		if !e.ck.step(e.sp.tickID) {
			return e.diverge(idx, tick)
		}
		e.now++
		e.noteFrontier()
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
		if e.shed {
			e.shedEvents++
			return nil, nil
		}
		if id := e.sp.id(ev.Label); id < 0 || !e.stepNoted(id) {
			return e.diverge(i, ev.Label), nil
		}
		return nil, nil
	}
	// Piecewise adaptive mode, mirroring CheckTraceAdaptive's rules in
	// order: in-alphabet step, envelope-confirmed retune, by-design
	// divergence, degraded tolerance, unconfirmed.
	if id := e.sp.id(ev.Label); id >= 0 {
		if e.degraded {
			return nil, nil
		}
		if e.shed {
			e.shedEvents++
			return nil, nil
		}
		if e.stepNoted(id) {
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
	case e.shed:
		e.shedEvents++
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

// fill copies the piecewise counters into an offline result.
func (e *streamEngine) fill(res *PiecewiseResult) {
	res.Confirmed = e.confirmed
	res.Degraded = e.degradedEvs
	res.Retunes = e.retunes
	res.Saturations = e.saturations
	res.FinalLevel = e.finalLevel
}

// replay is the offline driver — the whole trace through feed, then
// finish — behind both Spec.CheckTrace and CheckTraceAdaptive.
func (e *streamEngine) replay(events []Event, horizon core.Tick) (*PiecewiseResult, error) {
	res := &PiecewiseResult{}
	for i, ev := range events {
		d, err := e.feed(i, ev)
		if err != nil {
			return nil, err
		}
		if d != nil {
			res.Unconfirmed = d.divergence(events)
			e.fill(res)
			return res, nil
		}
	}
	if d := e.finish(horizon, len(events)); d != nil {
		res.Unconfirmed = d.divergence(events)
	}
	e.fill(res)
	return res, nil
}

// levelInForce is the envelope level the engine is checking against, or
// baseLevel for a plain engine.
func (e *streamEngine) levelInForce() int {
	if e.env == nil {
		return baseLevel
	}
	return e.level
}

// monViolation is a requirement violation observed online, possibly
// contingent on the run's final loss count (the no-loss premise of
// R2/R3, which a live checker only learns at Finish).
type monViolation struct {
	v             ReqViolation
	needsLossFree bool
}

// traceMonitor evaluates R1–R3 incrementally, one event at a time, with
// O(n) state and no retained trace. It is the engine behind EvaluateTrace
// (which knows the loss count up front) and the StreamChecker (which
// learns it at Finish). R1 violations are definitive the moment their
// monitoring interval closes; R2/R3 candidates are buffered in trace
// order and resolved against the loss count, so the final Violations list
// is identical to offline evaluation.
type traceMonitor struct {
	n       int
	bound   core.Tick
	horizon core.Tick

	active0  bool
	p0End    core.Tick
	activeP  []bool
	jnd      []bool
	armed    []bool
	lastBeat []core.Tick

	viol   []monViolation
	fresh  []ReqViolation // R1s confirmed by the last observe; reused
	closed bool
}

func newTraceMonitor(cfg models.Config, horizon core.Tick) *traceMonitor {
	n := cfg.N
	fixedMembers := true
	switch cfg.Variant {
	case models.Expanding, models.Dynamic:
		fixedMembers = false
	}
	m := &traceMonitor{
		n:        n,
		bound:    core.Tick(cfg.DetectionBound()),
		horizon:  horizon,
		active0:  true,
		p0End:    farFuture,
		activeP:  make([]bool, n+1),
		jnd:      make([]bool, n+1),
		armed:    make([]bool, n+1),
		lastBeat: make([]core.Tick, n+1),
	}
	for i := 1; i <= n; i++ {
		m.activeP[i] = true
		m.jnd[i] = fixedMembers
		m.armed[i] = fixedMembers
	}
	return m
}

// closeR1 checks the monitoring interval (lastBeat, next] for p[i]: a
// violation exists when the deadline elapsed with no delivery while p[0]
// stayed active, observably within the horizon.
func (m *traceMonitor) closeR1(i int, next core.Tick) {
	deadline := m.lastBeat[i] + m.bound
	if next > deadline && m.p0End > deadline && m.horizon > deadline {
		v := ReqViolation{Prop: models.R1, Proc: i, Time: deadline + 1}
		m.viol = append(m.viol, monViolation{v: v})
		m.fresh = append(m.fresh, v)
	}
}

func (m *traceMonitor) allOKExcept(skip int) bool {
	for j := 1; j <= m.n; j++ {
		if j != skip && !(m.activeP[j] || !m.jnd[j]) {
			return false
		}
	}
	return true
}

// observe consumes one event and returns the R1 violations it confirmed.
// The returned slice is valid until the next observe or finishTime call.
// Only deliveries at p[0], inactivations and crashes move the monitor, and
// only when they are about p[0] or a participant it tracks.
func (m *traceMonitor) observe(ev Event) []ReqViolation {
	m.fresh = m.fresh[:0]
	p := int(ev.Label.A)
	member := p >= 1 && p <= m.n
	switch ev.Label.Kind {
	case alphabet.DeliverBeatP0:
		if member {
			if m.armed[p] {
				m.closeR1(p, ev.Time)
			}
			m.armed[p] = true
			m.lastBeat[p] = ev.Time
			m.jnd[p] = true
		}
	case alphabet.DeliverLeaveP0:
		if member {
			if m.armed[p] {
				m.closeR1(p, ev.Time)
			}
			m.armed[p] = false
			m.jnd[p] = false
		}
	case alphabet.Inactivate:
		switch {
		case p == 0:
			if m.allOKExcept(0) {
				v := ReqViolation{Prop: models.R3, Time: ev.Time}
				m.viol = append(m.viol, monViolation{v: v, needsLossFree: true})
			}
			m.endP0(ev.Time)
		case member:
			if m.active0 && m.allOKExcept(p) {
				v := ReqViolation{Prop: models.R2, Proc: p, Time: ev.Time}
				m.viol = append(m.viol, monViolation{v: v, needsLossFree: true})
			}
			m.activeP[p] = false
		}
	case alphabet.Crash:
		switch {
		case p == 0:
			m.endP0(ev.Time)
		case member:
			m.activeP[p] = false
		}
	}
	return m.fresh
}

// endP0 records p[0]'s inactivation; the first one ends its obligations.
func (m *traceMonitor) endP0(at core.Tick) {
	m.active0 = false
	if m.p0End == farFuture {
		m.p0End = at
	}
}

// finishTime closes the still-armed R1 monitoring intervals at the end of
// the run. The returned slice is reused like observe's. Idempotent.
func (m *traceMonitor) finishTime() []ReqViolation {
	m.fresh = m.fresh[:0]
	if m.closed {
		return m.fresh
	}
	m.closed = true
	for i := 1; i <= m.n; i++ {
		if m.armed[i] {
			m.closeR1(i, farFuture)
		}
	}
	return m.fresh
}

// verdicts resolves the loss-contingent candidates against the final loss
// count; the result is identical to EvaluateTrace on the full trace.
func (m *traceMonitor) verdicts(lost uint64) TraceVerdicts {
	tv := TraceVerdicts{LossFree: lost == 0}
	for _, pv := range m.viol {
		if pv.needsLossFree && lost != 0 {
			continue
		}
		tv.Violations = append(tv.Violations, pv.v)
	}
	return tv
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
// bounded state: enough to render the same first-divergence report as
// offline replay (from the bounded tail), plus triage fields for the
// supervisor's grading path.
type Incident struct {
	Kind IncidentKind
	// Cfg is the model configuration in force (the envelope level's, for
	// piecewise streams).
	Cfg models.Config
	// Level is the envelope level in force when the incident fired, or -1
	// for non-adaptive streams.
	Level int
	// Seq is the offending event's position in the full stream — the
	// offline Divergence.Index equivalent.
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
	// dropped. With the default tail size, Render output is byte-identical
	// to the offline Divergence.Render of the same divergence.
	Skipped int
	Tail    []Event
	// Shrunk and ShrunkDiv hold a minimised offline reproduction when
	// triage ran ShrinkRun on the incident's run configuration.
	Shrunk    *RunConfig
	ShrunkDiv *Divergence
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
// sequence chart (internal/trace), then the incident line. It is the one
// renderer: Divergence.Render calls it over the offline trace, so for a
// divergence the two reports are byte-identical whenever the stream's tail
// budget is the offline report bound (the default).
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
	// otherwise the stream is checked piecewise across envelope levels,
	// exactly as CheckTraceAdaptive would offline.
	Check *CampaignCheck
	// Horizon is the virtual time Finish checks the passage of time up to.
	Horizon core.Tick
	// MaxFrontier, when positive, is the hard antichain budget: past it
	// the checker sheds inclusion checking (monitor-only degradation)
	// instead of growing without bound. 0 means unbudgeted.
	MaxFrontier int
	// Tail bounds the incident MSC context (default 40, matching offline
	// divergence reports; incident renders are then byte-identical).
	Tail int
	// Verify, if non-nil, cross-checks each violation incident against
	// the model checker (use cachedVerify-style backends: it runs inline
	// on the event path at incident time).
	Verify VerifyFunc
	// OnIncident, if non-nil, receives each incident as it is assembled.
	// Called under the checker's lock — do not call back into the checker.
	OnIncident func(*Incident)
}

// StreamChecker is the online conformance checker: a detector.Observer
// that abstracts machine steps into model-alphabet events (exactly as
// Recorder does) and checks them incrementally — antichain frontier
// advance per event, piecewise across envelope retunes, plus the
// streaming R1–R3 monitor — in bounded memory, with no retained trace
// beyond the incident tail ring. Safe for concurrent use.
type StreamChecker struct {
	mu     sync.Mutex
	cfg    StreamConfig
	eng    *streamEngine
	mon    *traceMonitor
	monCfg models.Config
	sup    *detector.Supervisor

	add    func(alphabet.Label) // pre-bound abstractStep target (no per-step closure)
	obsNow core.Tick

	seq         int
	tail        []Event // ring buffer of the last len(tail) events
	done        bool    // inclusion stopped at the first unconfirmed divergence
	failed      error   // internal error (level spec construction)
	incidents   []*Incident
	unconfirmed *Incident
	finished    bool
	result      *StreamResult
}

// NewStreamChecker builds a stream checker. Specs come from the shared
// CampaignCheck cache, so many concurrent checkers (one per cluster under
// a campaign) share one spec build per operating point, and the checker's
// frontier scratch comes from the CampaignCheck's pool, to which Finish
// returns it.
func NewStreamChecker(cfg StreamConfig) (*StreamChecker, error) {
	if cfg.Check == nil {
		return nil, fmt.Errorf("%w: stream checker needs a CampaignCheck", ErrUnsupported)
	}
	if cfg.Tail <= 0 {
		cfg.Tail = mscTail
	}
	var (
		eng    *streamEngine
		monCfg models.Config
	)
	if env := cfg.Check.Envelope; env != nil {
		e, err := newAdaptiveEngine(cfg.Check, cfg.MaxFrontier)
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
		eng = newStreamEngine(sp, cfg.Check.getScratch(), cfg.MaxFrontier)
		monCfg = cfg.Check.Model
	}
	sc := &StreamChecker{
		cfg:    cfg,
		eng:    eng,
		mon:    newTraceMonitor(monCfg, cfg.Horizon),
		monCfg: monCfg,
		tail:   make([]Event, cfg.Tail),
	}
	sc.add = func(label alphabet.Label) { sc.feedLocked(Event{Time: sc.obsNow, Label: label}) }
	return sc, nil
}

// BindSupervisor forwards every subsequent incident to the supervisor's
// grading path (detector.Supervisor.ReportIncident). Bind after building
// the cluster and before starting it.
func (sc *StreamChecker) BindSupervisor(sup *detector.Supervisor) {
	sc.mu.Lock()
	sc.sup = sup
	sc.mu.Unlock()
}

// ObserveStep implements detector.Observer: the machine step is
// abstracted into model-alphabet events and checked immediately, without
// being retained.
//
//lint:allow noalloc-closure the streaming checker allocates incident records by design; conformance runs trade allocations for checking
func (sc *StreamChecker) ObserveStep(id netem.NodeID, now core.Tick, tr detector.Trigger, actions []core.Action) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.obsNow = now
	abstractStep(sc.add, id, tr, actions)
}

// Feed consumes one pre-abstracted event — a recorded trace replayed
// incrementally, or a generated corpus. Live clusters attach the checker
// as an Observer instead.
func (sc *StreamChecker) Feed(ev Event) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.feedLocked(ev)
}

func (sc *StreamChecker) feedLocked(ev Event) {
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
		sc.violationIncident(v, i)
	}
	sc.tail[i%len(sc.tail)] = ev
	sc.seq++
}

// tailLen is the number of live ring entries.
func (sc *StreamChecker) tailLen() int {
	if sc.seq < len(sc.tail) {
		return sc.seq
	}
	return len(sc.tail)
}

// newIncident snapshots the bounded context shared by all incident kinds.
// The tail holds the events before the current one (the offline report's
// prefix), so it excludes the offending event itself.
func (sc *StreamChecker) newIncident(kind IncidentKind, seq int) *Incident {
	n := sc.tailLen()
	t := make([]Event, n)
	start := sc.seq - n
	for k := 0; k < n; k++ {
		t[k] = sc.tail[(start+k)%len(sc.tail)]
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
	if sc.cfg.OnIncident != nil {
		sc.cfg.OnIncident(inc)
	}
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
	// Piecewise counters, field-for-field what CheckTraceAdaptive's
	// PiecewiseResult reports offline. For a non-adaptive stream FinalLevel
	// is -1 and the other four are zero.
	Confirmed, Degraded, Retunes, Saturations, FinalLevel int
	// Shed reports the inclusion check was dropped by the frontier budget;
	// ShedEvents counts events skipped while shed, and MaxFrontierSeen is
	// the high-water stepped antichain width.
	Shed            bool
	ShedEvents      int
	MaxFrontierSeen int
	// Verdicts is the run's R1–R3 outcome, identical to EvaluateTrace on
	// the full trace.
	Verdicts TraceVerdicts
}

// Finish closes the stream at the configured horizon: it checks the final
// passage of time, closes the R1 monitoring intervals, resolves the
// loss-contingent R2/R3 candidates against the run's loss count, and
// returns the summary. Further events are ignored; repeated calls return
// the same result. The error reports an internal failure (a level spec
// that could not be built), never non-conformance.
func (sc *StreamChecker) Finish(lost uint64) (*StreamResult, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
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
	if lost == 0 {
		for _, pv := range sc.mon.viol {
			if pv.needsLossFree {
				sc.violationIncident(pv.v, sc.seq)
			}
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
		Shed:            sc.eng.shed,
		ShedEvents:      sc.eng.shedEvents,
		MaxFrontierSeen: sc.eng.maxFrontierSeen,
		Verdicts:        sc.mon.verdicts(lost),
	}
	sc.eng.release(sc.cfg.Check)
	return sc.result, sc.failed
}

// RunStream drives one simulated cluster with the stream checker attached
// as its observer — the online counterpart of Run+CheckTrace — and
// finishes the stream with the run's loss count. Build the checker with
// Horizon equal to rc.Horizon.
func RunStream(rc RunConfig, sc *StreamChecker) (*StreamResult, error) {
	_, lost, err := runObserved(rc, sc)
	if err != nil {
		return nil, err
	}
	return sc.Finish(lost)
}
