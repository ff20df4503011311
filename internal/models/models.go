// Package models contains the formal timed-automata models of the
// accelerated heartbeat protocols — the reproduction of the UPPAAL models
// in the Atif–Mousavi analysis (Figures 3–9) over the internal/ta
// framework — together with the requirement predicates R1–R3 and the
// verdict harness that regenerates the analysis' verification tables.
//
// # Model structure
//
// A model composes, for n participants:
//
//   - p[0] (the coordinator), with its round clock, waiting-time variable
//     and per-participant rcvd/tm/jnd bookkeeping;
//   - p[i] automata: responders (binary/static) or joiners
//     (expanding/dynamic);
//   - one pair channel per participant carrying the beat exchange with a
//     shared round-trip budget clock bounded by tmin, with nondeterministic
//     loss that raises the global lostMsg flag;
//   - for joiners, a solicitation channel from p[i] to p[0];
//   - one R1 monitor per participant (Figure 9).
//
// # Faithfulness notes
//
// The channel automata are input-enabled reconstructions rather than
// edge-for-edge copies of Figure 5 (the figures are ambiguous about
// receptiveness corners). A send arriving while the channel is busy is
// dropped with lostMsg set; this is sound for all three requirements: R2
// and R3 exclude lossy traces by premise, and extra loss can only make
// p[0] inactivate sooner, which cannot fabricate an R1 violation. The
// busy corner itself is reachable only in traces that already lost a
// message or crashed a process.
package models

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/ta"
)

// Variant selects the protocol to model.
type Variant int

// Protocol variants of the ICDCS'98 paper (plus the 2004 revision).
const (
	// Binary is the two-process protocol, p[0] waiting a full first round.
	Binary Variant = iota + 1
	// RevisedBinary starts with an immediate beat (McGuire–Gouda 2004).
	RevisedBinary
	// TwoPhase drops the waiting time straight to tmin on a miss.
	TwoPhase
	// Static runs the binary exchange against n fixed participants.
	Static
	// Expanding admits participants that solicit with beats every tmin.
	Expanding
	// Dynamic additionally lets participants leave gracefully.
	Dynamic
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Binary:
		return "binary"
	case RevisedBinary:
		return "revised-binary"
	case TwoPhase:
		return "two-phase"
	case Static:
		return "static"
	case Expanding:
		return "expanding"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Variants lists every variant, in declaration order.
var Variants = []Variant{Binary, RevisedBinary, TwoPhase, Static, Expanding, Dynamic}

// ParseVariant resolves a variant by its String name.
func ParseVariant(name string) (Variant, error) {
	for _, v := range Variants {
		if v.String() == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q", name)
}

// Config parameterises a model build.
type Config struct {
	// TMin and TMax are the protocol constants (0 < TMin <= TMax).
	TMin, TMax int32
	// WatchdogTMax, when non-zero, decouples the participants' watchdog
	// bounds from the coordinator's TMax: the bounds are derived from this
	// value instead (must be >= TMax). The adaptive variant runs its
	// participants at the envelope's worst-case point while the
	// coordinator operates at a tighter level; this knob mirrors that
	// split in the model.
	WatchdogTMax int32
	// Variant selects the protocol.
	Variant Variant
	// N is the number of participants; forced to 1 for the binary
	// variants.
	N int
	// Fixed applies both §6 corrections: receive priority and the
	// corrected time bounds.
	Fixed bool
	// FixPriority applies only the §6.1 receive-priority fix (deliveries
	// before same-instant timeouts) — an ablation knob; implied by Fixed.
	//
	//lint:allow unused-export oracle: the §6 ablation sets one fix at a time (go test -run TestAblation ./internal/models/)
	FixPriority bool
	// FixBounds applies only the §6.2 corrected time bounds — an
	// ablation knob; implied by Fixed.
	//
	//lint:allow unused-export oracle: the §6 ablation sets one fix at a time (go test -run TestAblation ./internal/models/)
	FixBounds bool
	// MonitorAll attaches an R1 monitor to every participant. By default
	// only p[1] is monitored: participants are fully symmetric in the
	// model (identical constants, independent channels), so R1 holds for
	// p[1] iff it holds for every p[i], and dropping the other monitors'
	// clocks shrinks the state space considerably.
	//
	//lint:allow unused-export oracle: the symmetry-quotient tests check the sliced monitor against every participant monitored (quotient_test.go)
	MonitorAll bool
	// NoMonitor drops the R1 monitors entirely. Trace-inclusion checking
	// (internal/conform) wants the bare protocol LTS: monitor clocks both
	// inflate the state space and introduce "error R1" transitions that are
	// no part of the protocol's observable behaviour.
	NoMonitor bool
}

// ErrConfig reports an invalid model configuration.
var ErrConfig = errors.New("models: invalid config")

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TMin <= 0 || c.TMax < c.TMin {
		return fmt.Errorf("%w: need 0 < tmin <= tmax, got %d, %d", ErrConfig, c.TMin, c.TMax)
	}
	if c.WatchdogTMax != 0 && c.WatchdogTMax < c.TMax {
		return fmt.Errorf("%w: watchdog tmax %d below tmax %d", ErrConfig, c.WatchdogTMax, c.TMax)
	}
	if !slices.Contains(Variants, c.Variant) {
		return fmt.Errorf("%w: unknown variant %d", ErrConfig, int(c.Variant))
	}
	if c.N < 1 || c.N > maxMembers {
		return fmt.Errorf("%w: need 1 to %d participants, got %d", ErrConfig, maxMembers, c.N)
	}
	// The first test keeps the bounds behind the second inside int32.
	if c.watchdogTMax() > ta.MaxClockCap || c.maxClockCap() > ta.MaxClockCap {
		return fmt.Errorf("%w: tmin %d, tmax %d need a clock counting past %d, the most a state key holds",
			ErrConfig, c.TMin, c.watchdogTMax(), ta.MaxClockCap)
	}
	return nil
}

// maxClockCap is the largest cap Build declares a clock with.
func (c Config) maxClockCap() int32 {
	most := max(c.TMax+1, c.responderBound()+1) // p[0] and join channels; watchdogs
	if c.joinPhase() {
		most = max(most, c.joinerBound()+1)
	}
	if !c.NoMonitor {
		most = max(most, c.DetectionBound()+2)
	}
	return most
}

// binaryFamily reports whether the variant has fixed membership.
func (c Config) binaryFamily() bool {
	switch c.Variant {
	case Binary, RevisedBinary, TwoPhase, Static:
		return true
	default:
		return false
	}
}

// joinPhase reports whether participants solicit before joining.
func (c Config) joinPhase() bool { return !c.binaryFamily() }

// fixPriority reports whether the §6.1 receive-priority fix is in force.
func (c Config) fixPriority() bool { return c.Fixed || c.FixPriority }

// fixBounds reports whether the §6.2 corrected bounds are in force.
func (c Config) fixBounds() bool { return c.Fixed || c.FixBounds }

// watchdogTMax is the tmax the participants' watchdog bounds derive from:
// the coordinator's, unless WatchdogTMax decouples them.
func (c Config) watchdogTMax() int32 {
	if c.WatchdogTMax != 0 {
		return c.WatchdogTMax
	}
	return c.TMax
}

// Core maps the configuration onto the runtime's timing rules: the same
// constants, the variant's flags, and the §6.2 bounds as Fixed. Every
// acceleration step and bound the model uses is read from it.
func (c Config) Core() core.Config {
	return core.Config{
		TMin:     core.Tick(c.TMin),
		TMax:     core.Tick(c.TMax),
		TwoPhase: c.Variant == TwoPhase,
		Revised:  c.Variant == RevisedBinary,
		Fixed:    c.fixBounds(),
	}
}

// watchdog is the participants' view of Core: the same rules at the
// watchdog tmax.
func (c Config) watchdog() core.Config {
	w := c.Core()
	w.TMax = core.Tick(c.watchdogTMax())
	return w
}

// responderBound is p[i]'s steady-state watchdog bound.
func (c Config) responderBound() int32 { return int32(c.watchdog().ResponderBound()) }

// joinerBound is p[i]'s solicitation-phase bound.
func (c Config) joinerBound() int32 { return int32(c.watchdog().JoinerBound()) }

// DetectionBound is the R1 detection bound the configuration claims:
// p[0] must inactivate within this many ticks of the last beat delivered
// from a silent participant. It is the 1998 paper's claim of 2·tmax, or
// the corrected §6.2 bound. Exported for the runtime verdict monitors of
// internal/conform, which re-evaluate R1 on recorded traces.
func (c Config) DetectionBound() int32 {
	if !c.fixBounds() {
		return 2 * c.TMax
	}
	return int32(c.Core().CoordinatorDetectionBound())
}

// p0Refs locates p[0]'s pieces in the network.
type p0Refs struct {
	aut                                   int
	init, alive, timeout, vInact, nvInact int
	waiting                               int // clock
	t                                     int // var: current round length
}

// piRefs locates participant i's pieces.
type piRefs struct {
	aut                                 int
	start, alive, rcvd, vInact, nvInact int
	wfb                                 int // clock: waiting-for-beat
	wtj                                 int // clock: waiting-to-join (joiners)
}

// chanRefs locates the pair channel for participant i.
type chanRefs struct {
	aut                                     int
	idle, fly, await, replyTrue, replyFalse int
	rt                                      int // clock: round-trip budget
}

// joinChanRefs locates the solicitation channel for participant i.
type joinChanRefs struct {
	aut       int
	idle, fly int
	rt        int // clock: one-way budget
}

// monRefs locates the R1 monitor for participant i.
type monRefs struct {
	aut           int
	watch, errLoc int
	delay         int // clock
}

// noVar is the vLeave entry of a participant outside the dynamic protocol.
const noVar = -1

// Model is a built protocol model plus everything the requirement
// predicates need.
type Model struct {
	Cfg Config
	Net *ta.Network

	p0   p0Refs
	ps   []piRefs
	chs  []chanRefs
	jchs []joinChanRefs
	mons []monRefs
	// dead is the dead-clock table the verdict path canonicalises with,
	// and observers the observer-only variables a search stores as 0
	// where its predicates do not read them (quotient); both are derived
	// from the network's guards, invariants and footprints (deadclock.go).
	dead      ta.DeadTable
	observers []int
	// blocks holds each participant's slots, appended by the build
	// functions that declare them; sym is the interchangeable group canon
	// sorts (symmetry.go).
	blocks []block
	sym    symmetry

	// variables
	vActive0 int
	vActive  []int // per participant
	vRcvd    []int
	vTM      []int
	vJnd     []int
	vLeave   []int // dynamic only; noVar otherwise
	vEver    []int // p[0] ever received a beat from p[i]
	vLost    int

	// channels
	chBcast      ta.ChanID   // p[0]'s beat, broadcast to all pair channels
	chDlv        []ta.ChanID // pair channel delivers to p[i]
	chReply      []ta.ChanID // p[i] replies into the pair channel
	chReplyFalse []ta.ChanID // p[i]'s leave reply (dynamic only)
	chDlvTrue    []ta.ChanID // deliveries to p[0] with a true beat (broadcast: p[0] + monitor)
	chDlvFalse   []ta.ChanID // deliveries to p[0] with a false (leave) beat
	chJoin       []ta.ChanID // p[i]'s solicitation into the join channel
}

// Build constructs the timed-automata network for the configuration.
func Build(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Variant {
	case Binary, RevisedBinary, TwoPhase:
		cfg.N = 1
	}
	m := &Model{Cfg: cfg, Net: ta.NewNetwork()}
	m.Net.SetReceivePriority(cfg.fixPriority())
	m.declareVars()
	m.declareChans()
	m.buildP0()
	for i := 0; i < cfg.N; i++ {
		m.buildChannel(i)
		if cfg.joinPhase() {
			// Built before the participant: the joiner's re-solicitation
			// edges inspect the join channel's occupancy.
			m.buildJoinChannel(i)
		}
		m.buildParticipant(i)
		if (i == 0 || cfg.MonitorAll) && !cfg.NoMonitor {
			m.buildMonitor(i)
		}
	}
	m.wireP0Edges()
	m.sym = m.group()
	m.dead, m.observers = m.Net.DeadClocks(), m.Net.Observers()
	return m, nil
}

// declareVars creates the shared variable set.
func (m *Model) declareVars() {
	cfg := m.Cfg
	n := m.Net
	m.vActive0 = n.Var("active0", 1)
	m.vLost = n.Var("lostMsg", 0)
	jndInit := int32(0)
	if cfg.binaryFamily() {
		jndInit = 1
	}
	m.blocks = make([]block, cfg.N)
	for i := 0; i < cfg.N; i++ {
		m.vActive = append(m.vActive, n.Var(fmt.Sprintf("active%d", i+1), 1))
		m.vRcvd = append(m.vRcvd, n.Var(fmt.Sprintf("rcvd%d", i+1), 1))
		m.vTM = append(m.vTM, n.Var(fmt.Sprintf("tm%d", i+1), cfg.TMax))
		m.vJnd = append(m.vJnd, n.Var(fmt.Sprintf("jnd%d", i+1), jndInit))
		if cfg.Variant == Dynamic {
			m.vLeave = append(m.vLeave, n.Var(fmt.Sprintf("leave%d", i+1), 0))
		} else {
			m.vLeave = append(m.vLeave, noVar)
		}
		m.vEver = append(m.vEver, n.Var(fmt.Sprintf("ever%d", i+1), 0))
		b := &m.blocks[i]
		b.vars = append(b.vars, m.vActive[i], m.vRcvd[i], m.vTM[i], m.vJnd[i])
		if m.vLeave[i] != noVar {
			b.vars = append(b.vars, m.vLeave[i])
		}
		b.vars = append(b.vars, m.vEver[i])
	}
}

// declareChans creates the synchronisation channels.
func (m *Model) declareChans() {
	n := m.Net
	m.chBcast = n.Chan("bcast0", true)
	for i := 0; i < m.Cfg.N; i++ {
		m.chDlv = append(m.chDlv, n.Chan(fmt.Sprintf("dlv_p%d", i+1), false))
		m.chReply = append(m.chReply, n.Chan(fmt.Sprintf("reply_p%d", i+1), false))
		if m.Cfg.Variant == Dynamic {
			m.chReplyFalse = append(m.chReplyFalse, n.Chan(fmt.Sprintf("reply_false_p%d", i+1), false))
		} else {
			m.chReplyFalse = append(m.chReplyFalse, 0)
		}
		m.chDlvTrue = append(m.chDlvTrue, n.Chan(fmt.Sprintf("dlv0_true_p%d", i+1), true))
		if m.Cfg.Variant == Dynamic {
			// Leave beats exist only in the dynamic protocol; declaring the
			// channel elsewhere leaves it dead (ta.Analyze flags it).
			m.chDlvFalse = append(m.chDlvFalse, n.Chan(fmt.Sprintf("dlv0_false_p%d", i+1), true))
		} else {
			m.chDlvFalse = append(m.chDlvFalse, 0)
		}
		if m.Cfg.joinPhase() {
			m.chJoin = append(m.chJoin, n.Chan(fmt.Sprintf("join_p%d", i+1), false))
		} else {
			m.chJoin = append(m.chJoin, 0)
		}
	}
}

// nextTM applies the §2 acceleration rule to one participant's waiting
// time given the pre-timeout state.
func (m *Model) nextTM(s *ta.State, i int) (next int32, alive bool) {
	t, ok := m.Cfg.Core().NextWait(core.Tick(s.Vars[m.vTM[i]]), s.Vars[m.vRcvd[i]] == 1)
	return int32(t), ok
}

// timeoutOutcome evaluates p[0]'s decision at a round timeout: ok is false
// when some joined participant's waiting time has decayed below tmin, and
// otherwise newT is the next round length (tmax when nobody has joined).
func (m *Model) timeoutOutcome(s *ta.State) (newT int32, ok bool) {
	newT = m.Cfg.TMax
	for i := 0; i < m.Cfg.N; i++ {
		if s.Vars[m.vJnd[i]] != 1 {
			continue
		}
		next, alive := m.nextTM(s, i)
		if !alive {
			return 0, false
		}
		if next < newT {
			newT = next
		}
	}
	return newT, true
}

// applyTimeout commits the round bookkeeping after a continue decision;
// the edge resets the round clock itself.
func (m *Model) applyTimeout(s *ta.State) {
	newT, _ := m.timeoutOutcome(s)
	for i := 0; i < m.Cfg.N; i++ {
		if s.Vars[m.vJnd[i]] != 1 {
			continue
		}
		next, _ := m.nextTM(s, i)
		s.Vars[m.vTM[i]] = next
		s.Vars[m.vRcvd[i]] = 0
	}
	s.Vars[m.p0.t] = newT
}
