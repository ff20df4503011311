package models

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/mc"
	"repro/internal/ta"
)

// Property names the requirements of §5 of the analysis.
type Property int

// The three requirements.
const (
	// R1: if p[0] receives no beat from p[i] for the claimed detection
	// bound, p[0] inactivates.
	R1 Property = iota + 1
	// R2: no participant is non-voluntarily inactivated while p[0] is
	// alive, no message was lost, and every other participant is alive
	// (or never joined, or left).
	R2
	// R3: p[0] is not non-voluntarily inactivated while no message was
	// lost and every joined participant is alive (or left).
	R3
)

// String implements fmt.Stringer.
func (p Property) String() string {
	switch p {
	case R1:
		return "R1"
	case R2:
		return "R2"
	case R3:
		return "R3"
	default:
		return fmt.Sprintf("Property(%d)", int(p))
	}
}

// Members is a set of processes: p[i] is bit i.
type Members uint64

// maxMembers is the most participants a model has: a Members holds p[0]
// and 63 more.
const maxMembers = 63

// Member returns the set holding p[i] alone.
func Member(i int) Members { return 1 << i }

// Observables is the vector R2 and R3 are defined over, and R1's
// obligation is kept beside: what a run shows of its processes, with no
// clock in it. The model reads it from its state slots (Observe); conform's
// stream interpreter keeps it from the labels a run emits, as the model's
// edges drive those slots.
type Observables struct {
	Lost    bool    // some message was lost (lostMsg)
	Active  Members // active processes
	NVInact Members // non-voluntarily inactivated processes
	Joined  Members // participants p[0] counts as joined (jnd)
}

// Initial returns the observables at the start of a run of c: every
// process active, and every participant joined iff membership is fixed.
func (c Config) Initial() Observables {
	o := Observables{Active: Member(c.N+1) - 1}
	if c.binaryFamily() {
		o.Joined = o.Active &^ Member(0)
	}
	return o
}

// down is the set a network-wide inactivation can be blamed on: the
// participants that are inactive while p[0] still counts them. A
// participant is excused while it is active, before it joins, and once its
// leave has reached p[0] — also when it crashed after sending that leave.
func (o Observables) down() Members { return o.Joined &^ o.Active }

// R2 returns the participants R2 is violated for: p[i] was
// non-voluntarily inactivated although no message was lost, p[0] is
// active, and every other participant is excused.
func (o Observables) R2() Members {
	if o.Lost || o.Active&Member(0) == 0 {
		return 0
	}
	switch d := o.down(); {
	case d == 0:
		return o.NVInact
	case d&(d-1) == 0:
		return o.NVInact & d
	}
	return 0
}

// R3 reports whether R3 is violated: p[0] was non-voluntarily inactivated
// although no message was lost and every participant is excused.
func (o Observables) R3() bool { return !o.Lost && o.NVInact&Member(0) != 0 && o.down() == 0 }

// R1Obligation is what R1 asks of p[0] toward one participant: the
// locations of Figure 9's monitor, but for its Error.
type R1Obligation uint8

// R1's obligations.
const (
	// R1Idle: p[0] has heard nothing from the participant yet.
	R1Idle R1Obligation = iota
	// R1Armed: p[0] must stop being active within DetectionBound ticks of
	// the delivery that armed it last, or R1 is violated.
	R1Armed
	// R1Ended: the participant's leave reached p[0]; nothing is owed any
	// more, whatever is delivered later.
	R1Ended
)

// R1Start is R1's obligation toward every participant at the start of a
// run of c: armed iff membership is fixed.
func (c Config) R1Start() R1Obligation {
	if c.binaryFamily() {
		return R1Armed
	}
	return R1Idle
}

// Next is the obligation after p[0] is delivered a label of kind k from
// the participant: a beat arms it, restarting the bound, and a leave ends
// it for good.
func (o R1Obligation) Next(k alphabet.Kind) R1Obligation {
	switch {
	case o == R1Ended:
	case k == alphabet.DeliverBeatP0:
		return R1Armed
	case k == alphabet.DeliverLeaveP0:
		return R1Ended
	}
	return o
}

// R1Violated reports whether any R1 monitor reached its Error location.
func (m *Model) R1Violated(s *ta.State) bool {
	for _, mo := range m.mons {
		if int(s.Locs[mo.aut]) == mo.errLoc {
			return true
		}
	}
	return false
}

// Observe reads the observables from s's slots.
func (m *Model) Observe(s *ta.State) Observables {
	o := m.observe0(s)
	for i, p := range m.ps {
		// active and jnd hold 0 or 1.
		o.Active |= Members(s.Vars[m.vActive[i]]) << (i + 1)
		o.Joined |= Members(s.Vars[m.vJnd[i]]) << (i + 1)
		if int(s.Locs[p.aut]) == p.nvInact {
			o.NVInact |= Member(i + 1)
		}
	}
	return o
}

// observe0 reads the loss and p[0]'s slots alone: no participant is
// active, inactivated or joined in it.
func (m *Model) observe0(s *ta.State) Observables {
	o := Observables{Lost: s.Vars[m.vLost] == 1, Active: Members(s.Vars[m.vActive0])}
	if m.P0NVInactivated(s) {
		o.NVInact = Member(0)
	}
	return o
}

// R2Violated reports whether R2 is violated in s, reading the participants'
// slots only if it holds with all of them inactivated and none down.
func (m *Model) R2Violated(s *ta.State) bool {
	bound := m.observe0(s)
	bound.NVInact |= Member(len(m.ps)+1) - 2
	return bound.R2() != 0 && m.Observe(s).R2() != 0
}

// R3Violated reports whether R3 is violated in s, reading the participants'
// slots only if it holds with none of them down.
func (m *Model) R3Violated(s *ta.State) bool { return m.observe0(s).R3() && m.Observe(s).R3() }

// Violation returns the predicate for a property.
func (m *Model) Violation(p Property) (func(*ta.State) bool, error) {
	switch p {
	case R1:
		return m.R1Violated, nil
	case R2:
		return m.R2Violated, nil
	case R3:
		return m.R3Violated, nil
	default:
		return nil, fmt.Errorf("%w: unknown property %d", ErrConfig, int(p))
	}
}

// Verdict is the outcome of checking one property on one configuration.
type Verdict struct {
	Cfg      Config
	Property Property
	// Satisfied is true when no violating state is reachable.
	Satisfied bool
	// Result carries exploration statistics and, when the property fails,
	// a minimal counter-example trace.
	Result mc.Result
}

// Verify model-checks one property of cfg on a strongly bisimilar quotient
// of its network. R2 and R3 never read the R1 monitor — a passive observer
// with no invariant, broadcast receives only and no write to a shared
// variable — so they are checked on the model built without it; every
// property is checked with dead clocks stored as 0 and the identical
// participants sorted (see (*Model).Verify). Result.StatesExplored
// therefore counts quotient states (mc.CheckReachability on Build(cfg).Net
// with a nil goal gives the size of the network itself). A counter-example
// is a run of the network the check built: for R2 or R3, that of the
// model Build returns for cfg with NoMonitor set.
func Verify(cfg Config, prop Property, opts mc.Options) (Verdict, error) {
	vs, err := verifyAll(cfg, []Property{prop}, opts)
	if err != nil {
		return Verdict{}, err
	}
	return vs[0], nil
}

// verifyAll checks props of cfg as Verify checks each, and returns what
// calling Verify on each in turn returns, stopping at the first error: the
// verdicts before it, in order, and that error. The properties one model
// answers under one prune — R2 and R3 on the sliced model — share one
// exploration, run when the first of them comes up.
func verifyAll(cfg Config, props []Property, opts mc.Options) ([]Verdict, error) {
	// The verdict is about cfg, monitor and all: constants only the slice
	// could build are refused for every property alike.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	verdicts, errs := make([]Verdict, len(props)), make([]error, len(props))
	checked := make([]bool, len(props))
	for i, p := range props {
		if !checked[i] {
			// Check p with every later property its exploration answers.
			var at []int
			var group []Property
			for j := i; j < len(props); j++ {
				if q := props[j]; q == p || sliced(p) && sliced(q) {
					at, group = append(at, j), append(group, q)
					checked[j] = true
				}
			}
			vs, gerrs := verifyGroup(cfg, group, opts)
			for k, j := range at {
				verdicts[j], errs[j] = vs[k], gerrs[k]
			}
		}
		if errs[i] != nil {
			return verdicts[:i], errs[i]
		}
	}
	return verdicts, nil
}

// sliced reports whether prop is checked on the model built without the R1
// monitor, pruned at the first message loss.
func sliced(prop Property) bool { return prop == R2 || prop == R3 }

// verifyGroup checks props, which one model answers under one prune, in
// one exploration of that model.
func verifyGroup(cfg Config, props []Property, opts mc.Options) ([]Verdict, []error) {
	built := cfg
	built.NoMonitor = cfg.NoMonitor || sliced(props[0])
	m, err := Build(built)
	if err != nil {
		errs := make([]error, len(props))
		for i := range errs {
			errs[i] = err
		}
		return make([]Verdict, len(props)), errs
	}
	vs, errs := m.verify(props, opts)
	for i := range vs {
		vs[i].Cfg.NoMonitor = cfg.NoMonitor
	}
	return vs, errs
}

// Verify model-checks one property on an already-built model, monitors and
// all, with its dead clocks stored as 0 and its interchangeable
// participants sorted into one order. R2 and R3 exclude lossy traces by
// premise, so exploration is pruned at the first message loss. A caller's
// opts.Prune and opts.Canon stay in force beside the model's own.
//
//lint:allow unused-export oracle: the symmetric-vs-dead-clock differential checks hand-built models with it (go test -run TestQuotientSymmetryMatchesDeadClocks ./internal/models/)
func (m *Model) Verify(prop Property, opts mc.Options) (Verdict, error) {
	vs, errs := m.verify([]Property{prop}, opts)
	return vs[0], errs[0]
}

// verify checks props on m in one exploration, as Verify checks each; they
// must share the loss prune (all sliced or none).
func (m *Model) verify(props []Property, opts mc.Options) ([]Verdict, []error) {
	verdicts, errs := make([]Verdict, len(props)), make([]error, len(props))
	preds := make([]func(*ta.State) bool, len(props))
	for i, p := range props {
		pred, err := m.Violation(p)
		if err != nil {
			for k := range errs {
				errs[k] = err
			}
			return verdicts, errs
		}
		preds[i] = pred
	}
	res, cerrs := mc.CheckGoals(m.Net, preds, m.reduced(opts, sliced(props[0])))
	for i, p := range props {
		if cerrs[i] != nil {
			errs[i] = fmt.Errorf("checking %v on %v: %w", p, m.Cfg.Variant, cerrs[i])
			continue
		}
		verdicts[i] = Verdict{Cfg: m.Cfg, Property: p, Satisfied: !res[i].Reachable, Result: res[i]}
	}
	return verdicts, errs
}
