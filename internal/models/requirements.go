package models

import (
	"fmt"

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

// R1Violated reports whether any R1 monitor reached its Error location.
func (m *Model) R1Violated(s *ta.State) bool {
	for _, mo := range m.mons {
		if int(s.Locs[mo.aut]) == mo.errLoc {
			return true
		}
	}
	return false
}

// participantOK reports whether participant i cannot legitimately be
// blamed for a network-wide inactivation: it is currently alive, or p[0]
// does not (or no longer) count on it — which covers completed leaves,
// whose false beat clears jnd at p[0]. A process that crashes mid-leave is
// NOT excused: a crash is a crash, and network-wide inactivation is then
// the intended outcome.
func (m *Model) participantOK(s *ta.State, i int) bool {
	return s.Vars[m.vActive[i]] == 1 || s.Vars[m.vJnd[i]] == 0
}

// R2Violated: some participant is non-voluntarily inactivated although no
// message was lost, p[0] is still active, and every other participant is
// alive or excused.
func (m *Model) R2Violated(s *ta.State) bool {
	if s.Vars[m.vLost] == 1 || s.Vars[m.vActive0] != 1 {
		return false
	}
	for i, p := range m.ps {
		if int(s.Locs[p.aut]) != p.nvInact {
			continue
		}
		ok := true
		for j := range m.ps {
			if j != i && !m.participantOK(s, j) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// R3Violated: p[0] is non-voluntarily inactivated although no message was
// lost and every participant is alive or excused.
func (m *Model) R3Violated(s *ta.State) bool {
	if s.Vars[m.vLost] == 1 || int(s.Locs[m.p0.aut]) != m.p0.nvInact {
		return false
	}
	for i := range m.ps {
		if !m.participantOK(s, i) {
			return false
		}
	}
	return true
}

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
