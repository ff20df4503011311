package models

import (
	"fmt"
	"slices"

	"repro/internal/alphabet"
	"repro/internal/mc"
	"repro/internal/ta"
)

// The shutdown monitor checks the 1998 paper's headline goal (§1 of the
// analysis): "if one or more processes ever choose to become inactive,
// then all processes in the network eventually become inactive" — made
// checkable as a bounded-inevitability property: within ShutdownBound
// ticks of the first voluntary inactivation, no process is still active
// (gracefully departed dynamic participants are exempt; leaving is not a
// fault).

// ShutdownBound returns a sound bound for the timely-shutdown property.
// Worst chain: a beat from the crashed member may still be in flight
// (up to tmin on a reply channel, up to tmax for a solicitation), the
// coordinator's detection runs from that last receipt, its final beats
// take up to tmin to land, and the surviving participants' watchdogs
// expire a responder bound later. A crashed coordinator needs only the
// last two terms, so the sum covers both directions.
func (c Config) ShutdownBound() int32 {
	inflight := c.TMin
	if c.joinPhase() {
		inflight = c.TMax // solicitations are bounded by tmax, not tmin
	}
	return inflight + int32(c.Core().CoordinatorDetectionBound()) + c.TMin + c.responderBound()
}

// ShutdownModel wraps a Model with the shutdown monitor attached.
type ShutdownModel struct {
	*Model
	monAut   int
	errLoc   int
	vCrashed int
}

// BuildWithShutdownMonitor builds the protocol model plus a monitor that
// errors when, bound ticks after the first voluntary inactivation, some
// process is still active (and, for dynamic, has not left).
func BuildWithShutdownMonitor(cfg Config, bound int32) (*ShutdownModel, error) {
	if bound < 1 || bound > ta.MaxClockCap-2 {
		return nil, fmt.Errorf("%w: shutdown bound must be in 1..%d", ErrConfig, ta.MaxClockCap-2)
	}
	m, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	sm := &ShutdownModel{Model: m}
	net := m.Net

	sm.vCrashed = net.Var("crashed", 0)
	clock := net.Clock("shutdown_delay", bound+2)

	// Arm the monitor when a crash concerns the network: p[0] crashing,
	// a joined participant crashing, or a beat from an already-crashed
	// process being delivered (the delivery is what creates the doomed
	// membership — a process whose only solicitation was lost was never
	// part of the network, and p[0] rightly runs on without it).
	crashed := sm.vCrashed
	arming := ta.ClockVar{Clock: clock, Var: crashed}
	// instrument arms the monitor on e, unless it is armed already, when
	// variable when holds want, and widens e's footprint by what that reads
	// and writes.
	instrument := func(e *ta.Edge, when int, want int32) {
		prev, f := e.Update, ta.Footprint{}
		if e.Footprint != nil {
			f = *e.Footprint
		}
		f.Vars = append(slices.Clip(f.Vars), crashed, when)
		f.WriteVars = append(slices.Clip(f.WriteVars), crashed)
		f.WriteClocks = append(slices.Clip(f.WriteClocks), clock)
		f.Resets = append(slices.Clip(f.Resets), arming)
		e.Footprint = &f
		e.Update = func(s *ta.State) {
			arm := s.Vars[crashed] == 0 && s.Vars[when] == want // before prev mutates
			if prev != nil {
				prev(s)
			}
			if arm {
				s.Vars[crashed], s.Clocks[clock] = 1, 0
			}
		}
	}
	for _, a := range net.Automata() {
		for ei := range a.Edges {
			e := &a.Edges[ei]
			switch {
			case e.Label.Kind != alphabet.Crash:
			case e.Label.A == 0: // always
				instrument(e, crashed, 0)
			default: // participant p[A], which is m.ps[A-1]
				instrument(e, m.vJnd[e.Label.A-1], 1)
			}
		}
	}
	// Deliveries from already-crashed participants arm the monitor too.
	p0aut := net.Automata()[m.p0.aut]
	for ei := range p0aut.Edges {
		e := &p0aut.Edges[ei]
		for i := range m.ps {
			if e.Chan == m.chDlvTrue[i] && e.From == m.p0.alive {
				instrument(e, m.vActive[i], 0)
			}
		}
	}

	// wronglyLive characterises an incomplete shutdown: either p[0] still
	// counts a dead member (it must wind down), or p[0] is gone and some
	// non-leaving participant is still up (its watchdog must fire). A
	// crash that the network never admitted — or that completed its
	// graceful leave before anyone noticed — obliges nobody.
	wronglyLive := func(s *ta.State) bool {
		if s.Vars[m.vActive0] == 1 {
			for i := range m.ps {
				if s.Vars[m.vJnd[i]] == 1 && s.Vars[m.vActive[i]] == 0 {
					return true
				}
			}
			return false
		}
		for i := range m.ps {
			if s.Vars[m.vActive[i]] != 1 {
				continue
			}
			if m.Cfg.Variant == Dynamic && s.Vars[m.vLeave[i]] == 1 {
				continue // graceful leavers are exempt
			}
			return true
		}
		return false
	}

	mon := &ta.Automaton{Name: "ShutdownMon"}
	watch := addLoc(mon, ta.Location{Name: "Watch"})
	sm.errLoc = addLoc(mon, ta.Location{Name: "Error"})
	mon.Init = watch
	live := append(append([]int{m.vActive0}, m.vJnd...), m.vActive...)
	if m.Cfg.Variant == Dynamic {
		live = append(live, m.vLeave...)
	}
	mon.Edges = append(mon.Edges, ta.Edge{
		From: watch, To: sm.errLoc,
		Guard:     ta.Guard{Vars: []ta.Lit{ta.Is(crashed, 1)}, Clocks: []ta.Atom{ta.Clk(clock, ta.Gt, bound)}, Pred: wronglyLive},
		Footprint: &ta.Footprint{Vars: live},
		Label:     alphabet.ErrorShutdown.Of(0),
	})
	sm.monAut = len(net.Automata())
	net.Add(mon)
	m.dead, m.observers = net.DeadClocks(), net.Observers()
	return sm, nil
}

// Violated reports whether the shutdown monitor reached Error.
//
//lint:allow unused-export experiment G: go test -bench BenchmarkShutdownGoal -benchtime 1x .
func (sm *ShutdownModel) Violated(s *ta.State) bool {
	return int(s.Locs[sm.monAut]) == sm.errLoc
}

// VerifyShutdown builds the model with the shutdown monitor in place of
// the R1 monitors, which the property never reads, and checks it on the
// quotient Verify explores for R2 and R3: the monitor is global, so the
// participants stay interchangeable. Satisfied means every
// reachable post-crash configuration winds the whole network down within
// the bound.
//
//lint:allow unused-export experiment G: go test -bench BenchmarkShutdownGoal -benchtime 1x .
func VerifyShutdown(cfg Config, bound int32, opts mc.Options) (Verdict, error) {
	if err := cfg.Validate(); err != nil {
		return Verdict{}, err
	}
	sliced := cfg
	sliced.NoMonitor = true
	sm, err := BuildWithShutdownMonitor(sliced, bound)
	if err != nil {
		return Verdict{}, err
	}
	res, err := mc.CheckReachability(sm.Net, sm.Violated, reduced(opts, sm.canon, nil))
	if err != nil {
		return Verdict{}, fmt.Errorf("checking shutdown on %v: %w", cfg.Variant, err)
	}
	return Verdict{Cfg: cfg, Satisfied: !res.Reachable, Result: res}, nil
}
