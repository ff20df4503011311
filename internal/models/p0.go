package models

import (
	"fmt"
	"slices"

	"repro/internal/alphabet"
	"repro/internal/ta"
)

// buildP0 constructs the coordinator automaton (Figures 3 and 7 of the
// analysis). Its round bookkeeping (per-participant rcvd flags and waiting
// times, the min rule, the halving/two-phase acceleration) lives in shared
// variables so the timeout decision can be expressed as guarded edges from
// the committed Time_Out location.
func (m *Model) buildP0() {
	cfg := m.Cfg
	net := m.Net

	m.p0.waiting = net.Clock("waiting0", cfg.TMax+1)
	m.p0.t = net.Var("t0", cfg.TMax)

	waiting := m.p0.waiting
	tVar := m.p0.t

	a := &ta.Automaton{Name: "P0"}
	m.p0.init = addLoc(a, ta.Location{Name: "Init", Kind: ta.Committed})
	m.p0.alive = addLoc(a, ta.Location{Name: "Alive", Invariant: ta.Invariant{{Then: []ta.Atom{ta.ClkVar(waiting, ta.Le, tVar)}}}})
	m.p0.timeout = addLoc(a, ta.Location{Name: "TimeOut", Kind: ta.Committed})
	m.p0.vInact = addLoc(a, ta.Location{Name: "VInact"})
	m.p0.nvInact = addLoc(a, ta.Location{Name: "NVInact"})
	a.Init = m.p0.init

	// Start-up: the revised protocol beats immediately; the original
	// simply enters the first round.
	if cfg.Variant == RevisedBinary {
		a.Edges = append(a.Edges, ta.Edge{
			From: m.p0.init, To: m.p0.alive,
			Chan: m.chBcast, Send: true,
			Label: alphabet.SendBeat.Of(0),
		})
	} else {
		a.Edges = append(a.Edges, ta.Edge{
			From: m.p0.init, To: m.p0.alive,
			Label: alphabet.Start.Of(0),
		})
	}

	// Voluntary inactivation, any time while alive.
	active0 := m.vActive0
	a.Edges = append(a.Edges, ta.Edge{
		From: m.p0.alive, To: m.p0.vInact,
		Label:  alphabet.Crash.Of(0),
		Assign: []ta.Assign{ta.Set(active0, 0)},
	})

	// Round timeout: forced by the invariant at waiting == t.
	a.Edges = append(a.Edges, ta.Edge{
		From: m.p0.alive, To: m.p0.timeout,
		Guard: ta.Guard{Clocks: []ta.Atom{ta.ClkVar(waiting, ta.Eq, tVar)}},
		Label: alphabet.Timeout.Of(0),
		Class: ta.ClassTimeout,
	})

	// Decision: inactivate when some joined participant's waiting time
	// decayed below tmin, otherwise commit the new round and broadcast.
	decision := append(append(slices.Clone(m.vJnd), m.vTM...), m.vRcvd...)
	a.Edges = append(a.Edges, ta.Edge{
		From: m.p0.timeout, To: m.p0.nvInact,
		Guard: ta.Guard{Pred: func(s *ta.State) bool {
			_, ok := m.timeoutOutcome(s)
			return !ok
		}},
		Footprint: &ta.Footprint{Vars: decision},
		Label:     alphabet.Inactivate.Of(0),
		Assign:    []ta.Assign{ta.Set(active0, 0)},
	})
	a.Edges = append(a.Edges, ta.Edge{
		From: m.p0.timeout, To: m.p0.alive,
		Guard: ta.Guard{Pred: func(s *ta.State) bool {
			_, ok := m.timeoutOutcome(s)
			return ok
		}},
		Chan: m.chBcast, Send: true,
		Label:     alphabet.SendBeat.Of(0),
		Update:    m.applyTimeout,
		Assign:    []ta.Assign{ta.Reset(waiting)},
		Footprint: &ta.Footprint{Vars: decision, WriteVars: append(append([]int{tVar}, m.vTM...), m.vRcvd...)},
	})

	m.p0.aut = len(net.Automata())
	net.Add(a)
}

// wireP0Edges adds p[0]'s receive edges; deferred until all channels
// exist.
func (m *Model) wireP0Edges() {
	a := m.Net.Automata()[m.p0.aut]
	for i := 0; i < m.Cfg.N; i++ {
		i := i
		rcvd, jnd, ever := m.vRcvd[i], m.vJnd[i], m.vEver[i]
		// A true beat from p[i]: mark received (and joined, for the
		// expanding/dynamic protocols).
		a.Edges = append(a.Edges, ta.Edge{
			From: m.p0.alive, To: m.p0.alive,
			Chan: m.chDlvTrue[i],
			Update: func(s *ta.State) {
				if s.Vars[jnd] == 0 {
					// A new member starts with a grace round.
					s.Vars[jnd] = 1
					s.Vars[m.vTM[i]] = m.Cfg.TMax
				}
			},
			Assign:    []ta.Assign{ta.Set(rcvd, 1), ta.Set(ever, 1)},
			Footprint: &ta.Footprint{Vars: []int{jnd}, WriteVars: []int{jnd, m.vTM[i]}},
		})
		// Inactivated processes still receive, without reacting.
		for _, loc := range []int{m.p0.vInact, m.p0.nvInact} {
			a.Edges = append(a.Edges, ta.Edge{
				From: loc, To: loc, Chan: m.chDlvTrue[i],
			})
		}
		if m.Cfg.Variant == Dynamic {
			// A false beat is a leave: forget the member.
			a.Edges = append(a.Edges, ta.Edge{
				From: m.p0.alive, To: m.p0.alive,
				Chan:   m.chDlvFalse[i],
				Assign: []ta.Assign{ta.Set(jnd, 0), ta.Set(rcvd, 0)},
			})
			for _, loc := range []int{m.p0.vInact, m.p0.nvInact} {
				a.Edges = append(a.Edges, ta.Edge{
					From: loc, To: loc, Chan: m.chDlvFalse[i],
				})
			}
		}
	}
}

// addLoc appends a location and returns its index.
func addLoc(a *ta.Automaton, l ta.Location) int {
	a.Locations = append(a.Locations, l)
	return len(a.Locations) - 1
}

// pname renders the conventional process name p[i+1].
func pname(i int) string { return fmt.Sprintf("p[%d]", i+1) }
