package models

import (
	"repro/internal/alphabet"
	"repro/internal/ta"
)

// buildParticipant constructs p[i+1]: a responder (Figure 4) for the
// binary/static variants, or a joiner (Figures 6 and 8) for the
// expanding/dynamic variants.
func (m *Model) buildParticipant(i int) {
	if m.Cfg.binaryFamily() {
		m.buildResponder(i)
	} else {
		m.buildJoiner(i)
	}
}

// buildResponder is Figure 4: reply immediately, inactivate after the
// watchdog bound without a beat.
func (m *Model) buildResponder(i int) {
	cfg := m.Cfg
	net := m.Net
	bound := cfg.responderBound()
	wfb := net.Clock("wfb_"+pname(i), bound+1)

	p := piRefs{start: -1, wfb: wfb, wtj: -1}
	a := &ta.Automaton{Name: "P" + pname(i)}
	p.alive = addLoc(a, ta.Location{Name: "Alive", Invariant: ta.Invariant{{Then: []ta.Atom{ta.Clk(wfb, ta.Le, bound)}}}})
	p.rcvd = addLoc(a, ta.Location{Name: "Rcvd", Kind: ta.Committed})
	p.vInact = addLoc(a, ta.Location{Name: "VInact"})
	p.nvInact = addLoc(a, ta.Location{Name: "NVInact"})
	a.Init = p.alive

	active := m.vActive[i]
	a.Edges = append(a.Edges,
		// Delivery of p[0]'s beat.
		ta.Edge{From: p.alive, To: p.rcvd, Chan: m.chDlv[i]},
		// Immediate reply, pushing out the watchdog.
		ta.Edge{
			From: p.rcvd, To: p.alive,
			Chan: m.chReply[i], Send: true,
			Label:  alphabet.SendBeat.Of(i + 1),
			Assign: []ta.Assign{ta.Reset(wfb)},
		},
		// Watchdog expiry.
		ta.Edge{
			From: p.alive, To: p.nvInact,
			Guard:  ta.Guard{Clocks: []ta.Atom{ta.Clk(wfb, ta.Eq, bound)}},
			Label:  alphabet.Inactivate.Of(i + 1),
			Assign: []ta.Assign{ta.Set(active, 0)},
			Class:  ta.ClassTimeout,
		},
	)
	m.addParticipant(i, a, p)
	m.blocks[i].clocks = append(m.blocks[i].clocks, wfb)
}

// addParticipant completes participant i's automaton a with what every
// participant ends with — voluntary inactivation, and inactive locations
// that receive without reacting — and adds it to the network.
func (m *Model) addParticipant(i int, a *ta.Automaton, p piRefs) {
	a.Edges = append(a.Edges,
		ta.Edge{
			From: p.alive, To: p.vInact,
			Label:  alphabet.Crash.Of(i + 1),
			Assign: []ta.Assign{ta.Set(m.vActive[i], 0)},
		},
		ta.Edge{From: p.vInact, To: p.vInact, Chan: m.chDlv[i]},
		ta.Edge{From: p.nvInact, To: p.nvInact, Chan: m.chDlv[i]},
	)
	p.aut = len(m.Net.Automata())
	m.Net.Add(a)
	m.ps = append(m.ps, p)
	m.blocks[i].auts = append(m.blocks[i].auts, p.aut)
}

// buildJoiner is Figure 6 (expanding) / Figure 8 (dynamic): solicit every
// tmin until acknowledged, then respond; dynamically, optionally decide to
// leave, conveyed by a false reply, after which non-voluntary inactivation
// is disabled.
func (m *Model) buildJoiner(i int) {
	cfg := m.Cfg
	net := m.Net
	dynamic := cfg.Variant == Dynamic
	jb := cfg.joinerBound()
	rb := cfg.responderBound()
	wfb := net.Clock("wfb_"+pname(i), max(jb, rb)+1)
	wtj := net.Clock("wtj_"+pname(i), cfg.TMin+1)
	joined := net.Var("joined_"+pname(i), 0)
	active := m.vActive[i]
	leave := m.vLeave[i]

	p := piRefs{wfb: wfb, wtj: wtj}
	a := &ta.Automaton{Name: "P" + pname(i)}
	p.start = addLoc(a, ta.Location{Name: "Start", Kind: ta.Urgent})
	// Leaving processes are exempt from the watchdog.
	var staying []ta.Lit
	if dynamic {
		staying = []ta.Lit{ta.IsNot(leave, 1)}
	}
	// watchdog compares wfb by op with the joiner bound before joining, and
	// with the responder bound after.
	watchdog := func(wantJoined bool, op ta.Op) ta.Case {
		if wantJoined {
			return ta.Case{When: append(staying, ta.Is(joined, 1)), Then: []ta.Atom{ta.Clk(wfb, op, rb)}}
		}
		return ta.Case{When: append(staying, ta.IsNot(joined, 1)), Then: []ta.Atom{ta.Clk(wfb, op, jb)}}
	}
	p.alive = addLoc(a, ta.Location{Name: "Alive", Invariant: ta.Invariant{
		// Unjoined: next solicitation is due within tmin.
		{When: []ta.Lit{ta.Is(joined, 0)}, Then: []ta.Atom{ta.Clk(wtj, ta.Le, cfg.TMin)}},
		watchdog(true, ta.Le),
		watchdog(false, ta.Le),
	}})
	p.rcvd = addLoc(a, ta.Location{Name: "Rcvd", Kind: ta.Committed})
	p.vInact = addLoc(a, ta.Location{Name: "VInact"})
	p.nvInact = addLoc(a, ta.Location{Name: "NVInact"})
	a.Init = p.start

	// Initial solicitation: the start location is urgent (Figure 6), so
	// the process cannot abstain by idling.
	a.Edges = append(a.Edges, ta.Edge{
		From: p.start, To: p.alive,
		Chan: m.chJoin[i], Send: true,
		Label:  alphabet.SendJoin.Of(i + 1),
		Assign: []ta.Assign{ta.Reset(wtj), ta.Reset(wfb)},
	})
	// Re-solicit every tmin while unjoined — unless the previous
	// solicitation is still in flight, in which case the duplicate is
	// suppressed (solicitations are idempotent; see buildJoinChannel).
	jch := m.jchs[i]
	resolicit := func(idle bool) ta.Guard {
		return ta.Guard{
			Vars:   []ta.Lit{ta.Is(joined, 0)},
			Clocks: []ta.Atom{ta.Clk(wtj, ta.Eq, cfg.TMin)},
			Pred:   func(s *ta.State) bool { return (int(s.Locs[jch.aut]) == jch.idle) == idle },
		}
	}
	jchRead := &ta.Footprint{Locs: []int{jch.aut}}
	a.Edges = append(a.Edges,
		ta.Edge{
			From: p.alive, To: p.alive,
			Guard:     resolicit(true),
			Footprint: jchRead,
			Chan:      m.chJoin[i], Send: true,
			Label:  alphabet.SendJoin.Of(i + 1),
			Assign: []ta.Assign{ta.Reset(wtj)},
		},
		ta.Edge{
			From: p.alive, To: p.alive,
			Guard:     resolicit(false),
			Footprint: jchRead,
			Label:     alphabet.SuppressJoin.Of(i + 1),
			Assign:    []ta.Assign{ta.Reset(wtj)},
		},
	)
	// Delivery of p[0]'s beat acknowledges the join.
	a.Edges = append(a.Edges, ta.Edge{
		From: p.alive, To: p.rcvd, Chan: m.chDlv[i],
		Assign: []ta.Assign{ta.Set(joined, 1)},
	})
	// Reply: a true beat normally, a false beat when leaving.
	reply := ta.Edge{
		From: p.rcvd, To: p.alive,
		Chan: m.chReply[i], Send: true,
		Label:  alphabet.SendBeat.Of(i + 1),
		Assign: []ta.Assign{ta.Reset(wfb)},
	}
	if !dynamic {
		a.Edges = append(a.Edges, reply)
	} else {
		reply.Guard = ta.Guard{Vars: []ta.Lit{ta.Is(leave, 0)}}
		a.Edges = append(a.Edges, reply, ta.Edge{
			From: p.rcvd, To: p.alive,
			Guard: ta.Guard{Vars: []ta.Lit{ta.Is(leave, 1)}},
			Chan:  m.chReplyFalse[i], Send: true,
			Label:  alphabet.SendLeave.Of(i + 1),
			Assign: []ta.Assign{ta.Reset(wfb)},
		})
		// The decision to leave, any time after joining.
		a.Edges = append(a.Edges, ta.Edge{
			From: p.alive, To: p.alive,
			Guard:  ta.Guard{Vars: []ta.Lit{ta.Is(joined, 1), ta.Is(leave, 0)}},
			Label:  alphabet.DecideLeave.Of(i + 1),
			Assign: []ta.Assign{ta.Set(leave, 1)},
		})
	}
	// Watchdog expiry.
	for _, j := range []bool{false, true} {
		w := watchdog(j, ta.Eq)
		a.Edges = append(a.Edges, ta.Edge{
			From: p.alive, To: p.nvInact,
			Guard:  ta.Guard{Vars: w.When, Clocks: w.Then},
			Label:  alphabet.Inactivate.Of(i + 1),
			Assign: []ta.Assign{ta.Set(active, 0)},
			Class:  ta.ClassTimeout,
		})
	}
	m.addParticipant(i, a, p)
	b := &m.blocks[i]
	b.vars, b.clocks = append(b.vars, joined), append(b.clocks, wfb, wtj)
}
