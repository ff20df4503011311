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

	var p piRefs
	p.start = -1
	p.wfb = wfb
	p.wtj = -1
	a := &ta.Automaton{Name: "P" + pname(i)}
	p.alive = addLoc(a, ta.Location{
		Name:      "Alive",
		Invariant: func(s *ta.State) bool { return s.Clocks[wfb] <= bound },
	})
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
			Update: func(s *ta.State) { s.Clocks[wfb] = 0 },
		},
		// Watchdog expiry.
		ta.Edge{
			From: p.alive, To: p.nvInact,
			Guard:  func(s *ta.State) bool { return s.Clocks[wfb] == bound },
			Label:  alphabet.Inactivate.Of(i + 1),
			Update: func(s *ta.State) { s.Vars[active] = 0 },
			Class:  ta.ClassTimeout,
		},
		// Voluntary inactivation.
		ta.Edge{
			From: p.alive, To: p.vInact,
			Label:  alphabet.Crash.Of(i + 1),
			Update: func(s *ta.State) { s.Vars[active] = 0 },
		},
		// Inactivated processes receive without reacting.
		ta.Edge{From: p.vInact, To: p.vInact, Chan: m.chDlv[i]},
		ta.Edge{From: p.nvInact, To: p.nvInact, Chan: m.chDlv[i]},
	)
	p.aut = len(net.Automata())
	net.Add(a)
	m.ps = append(m.ps, p)
	// An inactivated process never leaves its location and watches nothing.
	m.dead = append(m.dead, deadClock{clock: wfb, aut: p.aut, locs: locSet(p.vInact, p.nvInact), v: noVar})
	b := &m.blocks[i]
	b.auts, b.clocks = append(b.auts, p.aut), append(b.clocks, wfb)
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
	maxBound := jb
	if rb > maxBound {
		maxBound = rb
	}
	wfb := net.Clock("wfb_"+pname(i), maxBound+1)
	wtj := net.Clock("wtj_"+pname(i), cfg.TMin+1)
	joined := net.Var("joined_"+pname(i), 0)
	active := m.vActive[i]
	leave := m.vLeave[i]

	var p piRefs
	p.wfb = wfb
	p.wtj = wtj
	a := &ta.Automaton{Name: "P" + pname(i)}
	p.start = addLoc(a, ta.Location{Name: "Start", Kind: ta.Urgent})
	p.alive = addLoc(a, ta.Location{
		Name: "Alive",
		Invariant: func(s *ta.State) bool {
			// Unjoined: next solicitation is due within tmin.
			if s.Vars[joined] == 0 && s.Clocks[wtj] > cfg.TMin {
				return false
			}
			// Leaving processes are exempt from the watchdog.
			if dynamic && s.Vars[leave] == 1 {
				return true
			}
			if s.Vars[joined] == 1 {
				return s.Clocks[wfb] <= rb
			}
			return s.Clocks[wfb] <= jb
		},
	})
	p.rcvd = addLoc(a, ta.Location{Name: "Rcvd", Kind: ta.Committed})
	p.vInact = addLoc(a, ta.Location{Name: "VInact"})
	p.nvInact = addLoc(a, ta.Location{Name: "NVInact"})
	a.Init = p.start

	// Initial solicitation: the start location is urgent (Figure 6), so
	// the process cannot abstain by idling.
	a.Edges = append(a.Edges, ta.Edge{
		From: p.start, To: p.alive,
		Chan: m.chJoin[i], Send: true,
		Label: alphabet.SendJoin.Of(i + 1),
		Update: func(s *ta.State) {
			s.Clocks[wtj] = 0
			s.Clocks[wfb] = 0
		},
	})
	// Re-solicit every tmin while unjoined — unless the previous
	// solicitation is still in flight, in which case the duplicate is
	// suppressed (solicitations are idempotent; see buildJoinChannel).
	jch := m.jchs[i]
	jchIdle := func(s *ta.State) bool { return int(s.Locs[jch.aut]) == jch.idle }
	a.Edges = append(a.Edges,
		ta.Edge{
			From: p.alive, To: p.alive,
			Guard: func(s *ta.State) bool {
				return s.Vars[joined] == 0 && s.Clocks[wtj] == cfg.TMin && jchIdle(s)
			},
			Chan: m.chJoin[i], Send: true,
			Label:  alphabet.SendJoin.Of(i + 1),
			Update: func(s *ta.State) { s.Clocks[wtj] = 0 },
		},
		ta.Edge{
			From: p.alive, To: p.alive,
			Guard: func(s *ta.State) bool {
				return s.Vars[joined] == 0 && s.Clocks[wtj] == cfg.TMin && !jchIdle(s)
			},
			Label:  alphabet.SuppressJoin.Of(i + 1),
			Update: func(s *ta.State) { s.Clocks[wtj] = 0 },
		},
	)
	// Delivery of p[0]'s beat acknowledges the join.
	a.Edges = append(a.Edges, ta.Edge{
		From: p.alive, To: p.rcvd, Chan: m.chDlv[i],
		Update: func(s *ta.State) { s.Vars[joined] = 1 },
	})
	// Reply: a true beat normally, a false beat when leaving.
	replyGuard := func(wantLeave bool) ta.Guard {
		return func(s *ta.State) bool {
			if !dynamic {
				return !wantLeave
			}
			return (s.Vars[leave] == 1) == wantLeave
		}
	}
	a.Edges = append(a.Edges, ta.Edge{
		From: p.rcvd, To: p.alive,
		Guard: replyGuard(false),
		Chan:  m.chReply[i], Send: true,
		Label:  alphabet.SendBeat.Of(i + 1),
		Update: func(s *ta.State) { s.Clocks[wfb] = 0 },
	})
	if dynamic {
		a.Edges = append(a.Edges, ta.Edge{
			From: p.rcvd, To: p.alive,
			Guard: replyGuard(true),
			Chan:  m.chReplyFalse[i], Send: true,
			Label:  alphabet.SendLeave.Of(i + 1),
			Update: func(s *ta.State) { s.Clocks[wfb] = 0 },
		})
		// The decision to leave, any time after joining.
		a.Edges = append(a.Edges, ta.Edge{
			From: p.alive, To: p.alive,
			Guard: func(s *ta.State) bool {
				return s.Vars[joined] == 1 && s.Vars[leave] == 0
			},
			Label:  alphabet.DecideLeave.Of(i + 1),
			Update: func(s *ta.State) { s.Vars[leave] = 1 },
		})
	}
	// Watchdog expiry: before joining at the joiner bound, after joining
	// at the responder bound; leaving processes are exempt.
	expiry := func(wantJoined bool, bound int32) ta.Edge {
		return ta.Edge{
			From: p.alive, To: p.nvInact,
			Guard: func(s *ta.State) bool {
				if dynamic && s.Vars[leave] == 1 {
					return false
				}
				return (s.Vars[joined] == 1) == wantJoined && s.Clocks[wfb] == bound
			},
			Label:  alphabet.Inactivate.Of(i + 1),
			Update: func(s *ta.State) { s.Vars[active] = 0 },
			Class:  ta.ClassTimeout,
		}
	}
	a.Edges = append(a.Edges, expiry(false, jb), expiry(true, rb))
	// Voluntary inactivation and receptive inactive states.
	a.Edges = append(a.Edges,
		ta.Edge{
			From: p.alive, To: p.vInact,
			Label:  alphabet.Crash.Of(i + 1),
			Update: func(s *ta.State) { s.Vars[active] = 0 },
		},
		ta.Edge{From: p.vInact, To: p.vInact, Chan: m.chDlv[i]},
		ta.Edge{From: p.nvInact, To: p.nvInact, Chan: m.chDlv[i]},
	)
	p.aut = len(net.Automata())
	net.Add(a)
	m.ps = append(m.ps, p)
	// An inactivated process never leaves its location and watches
	// nothing. While it lives, the solicitation timer is read only under
	// joined = 0 and joined never falls back; the watchdog is waived under
	// leave = 1 and leave never falls back (leave is noVar outside the
	// dynamic protocol).
	inact := locSet(p.vInact, p.nvInact)
	m.dead = append(m.dead,
		deadClock{clock: wtj, aut: p.aut, locs: inact, v: joined, val: 1},
		deadClock{clock: wfb, aut: p.aut, locs: inact, v: leave, val: 1})
	b := &m.blocks[i]
	b.auts, b.vars, b.clocks = append(b.auts, p.aut), append(b.vars, joined), append(b.clocks, wfb, wtj)
}
