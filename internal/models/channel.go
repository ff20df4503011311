package models

import (
	"repro/internal/alphabet"
	"repro/internal/ta"
)

// buildChannel constructs the pair channel between p[0] and p[i+1]
// (Figure 5 of the analysis, reconstructed input-enabled — see the
// package comment). One clock carries the shared round-trip budget: it is
// reset when p[0]'s beat enters the channel and keeps running through the
// reply leg, so the forward delay plus the reply delay never exceeds tmin,
// exactly the papers' "tmin is an upper bound on the round-trip delay".
func (m *Model) buildChannel(i int) {
	cfg := m.Cfg
	net := m.Net
	tmin := cfg.TMin
	rt := net.Clock("rt_"+pname(i), tmin+1)
	jnd := m.vJnd[i]
	active := m.vActive[i]
	lose := []ta.Assign{ta.Set(m.vLost, 1)}
	dynamic := cfg.Variant == Dynamic

	var c chanRefs
	c.rt = rt
	a := &ta.Automaton{Name: "Ch" + pname(i)}
	budget := ta.Invariant{{Then: []ta.Atom{ta.Clk(rt, ta.Le, tmin)}}}
	c.idle = addLoc(a, ta.Location{Name: "Idle"})
	c.fly = addLoc(a, ta.Location{Name: "Fwd", Invariant: budget})
	// Await is transient within an instant: p[i] either replies from its
	// committed Rcvd location or, being inactive, never will.
	c.await = addLoc(a, ta.Location{Name: "Await", Kind: ta.Urgent})
	c.replyTrue = addLoc(a, ta.Location{Name: "Reply", Invariant: budget})
	c.replyFalse = -1
	if dynamic {
		c.replyFalse = addLoc(a, ta.Location{Name: "ReplyFalse", Invariant: budget})
	}
	a.Init = c.idle

	// Accept p[0]'s broadcast for joined members; the budget starts now.
	member := ta.Guard{Vars: []ta.Lit{ta.Is(jnd, 1)}}
	a.Edges = append(a.Edges, ta.Edge{
		From: c.idle, To: c.fly,
		Chan:   m.chBcast,
		Guard:  member,
		Assign: []ta.Assign{ta.Reset(rt)},
	})
	// Forward leg: deliver to p[i] (keeping the budget running), or lose.
	a.Edges = append(a.Edges, m.leg(c.fly, c.await, c.idle, m.chDlv[i], alphabet.DeliverBeat.Of(i+1), alphabet.LoseBeatTo.Of(i+1))...)
	// The reply, if any, arrives in the same instant as the delivery.
	a.Edges = append(a.Edges,
		ta.Edge{From: c.await, To: c.replyTrue, Chan: m.chReply[i]},
		ta.Edge{
			From: c.await, To: c.idle,
			Guard: ta.Guard{Vars: []ta.Lit{ta.Is(active, 0)}},
			Label: alphabet.NoReply.Of(i + 1),
		},
	)
	if dynamic {
		a.Edges = append(a.Edges, ta.Edge{
			From: c.await, To: c.replyFalse, Chan: m.chReplyFalse[i],
		})
	}
	// Reply leg: deliver to p[0] within the remaining budget, or lose.
	a.Edges = append(a.Edges, m.leg(c.replyTrue, c.idle, c.idle, m.chDlvTrue[i], alphabet.DeliverBeatP0.Of(i+1), alphabet.LoseBeatFrom.Of(i+1))...)
	if dynamic {
		a.Edges = append(a.Edges, m.leg(c.replyFalse, c.idle, c.idle, m.chDlvFalse[i], alphabet.DeliverLeaveP0.Of(i+1), alphabet.LoseLeaveFrom.Of(i+1))...)
	}
	// Input-enabledness: a beat arriving while the channel is busy is
	// dropped and recorded as a loss (see the package comment for why
	// this is sound for R1–R3).
	busy := []int{c.fly, c.await, c.replyTrue}
	if dynamic {
		busy = append(busy, c.replyFalse)
	}
	for _, loc := range busy {
		a.Edges = append(a.Edges, ta.Edge{
			From: loc, To: loc,
			Chan:   m.chBcast,
			Guard:  member,
			Assign: lose,
		})
	}

	c.aut = len(net.Automata())
	net.Add(a)
	m.chs = append(m.chs, c)
	b := &m.blocks[i]
	b.auts, b.clocks = append(b.auts, c.aut), append(b.clocks, rt)
}

// buildJoinChannel carries p[i+1]'s solicitations to p[0]. Its delay is
// bounded by tmax, not tmin: the papers' round-trip budget applies to
// exchanges initiated by p[0], and the analysis' Figure 13 counter-example
// depends on a solicitation arriving a full round after it was sent
// ("received at p[0] right after the first time-out"). The channel holds
// one solicitation at a time; the joiner suppresses re-solicitation while
// one is outstanding (solicitations are idempotent), so overlap never
// counts as message loss.
func (m *Model) buildJoinChannel(i int) {
	cfg := m.Cfg
	net := m.Net
	bound := cfg.TMax
	rt := net.Clock("rtj_"+pname(i), bound+1)

	var c joinChanRefs
	c.rt = rt
	a := &ta.Automaton{Name: "JoinCh" + pname(i)}
	c.idle = addLoc(a, ta.Location{Name: "Idle"})
	c.fly = addLoc(a, ta.Location{Name: "Fwd", Invariant: ta.Invariant{{Then: []ta.Atom{ta.Clk(rt, ta.Le, bound)}}}})
	a.Init = c.idle

	a.Edges = append(a.Edges, ta.Edge{
		From: c.idle, To: c.fly,
		Chan:   m.chJoin[i],
		Assign: []ta.Assign{ta.Reset(rt)},
	})
	a.Edges = append(a.Edges, m.leg(c.fly, c.idle, c.idle, m.chDlvTrue[i], alphabet.DeliverJoinP0.Of(i+1), alphabet.LoseJoinFrom.Of(i+1))...)
	c.aut = len(net.Automata())
	net.Add(a)
	m.jchs = append(m.jchs, c)
	b := &m.blocks[i]
	b.auts, b.clocks = append(b.auts, c.aut), append(b.clocks, rt)
}

// leg returns a channel's two ways out of location from: delivering on ch
// into location to, or losing the message back to idle, which raises
// lostMsg.
func (m *Model) leg(from, to, idle int, ch ta.ChanID, deliver, lost alphabet.Label) []ta.Edge {
	return []ta.Edge{
		{From: from, To: to, Chan: ch, Send: true, Label: deliver, Class: ta.ClassDeliver},
		{From: from, To: idle, Label: lost, Assign: []ta.Assign{ta.Set(m.vLost, 1)}},
	}
}
