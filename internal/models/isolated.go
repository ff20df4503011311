package models

import (
	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/ta"
)

// isolated holds the isolated processes to the constants the full binary
// model accepts, since they declare the same clocks with the same caps, and
// returns the original binary protocol's timing rules at those constants.
func isolated(tmin, tmax int32) (core.Config, error) {
	cfg := Config{TMin: tmin, TMax: tmax, Variant: Binary, N: 1, NoMonitor: true}
	return cfg.Core(), cfg.Validate()
}

// BuildIsolatedP0 builds p[0] of the binary protocol composed with a
// chaotic environment that consumes its beats and may deliver a beat from
// p[1] at any time — the closed-system rendering of the open process
// semantics used for Figure 1 of the analysis (p[0]'s own transition
// system). Labels match the figure: tick, receive/send beats, timeout,
// voluntary and non-voluntary inactivation.
func BuildIsolatedP0(tmin, tmax int32) (*ta.Network, error) {
	cc, err := isolated(tmin, tmax)
	if err != nil {
		return nil, err
	}
	net := ta.NewNetwork()
	waiting := net.Clock("waiting", tmax+1)
	t := net.Var("t", tmax)
	rcvd := net.Var("rcvd", 1)

	p0 := &ta.Automaton{Name: "P0"}
	alive := addLoc(p0, ta.Location{Name: "Alive", Invariant: ta.Invariant{{Then: []ta.Atom{ta.ClkVar(waiting, ta.Le, t)}}}})
	timeout := addLoc(p0, ta.Location{Name: "TimeOut", Kind: ta.Committed})
	vInact := addLoc(p0, ta.Location{Name: "VInact"})
	nvInact := addLoc(p0, ta.Location{Name: "NVInact"})
	p0.Init = alive

	rcv := net.Chan("rcv_hb1", false)
	snd := net.Chan("snd_hb0", false)
	// next is the acceleration rule at a timeout: the round length p[0]
	// moves to, and whether it stays active.
	next := func(s *ta.State) (int32, bool) {
		w, ok := cc.NextWait(core.Tick(s.Vars[t]), s.Vars[rcvd] == 1)
		return int32(w), ok
	}

	p0.Edges = append(p0.Edges,
		ta.Edge{From: alive, To: vInact, Label: alphabet.FigVInactivate.Of(0)},
		ta.Edge{
			From: alive, To: alive, Chan: rcv,
			Assign: []ta.Assign{ta.Set(rcvd, 1)},
		},
		ta.Edge{From: vInact, To: vInact, Chan: rcv},
		ta.Edge{From: nvInact, To: nvInact, Chan: rcv},
		ta.Edge{
			From: alive, To: timeout,
			Guard: ta.Guard{Clocks: []ta.Atom{ta.ClkVar(waiting, ta.Eq, t)}},
			Label: alphabet.FigTimeout.Of(0),
		},
		ta.Edge{
			From: timeout, To: alive,
			Guard: ta.Guard{Pred: func(s *ta.State) bool { _, ok := next(s); return ok }},
			Chan:  snd, Send: true,
			Label:     alphabet.Label{Kind: alphabet.FigBeatFor, A: 1, B: 0},
			Update:    func(s *ta.State) { s.Vars[t], _ = next(s) },
			Assign:    []ta.Assign{ta.Set(rcvd, 0), ta.Reset(waiting)},
			Footprint: &ta.Footprint{Vars: []int{t, rcvd}, WriteVars: []int{t}},
		},
		ta.Edge{
			From: timeout, To: nvInact,
			Guard:     ta.Guard{Pred: func(s *ta.State) bool { _, ok := next(s); return !ok }},
			Footprint: &ta.Footprint{Vars: []int{t, rcvd}},
			Label:     alphabet.FigNVInactivate.Of(0),
		},
	)
	net.Add(p0)
	addChaoticPeer(net, rcv, snd, alphabet.Label{Kind: alphabet.FigBeatFrom, A: 1, B: 1})
	return net, nil
}

// BuildIsolatedP1 builds p[1] of the binary protocol against a chaotic
// environment, for Figure 2 of the analysis.
func BuildIsolatedP1(tmin, tmax int32) (*ta.Network, error) {
	cc, err := isolated(tmin, tmax)
	if err != nil {
		return nil, err
	}
	net := ta.NewNetwork()
	bound := int32(cc.ResponderBound())
	wfb := net.Clock("waitingforbeat", bound+1)

	p1 := &ta.Automaton{Name: "P1"}
	alive := addLoc(p1, ta.Location{Name: "Alive", Invariant: ta.Invariant{{Then: []ta.Atom{ta.Clk(wfb, ta.Le, bound)}}}})
	rcvd := addLoc(p1, ta.Location{Name: "Rcvd", Kind: ta.Committed})
	vInact := addLoc(p1, ta.Location{Name: "VInact"})
	nvInact := addLoc(p1, ta.Location{Name: "NVInact"})
	p1.Init = alive

	rcv := net.Chan("rcv_hb0", false)
	snd := net.Chan("snd_hb1", false)

	p1.Edges = append(p1.Edges,
		ta.Edge{From: alive, To: vInact, Label: alphabet.FigVInactivate.Of(1)},
		ta.Edge{From: alive, To: rcvd, Chan: rcv},
		ta.Edge{
			From: rcvd, To: alive, Chan: snd, Send: true,
			Label:  alphabet.Label{Kind: alphabet.FigBeatFor, A: 0, B: 1},
			Assign: []ta.Assign{ta.Reset(wfb)},
		},
		ta.Edge{
			From: alive, To: nvInact,
			Guard: ta.Guard{Clocks: []ta.Atom{ta.Clk(wfb, ta.Eq, bound)}},
			Label: alphabet.FigNVInactivate.Of(1),
		},
		ta.Edge{From: vInact, To: vInact, Chan: rcv},
		ta.Edge{From: nvInact, To: nvInact, Chan: rcv},
	)
	net.Add(p1)
	addChaoticPeer(net, rcv, snd, alphabet.Label{Kind: alphabet.FigBeatFrom, A: 0, B: 0})
	return net, nil
}

// addChaoticPeer adds an environment automaton that may send on rcv at any
// time and always accepts snd — the most general context, so the composed
// system's behaviour is exactly the process's own.
func addChaoticPeer(net *ta.Network, rcv, snd ta.ChanID, rcvLabel alphabet.Label) {
	env := &ta.Automaton{Name: "Env"}
	idle := addLoc(env, ta.Location{Name: "Chaos"})
	env.Init = idle
	env.Edges = append(env.Edges,
		ta.Edge{From: idle, To: idle, Chan: rcv, Send: true, Label: rcvLabel},
		ta.Edge{From: idle, To: idle, Chan: snd},
	)
	net.Add(env)
}
