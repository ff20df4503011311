package models

import (
	"repro/internal/alphabet"
	"repro/internal/ta"
)

// buildMonitor constructs the R1 watchdog for participant i (Figure 9):
// one location per R1Obligation, entered on the deliveries at p[0] that
// R1Obligation.Next moves the obligation on, and an Error location raised
// when p[0] stays active more than the claimed detection bound after the
// obligation was armed last. Locations no delivery of the variant can
// reach are left out (ta.Analyze flags dead ones).
func (m *Model) buildMonitor(i int) {
	cfg := m.Cfg
	net := m.Net
	bound := cfg.DetectionBound()
	delay := net.Clock("r1delay_"+pname(i), bound+2)
	active0 := m.vActive0

	a := &ta.Automaton{Name: "MonR1" + pname(i)}
	locs := [...]int{R1Idle: -1, R1Armed: -1, R1Ended: -1}
	if cfg.R1Start() == R1Idle {
		locs[R1Idle] = addLoc(a, ta.Location{Name: "Idle"})
	}
	locs[R1Armed] = addLoc(a, ta.Location{Name: "Watch"})
	mo := monRefs{watch: locs[R1Armed], errLoc: addLoc(a, ta.Location{Name: "Error"}), delay: delay}
	// A leave exists only in the dynamic protocol: elsewhere its channel is
	// 0, and Off would be dead.
	if cfg.Variant == Dynamic {
		locs[R1Ended] = addLoc(a, ta.Location{Name: "Off"})
	}
	a.Init = locs[cfg.R1Start()]
	dlv := [...]ta.ChanID{alphabet.DeliverBeatP0: m.chDlvTrue[i], alphabet.DeliverLeaveP0: m.chDlvFalse[i]}
	for _, from := range []R1Obligation{R1Idle, R1Armed} {
		for k, ch := range dlv {
			to := from.Next(alphabet.Kind(k))
			if ch == 0 || locs[from] < 0 || to == from && to != R1Armed {
				continue
			}
			e := ta.Edge{From: locs[from], To: locs[to], Chan: ch}
			if to == R1Armed {
				e.Assign = []ta.Assign{ta.Reset(delay)}
			}
			a.Edges = append(a.Edges, e)
		}
	}
	// R1 violation: the bound elapsed and p[0] is still active.
	a.Edges = append(a.Edges, ta.Edge{
		From: mo.watch, To: mo.errLoc,
		Guard: ta.Guard{Vars: []ta.Lit{ta.Is(active0, 1)}, Clocks: []ta.Atom{ta.Clk(delay, ta.Gt, bound)}},
		Label: alphabet.ErrorR1.Of(i + 1),
	})
	mo.aut = len(net.Automata())
	net.Add(a)
	m.mons = append(m.mons, mo)
	b := &m.blocks[i]
	b.auts, b.clocks = append(b.auts, mo.aut), append(b.clocks, delay)
}
