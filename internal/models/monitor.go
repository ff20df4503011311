package models

import (
	"repro/internal/alphabet"
	"repro/internal/ta"
)

// buildMonitor constructs the R1 watchdog for participant i (Figure 9):
// it observes every beat from p[i] delivered at p[0] and raises Error when
// p[0] stays active for more than the claimed detection bound without one.
// For the expanding/dynamic protocols the monitor arms on the first
// delivery (p[0] cannot be obliged to react to a process it has never
// heard from) and disarms when p[i]'s leave is delivered.
func (m *Model) buildMonitor(i int) {
	cfg := m.Cfg
	net := m.Net
	bound := cfg.DetectionBound()
	delay := net.Clock("r1delay_"+pname(i), bound+2)
	active0 := m.vActive0

	var mo monRefs
	mo.delay = delay
	a := &ta.Automaton{Name: "MonR1" + pname(i)}
	idle := -1
	if cfg.joinPhase() {
		idle = addLoc(a, ta.Location{Name: "Idle"})
	}
	mo.watch = addLoc(a, ta.Location{Name: "Watch"})
	mo.errLoc = addLoc(a, ta.Location{Name: "Error"})
	// Off is entered only by a delivered leave, which exists only in the
	// dynamic protocol; elsewhere it would be dead (ta.Analyze flags it).
	mo.off = -1
	if cfg.Variant == Dynamic {
		mo.off = addLoc(a, ta.Location{Name: "Off"})
	}
	if idle >= 0 {
		a.Init = idle
		a.Edges = append(a.Edges, ta.Edge{
			From: idle, To: mo.watch,
			Chan:   m.chDlvTrue[i],
			Assign: []ta.Assign{ta.Reset(delay)},
		})
		if cfg.Variant == Dynamic {
			a.Edges = append(a.Edges, ta.Edge{
				From: idle, To: mo.off, Chan: m.chDlvFalse[i],
			})
		}
	} else {
		a.Init = mo.watch
	}
	a.Edges = append(a.Edges,
		// Every delivered beat from p[i] resets the watchdog.
		ta.Edge{
			From: mo.watch, To: mo.watch,
			Chan:   m.chDlvTrue[i],
			Assign: []ta.Assign{ta.Reset(delay)},
		},
		// R1 violation: the bound elapsed and p[0] is still active.
		ta.Edge{
			From: mo.watch, To: mo.errLoc,
			Guard: func(s *ta.State) bool {
				return s.Vars[active0] == 1 && s.Clocks[delay] > bound
			},
			Footprint: &ta.Footprint{Vars: []int{active0}, Unless: []ta.ClockVar{{Clock: delay, Var: active0, Val: 0}}},
			Label:     alphabet.ErrorR1.Of(i + 1),
		},
	)
	if cfg.Variant == Dynamic {
		// A delivered leave ends p[0]'s obligation for p[i].
		a.Edges = append(a.Edges, ta.Edge{
			From: mo.watch, To: mo.off, Chan: m.chDlvFalse[i],
		})
	}
	mo.aut = len(net.Automata())
	net.Add(a)
	m.mons = append(m.mons, mo)
	b := &m.blocks[i]
	b.auts, b.clocks = append(b.auts, mo.aut), append(b.clocks, delay)
}
