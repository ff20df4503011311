package ta

import (
	"reflect"
	"testing"

	"repro/internal/alphabet"
)

// TestDeadClocksRules pins both derivation rules on a small network: a
// watchdog x compared in Armed only and reset on arming, and timers y and
// z compared only under done == 0 and done != 1, by a guard and by an
// invariant case, where done is set once and never cleared, so both are
// dead while done == 1.
func TestDeadClocksRules(t *testing.T) {
	build := func(clearDone bool) *Network {
		n := NewNetwork()
		x, y, z := n.Clock("x", 4), n.Clock("y", 4), n.Clock("z", 4)
		done, log := n.Var("done", 0), n.Var("log", 0)
		a := &Automaton{Name: "A"}
		a.Locations = []Location{
			{Name: "Idle"},
			{Name: "Armed", Invariant: Invariant{{Then: []Atom{Clk(x, Le, 3)}}, {When: []Lit{IsNot(done, 1)}, Then: []Atom{Clk(z, Le, 3)}}}},
			{Name: "Off"},
		}
		a.Edges = []Edge{
			{From: 0, To: 1, Label: alphabet.Start.Of(0), Assign: []Assign{Reset(x)}},
			{From: 1, To: 2, Label: alphabet.Timeout.Of(0), Assign: []Assign{Set(log, 1)},
				Guard: Guard{Clocks: []Atom{Clk(x, Eq, 3)}}},
			{From: 1, To: 1, Label: alphabet.Crash.Of(0), Assign: []Assign{Set(done, 1)},
				Guard: Guard{Vars: []Lit{Is(done, 0)}, Clocks: []Atom{Clk(y, Eq, 2)}}},
		}
		if clearDone {
			a.Edges = append(a.Edges, Edge{From: 2, To: 2, Label: alphabet.Inactivate.Of(0), Assign: []Assign{Set(done, 0)}})
		}
		n.Add(a)
		return n
	}
	got := build(false).DeadClocks()
	want := DeadTable{
		{Clock: 0, Aut: 0, Locs: 1<<0 | 1<<2, Var: -1},
		{Clock: 1, Aut: 0, Locs: 1 << 2, Var: 0, Val: 1},
		{Clock: 2, Aut: 0, Locs: 1 << 2, Var: 0, Val: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dead clocks %+v, want %+v", got, want)
	}
	if obs := build(false).Observers(); !reflect.DeepEqual(obs, []int{1}) {
		t.Errorf("observers %v, want [1] (log)", obs)
	}
	// done can now return to 0 without a reset of y or z: only Off stays
	// dead.
	for _, d := range build(true).DeadClocks()[1:] {
		if d.Var != -1 || d.Locs != 1<<2 {
			t.Errorf("with done cleared: %+v, want the clock dead in Off alone", d)
		}
	}
}

// TestLowerClocksRules pins the lower-bound clock rule: a clock qualifies
// when a guard atom compares it and every atom on it is > or >= (against a
// constant or a variable); <, <=, == or a read by an invariant excludes it,
// as does a read on an edge whose enabledness changes other transitions —
// a broadcast receive, or under receive priority a synchronising edge.
func TestLowerClocksRules(t *testing.T) {
	for _, tc := range []struct {
		name     string
		atom     func(c, v int) Atom
		inv      bool // the clock is also compared by an invariant x <= 4
		bcast    bool // the guard sits on a broadcast receive
		priority bool // the guard sits on a handshake send under receive priority
		want     bool
	}{
		{name: ">", atom: func(c, _ int) Atom { return Clk(c, Gt, 2) }, want: true},
		{name: ">=", atom: func(c, _ int) Atom { return Clk(c, Ge, 2) }, want: true},
		{name: "> variable", atom: func(c, v int) Atom { return ClkVar(c, Gt, v) }, want: true},
		{name: ">= variable", atom: func(c, v int) Atom { return ClkVar(c, Ge, v) }, want: true},
		{name: "<", atom: func(c, _ int) Atom { return Clk(c, Lt, 2) }},
		{name: "<=", atom: func(c, _ int) Atom { return Clk(c, Le, 2) }},
		{name: "==", atom: func(c, _ int) Atom { return Clk(c, Eq, 2) }},
		{name: "== variable", atom: func(c, v int) Atom { return ClkVar(c, Eq, v) }},
		{name: "> and an invariant", atom: func(c, _ int) Atom { return Clk(c, Gt, 2) }, inv: true},
		{name: "> on a broadcast receive", atom: func(c, _ int) Atom { return Clk(c, Gt, 2) }, bcast: true},
		{name: "> on a send under priority", atom: func(c, _ int) Atom { return Clk(c, Gt, 2) }, priority: true},
	} {
		n := NewNetwork()
		x, y := n.Clock("x", 5), n.Clock("y", 5) // y: compared by no atom
		v := n.Var("v", 2)
		ch := n.Chan("c", tc.bcast)
		n.SetReceivePriority(tc.priority)
		a := &Automaton{Name: "A", Locations: []Location{{Name: "Run"}, {Name: "End"}}}
		if tc.inv {
			a.Locations[0].Invariant = Invariant{{Then: []Atom{Clk(x, Le, 4)}}}
		}
		g := Edge{From: 0, To: 1, Label: alphabet.Crash.Of(0), Guard: Guard{Clocks: []Atom{tc.atom(x, v)}}, Assign: []Assign{Reset(y)}}
		b := &Automaton{Name: "B", Locations: []Location{{Name: "Run"}}}
		switch {
		case tc.bcast:
			g.Chan = ch
			b.Edges = []Edge{{From: 0, To: 0, Chan: ch, Send: true, Label: alphabet.SendBeat.Of(1)}}
		case tc.priority:
			g.Chan, g.Send = ch, true
			b.Edges = []Edge{{From: 0, To: 0, Chan: ch}}
		}
		a.Edges = []Edge{g}
		n.Add(a)
		n.Add(b)
		got := n.LowerClocks()
		if want := []int{x}; tc.want && !reflect.DeepEqual(got, want) || !tc.want && len(got) != 0 {
			t.Errorf("%s: lower clocks %v, want x: %v", tc.name, got, tc.want)
		}
	}
}
