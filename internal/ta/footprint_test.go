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
