package ta

import (
	"reflect"
	"testing"

	"repro/internal/alphabet"
)

// TestDeadClocksRules pins both derivation rules on a small network: a
// watchdog x read in Armed only and reset on arming, and a timer y read
// unless done == 1, where done is set once and never cleared.
func TestDeadClocksRules(t *testing.T) {
	build := func(clearDone bool) *Network {
		n := NewNetwork()
		x, y := n.Clock("x", 4), n.Clock("y", 4)
		done, log := n.Var("done", 0), n.Var("log", 0)
		a := &Automaton{Name: "A"}
		a.Locations = []Location{
			{Name: "Idle"},
			{Name: "Armed", Invariant: func(s *State) bool { return s.Clocks[x] <= 3 }, Footprint: &Footprint{Clocks: []int{x}}},
			{Name: "Off"},
		}
		a.Edges = []Edge{
			{From: 0, To: 1, Label: alphabet.Start.Of(0), Assign: []Assign{Reset(x)}},
			{From: 1, To: 2, Label: alphabet.Timeout.Of(0), Assign: []Assign{Set(log, 1)},
				Guard: func(s *State) bool { return s.Clocks[x] == 3 }, Footprint: &Footprint{Clocks: []int{x}}},
			{From: 1, To: 1, Label: alphabet.Crash.Of(0), Assign: []Assign{Set(done, 1)},
				Guard:     func(s *State) bool { return s.Vars[done] == 0 && s.Clocks[y] == 2 },
				Footprint: &Footprint{Vars: []int{done}, Unless: []ClockVar{{Clock: y, Var: done, Val: 1}}}},
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
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dead clocks %+v, want %+v", got, want)
	}
	if obs := build(false).Observers(); !reflect.DeepEqual(obs, []int{1}) {
		t.Errorf("observers %v, want [1] (log)", obs)
	}
	// done can now return to 0 without a reset of y: only Off stays dead.
	if got := build(true).DeadClocks(); got[1].Var != -1 || got[1].Locs != 1<<2 {
		t.Errorf("with done cleared: %+v, want y dead in Off alone", got[1])
	}
}
