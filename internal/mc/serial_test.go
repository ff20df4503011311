package mc

import (
	"errors"
	"testing"

	"repro/internal/ta"
)

// TestSerialMatchesParallelLTS builds the LTS through both engines and
// demands byte-identical transition lists — the strongest equivalence the
// explorer exposes (ids, labels, and emission order all pinned).
func TestSerialMatchesParallelLTS(t *testing.T) {
	net1, _ := counterNet(6)
	base, err := BuildLTS(net1, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		net, _ := counterNet(6)
		l, err := BuildLTS(net, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if l.NumStates != base.NumStates || len(l.Transitions) != len(base.Transitions) {
			t.Fatalf("workers=%d: %d states / %d trans, want %d / %d",
				workers, l.NumStates, len(l.Transitions), base.NumStates, len(base.Transitions))
		}
		for i := range l.Transitions {
			if l.Transitions[i] != base.Transitions[i] {
				t.Fatalf("workers=%d: transition %d = %+v, want %+v",
					workers, i, l.Transitions[i], base.Transitions[i])
			}
		}
	}
}

// TestSerialStateLimitSemantics pins the serial engine's limit behaviour
// against the parallel contract: the level crossing the limit still
// expands in full (transition counts match the parallel engine), states
// stop committing at the limit, and the error is ErrStateLimit.
func TestSerialStateLimitSemantics(t *testing.T) {
	goal := func(s *ta.State) bool { return false }
	serialNet, _ := counterNet(40)
	serial, serialErr := CheckReachability(serialNet, goal, Options{MaxStates: 10, Workers: 1})
	if !errors.Is(serialErr, ErrStateLimit) {
		t.Fatalf("serial error = %v, want ErrStateLimit", serialErr)
	}
	parNet, _ := counterNet(40)
	par, parErr := CheckReachability(parNet, goal, Options{MaxStates: 10, Workers: 4})
	if !errors.Is(parErr, ErrStateLimit) {
		t.Fatalf("parallel error = %v, want ErrStateLimit", parErr)
	}
	if serial.StatesExplored != par.StatesExplored ||
		serial.TransitionsExplored != par.TransitionsExplored {
		t.Fatalf("serial (%d states, %d trans) != parallel (%d states, %d trans)",
			serial.StatesExplored, serial.TransitionsExplored,
			par.StatesExplored, par.TransitionsExplored)
	}
}

// TestSerialCheckerAllocBudget pins the workers=1 allocation count: run
// through the parallel machinery a check costs several times the allocs
// of the direct-commit path (the benchmark's mc.allocs_per_check reports
// the figure for a real model). The serial engine must stay in its own
// budget; the bound includes network construction and covers growth
// headroom, and candidate/merge machinery back on the path blows
// straight through it.
func TestSerialCheckerAllocBudget(t *testing.T) {
	check := func() {
		net, v := counterNet(30)
		res, err := CheckReachability(net, func(s *ta.State) bool { return s.Vars[v] == 29 }, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reachable {
			t.Fatal("goal unreachable")
		}
	}
	check() // warm any lazy package state
	avg := testing.AllocsPerRun(20, check)
	// The counter model plus one serial exploration sits around 100
	// allocs; 200 is comfortable headroom without letting candidate/merge
	// machinery back onto the path.
	if avg > 200 {
		t.Fatalf("serial check allocates %.0f/op, budget 200", avg)
	}
}
