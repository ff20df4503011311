package mc

import (
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/ta"
)

// TestSerialCheckerAllocBudget pins the allocation count of one small
// check (the benchmark's mc.allocs_per_check reports the figure for a
// real model), without and with a canonicaliser on the path. The bound
// includes network construction and covers growth headroom; per-state or
// per-level allocation back on the path blows straight through it.
func TestSerialCheckerAllocBudget(t *testing.T) {
	for _, quotient := range []bool{false, true} {
		check := func() {
			net, v := counterNet(30)
			var opts Options
			if quotient {
				// The count is never read again once the counter is done.
				opts.Canon = func(s *ta.State) {
					if s.Locs[0] == 1 {
						s.Vars[v] = 0
					}
				}
			}
			res, err := CheckReachability(net, func(s *ta.State) bool { return s.Vars[v] == 29 }, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Reachable {
				t.Fatal("goal unreachable")
			}
		}
		check() // warm any lazy package state
		avg := testing.AllocsPerRun(20, check)
		// The counter model plus one exploration sits around 100 allocs.
		if avg > 200 {
			t.Fatalf("quotient=%v: check allocates %.0f/op, budget 200", quotient, avg)
		}
	}
}

// TestCanonExploresQuotient: a clock nothing reads after the one edge out
// of Run splits End into a state per value it can hold; a canonicaliser
// that stores it as 0 there leaves one. The witness to End is the same run
// either way, and BuildLTS builds the quotient's LTS.
func TestCanonExploresQuotient(t *testing.T) {
	net := ta.NewNetwork()
	x := net.Clock("x", 5)
	net.Add(&ta.Automaton{
		Name:      "once",
		Locations: []ta.Location{{Name: "Run"}, {Name: "End"}},
		Edges:     []ta.Edge{{From: 0, To: 1, Label: alphabet.Crash.Of(0)}},
	})
	canon := func(s *ta.State) {
		if s.Locs[0] == 1 {
			s.Clocks[x] = 0
		}
	}
	whole, _, err := CountStates(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	quotient, _, err := CountStates(net, Options{Canon: canon})
	if err != nil {
		t.Fatal(err)
	}
	// Run and End at x = 0..5 each; End once in the quotient.
	if whole != 12 || quotient != 7 {
		t.Fatalf("%d states, %d in the quotient; want 12 and 7", whole, quotient)
	}
	atEnd := func(s *ta.State) bool { return s.Locs[0] == 1 }
	plain, err := CheckReachability(net, atEnd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := CheckReachability(net, atEnd, Options{Canon: canon})
	if err != nil {
		t.Fatal(err)
	}
	if !reduced.Reachable || len(reduced.Trace) != len(plain.Trace) || reduced.Trace[1].Label != alphabet.Crash.Of(0) {
		t.Fatalf("witness %+v, on the network %+v", reduced.Trace, plain.Trace)
	}
	// The LTS is the quotient's, and each of its transitions is the
	// canonical image of a network transition with the same label.
	full, err := BuildLTS(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lts, err := BuildLTS(net, Options{Canon: canon})
	if err != nil {
		t.Fatal(err)
	}
	if full.NumStates != whole || lts.NumStates != quotient {
		t.Fatalf("BuildLTS has %d states, %d with the canonicaliser; want %d and %d", full.NumStates, lts.NumStates, whole, quotient)
	}
	type step struct {
		from  string
		label alphabet.Label
		to    string
	}
	key := func(s ta.State) string { return string(s.AppendKey(nil)) }
	fullStates, states := committedStates(t, net, Options{}), committedStates(t, net, Options{Canon: canon})
	images := map[step]bool{}
	for _, tr := range full.Transitions {
		to := fullStates[tr.To].Clone()
		canon(&to)
		images[step{key(fullStates[tr.From]), tr.Label, key(to)}] = true
	}
	for _, tr := range lts.Transitions {
		if !images[step{key(states[tr.From]), tr.Label, key(states[tr.To])}] {
			t.Errorf("quotient transition %v %v -> %v is no network transition's image", states[tr.From], tr.Label, states[tr.To])
		}
	}
	if len(lts.Transitions) == 0 || len(lts.Transitions) >= len(full.Transitions) {
		t.Fatalf("%d quotient transitions, %d in the network", len(lts.Transitions), len(full.Transitions))
	}
}

// committedStates lists the states an exploration stored, by id: the LTS
// states BuildLTS numbers.
func committedStates(t *testing.T, net *ta.Network, opts Options) []ta.State {
	t.Helper()
	e, _, _, _, err := explore(net, nil, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]ta.State, e.info.n)
	for id := range states {
		states[id] = e.init.Clone()
		states[id].DecodeKey(e.store.key(id), e.numLocs, e.numClocks)
	}
	return states
}

// TestCanonWitnessIsReplayed: two identical processes p[1] and p[2] step
// L0 -> L1 -> L2, sending a beat and then crashing, and the canonicaliser
// stores the pair in ascending order. p[1]'s beat first reaches the class of
// (L1, L0), stored as (L0, L1), from which p[2]'s crash first reaches the
// goal class (L0, L2). That is no run of the network; the replay turns the
// path into the run "p[1] beats, p[1] crashes" that visits the same classes.
func TestCanonWitnessIsReplayed(t *testing.T) {
	net := ta.NewNetwork()
	for i, name := range []string{"p1", "p2"} {
		p := i + 1
		net.Add(&ta.Automaton{
			Name:      name,
			Locations: []ta.Location{{Name: "L0"}, {Name: "L1"}, {Name: "L2"}},
			Edges:     []ta.Edge{{From: 0, To: 1, Label: alphabet.SendBeat.Of(p)}, {From: 1, To: 2, Label: alphabet.Crash.Of(p)}},
		})
	}
	canon := func(s *ta.State) {
		if s.Locs[0] > s.Locs[1] {
			s.Locs[0], s.Locs[1] = s.Locs[1], s.Locs[0]
		}
	}
	oneDone := func(s *ta.State) bool { return s.Locs[0]+s.Locs[1] == 2 && s.Locs[0] != 1 }
	res, err := CheckReachability(net, oneDone, Options{Canon: canon})
	if err != nil {
		t.Fatal(err)
	}
	var labels []alphabet.Label
	var locs [][]uint8
	for _, step := range res.Trace {
		labels, locs = append(labels, step.Label), append(locs, step.State.Locs)
	}
	want := []alphabet.Label{{}, alphabet.SendBeat.Of(1), alphabet.Crash.Of(1)}
	if !slices.Equal(labels, want) || !slices.EqualFunc(locs, [][]uint8{{0, 0}, {1, 0}, {2, 0}}, slices.Equal) {
		t.Fatalf("witness %v through %v, want %v through (0,0), (1,0), (2,0)", labels, locs, want)
	}
}
