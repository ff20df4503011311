package ta

import (
	"strings"
	"testing"

	"repro/internal/alphabet"
)

// twoLoc builds a minimal healthy network: Idle --(x>=1, reset x)--> Busy
// --(timeout)--> Idle with an invariant keeping x at most 3. Every mutant test
// below starts from a broken variation of this shape.
func twoLoc() *Network {
	n := NewNetwork()
	x := n.Clock("x", 4)
	a := &Automaton{Name: "A"}
	a.Locations = []Location{
		{Name: "Idle", Invariant: Invariant{{Then: []Atom{Clk(x, Le, 3)}}}},
		{Name: "Busy"},
	}
	a.Edges = []Edge{
		{From: 0, To: 1, Label: alphabet.SendBeat.Of(0),
			Guard:  Guard{Clocks: []Atom{Clk(x, Ge, 1)}},
			Assign: []Assign{Reset(x)}},
		{From: 1, To: 0, Label: alphabet.Timeout.Of(0),
			Guard: Guard{Clocks: []Atom{Clk(x, Ge, 2)}}},
	}
	n.Add(a)
	return n
}

func problemsWith(t *testing.T, n *Network, check string) []Problem {
	t.Helper()
	var out []Problem
	for _, p := range n.Analyze() {
		if p.Check == check {
			out = append(out, p)
		}
	}
	return out
}

func TestAnalyzeCleanModel(t *testing.T) {
	if got := twoLoc().Analyze(); len(got) != 0 {
		t.Fatalf("clean model reported problems: %v", got)
	}
}

func TestAnalyzeDeadLocation(t *testing.T) {
	n := twoLoc()
	a := n.Automata()[0]
	a.Locations = append(a.Locations, Location{Name: "Orphan"})
	ps := problemsWith(t, n, "unreachable")
	if len(ps) != 1 || !strings.Contains(ps[0].Where, "Orphan") {
		t.Fatalf("want one unreachable problem naming Orphan, got %v", ps)
	}
}

func TestAnalyzeContradictoryGuard(t *testing.T) {
	n := twoLoc()
	a := n.Automata()[0]
	a.Edges = append(a.Edges, Edge{From: 1, To: 0, Label: alphabet.Crash.Of(0),
		Guard: Guard{Clocks: []Atom{Clk(0, Lt, 2), Clk(0, Gt, 5)}}})
	ps := problemsWith(t, n, "unsat-guard")
	if len(ps) != 1 || !strings.Contains(ps[0].Where, "crash p[0]") {
		t.Fatalf("want one unsat-guard problem on the crash edge, got %v", ps)
	}
}

// TestAnalyzeSwappedBounds models the classic tmin/tmax swap: the source
// invariant caps the clock at the (smaller) value intended as tmax while
// the guard waits for the (larger) value intended as tmin, so the edge
// can never fire.
func TestAnalyzeSwappedBounds(t *testing.T) {
	tmin, tmax := int32(5), int32(2) // swapped by the mutant
	n := NewNetwork()
	x := n.Clock("x", 8)
	a := &Automaton{Name: "A"}
	a.Locations = []Location{
		{Name: "Wait", Invariant: Invariant{{Then: []Atom{Clk(x, Le, tmax)}}}},
		{Name: "Fired"},
	}
	a.Edges = []Edge{
		{From: 0, To: 1, Label: alphabet.Timeout.Of(0),
			Guard: Guard{Clocks: []Atom{Clk(x, Ge, tmin)}}},
	}
	n.Add(a)
	ps := problemsWith(t, n, "unsat-guard")
	if len(ps) != 1 || !strings.Contains(ps[0].Where, "timeout") {
		t.Fatalf("want one unsat-guard problem on the timeout edge, got %v", ps)
	}
}

func TestAnalyzeUnsatInvariant(t *testing.T) {
	n := twoLoc()
	a := n.Automata()[0]
	a.Locations[1].Invariant = Invariant{{Then: []Atom{Clk(0, Lt, 0)}}}
	if ps := problemsWith(t, n, "unsat-invariant"); len(ps) != 1 {
		t.Fatalf("want one unsat-invariant problem, got %v", ps)
	}
}

func TestAnalyzeDuplicateEdge(t *testing.T) {
	n := twoLoc()
	a := n.Automata()[0]
	a.Edges = append(a.Edges, Edge{From: 1, To: 0, Label: alphabet.Timeout.Of(0),
		Guard: Guard{Clocks: []Atom{Clk(0, Ge, 2)}}})
	ps := problemsWith(t, n, "nondet-pair")
	if len(ps) != 1 || !strings.Contains(ps[0].Message, "duplicate") {
		t.Fatalf("want one duplicate-edge problem, got %v", ps)
	}
}

func TestAnalyzeNondetPair(t *testing.T) {
	n := twoLoc()
	a := n.Automata()[0]
	a.Locations = append(a.Locations, Location{Name: "Other"})
	// Same label and guard as the timeout but a different target.
	a.Edges = append(a.Edges,
		Edge{From: 1, To: 2, Label: alphabet.Timeout.Of(0),
			Guard: Guard{Clocks: []Atom{Clk(0, Ge, 2)}}},
		Edge{From: 2, To: 0, Label: alphabet.Start.Of(0)})
	ps := problemsWith(t, n, "nondet-pair")
	if len(ps) != 1 || !strings.Contains(ps[0].Message, "nondeterminism") {
		t.Fatalf("want one nondeterminism problem, got %v", ps)
	}
}

func TestAnalyzeUselessReset(t *testing.T) {
	n := twoLoc()
	y := n.Clock("y", 4) // declared, reset below, never read
	a := n.Automata()[0]
	a.Edges[1].Assign = []Assign{Reset(y)}
	ps := problemsWith(t, n, "useless-reset")
	if len(ps) != 1 || !strings.Contains(ps[0].Message, `"y"`) {
		t.Fatalf("want one useless-reset problem for clock y, got %v", ps)
	}
	// A computed update's declared write counts the same.
	a.Edges[1].Assign = nil
	a.Edges[1].Update = func(s *State) { s.Clocks[y] = 1 }
	a.Edges[1].Footprint = &Footprint{WriteClocks: []int{y}}
	ps = problemsWith(t, n, "useless-reset")
	if len(ps) != 1 || !strings.Contains(ps[0].Message, `"y"`) {
		t.Fatalf("want one useless-reset problem for clock y, got %v", ps)
	}
}

// TestAnalyzeUndeclaredFootprint: a guard predicate or an update with no
// footprint is a structure problem, since nothing derived from the
// footprints could trust it.
func TestAnalyzeUndeclaredFootprint(t *testing.T) {
	n := twoLoc()
	a := n.Automata()[0]
	a.Edges[1].Guard.Pred = func(s *State) bool { return s.Locs[0] == 1 }
	a.Edges = append(a.Edges, Edge{From: 1, To: 1, Label: alphabet.Crash.Of(0), Update: func(s *State) { s.Clocks[0] = 1 }})
	ps := problemsWith(t, n, "structure")
	if len(ps) != 2 {
		t.Fatalf("want two undeclared footprints, got %v", ps)
	}
	for _, p := range ps {
		if !strings.Contains(p.Message, "declares no footprint") {
			t.Errorf("unexpected structure problem: %s", p)
		}
	}
}

func TestAnalyzeClockCapTooSmall(t *testing.T) {
	n := NewNetwork()
	x := n.Clock("x", 3)
	a := &Automaton{Name: "A"}
	a.Locations = []Location{{Name: "L"}, {Name: "M"}}
	// x == 3 at cap 3: the capped clock parks at 3 and stays enabled
	// forever, while the true unbounded run passes 3 and disables it.
	a.Edges = []Edge{{From: 0, To: 1, Label: alphabet.Crash.Of(1),
		Guard: Guard{Clocks: []Atom{Clk(x, Eq, 3)}}}}
	n.Add(a)
	ps := problemsWith(t, n, "clock-cap")
	if len(ps) != 1 || !strings.Contains(ps[0].Message, `"x"`) {
		t.Fatalf("want one clock-cap problem for x, got %v", ps)
	}
}

// TestAnalyzeClockCapVariableBound: an atom bounded by a variable is judged
// at the largest value the variable starts at or is Set to. x <= t is
// sound while t stays below x's cap 4, and a finding once an edge may Set
// t to 4.
func TestAnalyzeClockCapVariableBound(t *testing.T) {
	build := func(raise int32) *Network {
		n := NewNetwork()
		x, tv := n.Clock("x", 4), n.Var("t", 2)
		a := &Automaton{Name: "A"}
		a.Locations = []Location{{Name: "Wait", Invariant: Invariant{{Then: []Atom{ClkVar(x, Le, tv)}}}}}
		a.Edges = []Edge{{From: 0, To: 0, Label: alphabet.Timeout.Of(0),
			Guard: Guard{Clocks: []Atom{ClkVar(x, Eq, tv)}}, Assign: []Assign{Reset(x), Set(tv, raise)}}}
		n.Add(a)
		return n
	}
	if ps := problemsWith(t, build(3), "clock-cap"); len(ps) != 0 {
		t.Fatalf("t at most 3 under cap 4: want no clock-cap problem, got %v", ps)
	}
	ps := problemsWith(t, build(4), "clock-cap")
	if len(ps) != 2 || !strings.Contains(ps[0].Message, `"x"`) {
		t.Fatalf("t Set to 4 at cap 4: want a clock-cap problem for the invariant and the guard, got %v", ps)
	}
}

func TestAnalyzeDeadChannel(t *testing.T) {
	n := twoLoc()
	n.Chan("orphan", false)
	ps := problemsWith(t, n, "structure")
	if len(ps) != 1 || !strings.Contains(ps[0].Message, "never used") {
		t.Fatalf("want one unused-channel problem, got %v", ps)
	}
}

func TestAnalyzeHandshakeWithoutPartner(t *testing.T) {
	n := twoLoc()
	ch := n.Chan("lonely", false)
	a := n.Automata()[0]
	a.Edges = append(a.Edges, Edge{From: 0, To: 1, Chan: ch, Send: true, Label: alphabet.SendJoin.Of(1)})
	ps := problemsWith(t, n, "structure")
	if len(ps) != 1 || !strings.Contains(ps[0].Message, "no receiver") {
		t.Fatalf("want one missing-receiver problem, got %v", ps)
	}
}

func TestAnalyzeEdgeOutOfRange(t *testing.T) {
	n := twoLoc()
	a := n.Automata()[0]
	a.Edges = append(a.Edges, Edge{From: 0, To: 7, Label: alphabet.Inactivate.Of(1)})
	ps := problemsWith(t, n, "structure")
	if len(ps) != 1 || !strings.Contains(ps[0].Message, "out of range") {
		t.Fatalf("want one out-of-range problem, got %v", ps)
	}
	// The broken edge must not poison reachability: Busy stays reachable
	// through the healthy edge, so no unreachable problems.
	if ps := problemsWith(t, n, "unreachable"); len(ps) != 0 {
		t.Fatalf("unexpected unreachable problems: %v", ps)
	}
}

// TestAnalyzePanickyGuard checks that a predicate panicking on synthetic
// probe states makes checks inconclusive rather than crashing or
// reporting false problems.
func TestAnalyzePanickyGuard(t *testing.T) {
	n := twoLoc()
	v := n.Var("v", 0)
	a := n.Automata()[0]
	a.Edges = append(a.Edges, Edge{From: 0, To: 1, Label: alphabet.Crash.Of(2),
		Guard: Guard{Pred: func(s *State) bool {
			if s.Vars[v] > 2 {
				panic("synthetic state")
			}
			return s.Vars[v] == 1
		}},
		Footprint: &Footprint{Vars: []int{v}}})
	for _, p := range n.Analyze() {
		if p.Check != "nondet-pair" { // the touchy edge and the send edge may look alike; fine
			t.Errorf("unexpected problem: %s", p)
		}
	}
}
