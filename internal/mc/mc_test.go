package mc

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/ta"
)

// The test models' action labels.
var (
	inc  = alphabet.SendBeat.Of(0)
	done = alphabet.Crash.Of(0)
	a    = alphabet.DeliverBeat.Of(1)
	b    = alphabet.DeliverBeatP0.Of(1)
	tau  = alphabet.Label{}
)

// counterNet builds a single automaton that counts to n with inc steps,
// then reaches "End" by done.
func counterNet(n int32) (*ta.Network, int) {
	net := ta.NewNetwork()
	v := net.Var("count", 0)
	net.Add(&ta.Automaton{
		Name:      "counter",
		Locations: []ta.Location{{Name: "Run"}, {Name: "End"}},
		Edges: []ta.Edge{
			{
				From: 0, To: 0, Label: inc,
				Guard:  ta.Guard{Pred: func(s *ta.State) bool { return s.Vars[v] < n }},
				Update: func(s *ta.State) { s.Vars[v]++ },
			},
			{
				From: 0, To: 1, Label: done,
				Guard: ta.Guard{Vars: []ta.Lit{ta.Is(v, n)}},
			},
		},
	})
	return net, v
}

func TestReachabilityFindsGoal(t *testing.T) {
	net, v := counterNet(5)
	res, err := CheckReachability(net, func(s *ta.State) bool { return s.Locs[0] == 1 }, Options{})
	if err != nil {
		t.Fatalf("CheckReachability: %v", err)
	}
	if !res.Reachable {
		t.Fatal("goal not reached")
	}
	// Shortest witness: 5 inc steps + done (plus initial pseudo-step).
	if len(res.Trace) != 7 {
		t.Fatalf("trace length = %d, want 7", len(res.Trace))
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Label != done || last.State.Vars[v] != 5 {
		t.Fatalf("last step = %+v", last)
	}
	if res.Trace[0].Label != tau {
		t.Fatal("trace must start with the initial pseudo-step")
	}
}

func TestReachabilityUnreachable(t *testing.T) {
	net, v := counterNet(5)
	res, err := CheckReachability(net, func(s *ta.State) bool { return s.Vars[v] > 5 }, Options{})
	if err != nil {
		t.Fatalf("CheckReachability: %v", err)
	}
	if res.Reachable {
		t.Fatal("unreachable goal reported reachable")
	}
	if res.StatesExplored < 7 {
		t.Fatalf("explored %d states, want at least 7", res.StatesExplored)
	}
}

func TestReachabilityGoalAtInitial(t *testing.T) {
	net, _ := counterNet(3)
	res, err := CheckReachability(net, func(s *ta.State) bool { return true }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || len(res.Trace) != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestStateLimit(t *testing.T) {
	net, _ := counterNet(1000)
	_, err := CheckReachability(net, func(s *ta.State) bool { return false }, Options{MaxStates: 10})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
}

func TestTraceTimesCountTicks(t *testing.T) {
	// An automaton that must wait 3 ticks, then fires.
	net := ta.NewNetwork()
	c := net.Clock("x", 4)
	net.Add(&ta.Automaton{
		Name: "w",
		Locations: []ta.Location{
			{Name: "Wait", Invariant: ta.Invariant{{Then: []ta.Atom{ta.Clk(c, ta.Le, 3)}}}},
			{Name: "Done"},
		},
		Edges: []ta.Edge{{
			From: 0, To: 1, Label: alphabet.Timeout.Of(0),
			Guard: ta.Guard{Clocks: []ta.Atom{ta.Clk(c, ta.Eq, 3)}},
		}},
	})
	res, err := CheckReachability(net, func(s *ta.State) bool { return s.Locs[0] == 1 }, Options{})
	if err != nil || !res.Reachable {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Time != 3 {
		t.Fatalf("goal at time %d, want 3", last.Time)
	}
}

func TestInvariantHelper(t *testing.T) {
	net, v := counterNet(4)
	res, err := CheckReachability(net, func(s *ta.State) bool { return s.Vars[v] > 2 }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable {
		t.Fatal("invariant violation not found")
	}
	if got := res.Trace[len(res.Trace)-1].State.Vars[v]; got != 3 {
		t.Fatalf("first violation at count=%d, want 3", got)
	}
}

func TestCountStates(t *testing.T) {
	net, _ := counterNet(5)
	states, trans, err := countStates(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// count 0..5 in Run + End = 7 states.
	if states != 7 {
		t.Fatalf("states = %d, want 7", states)
	}
	if trans < 6 {
		t.Fatalf("transitions = %d, want at least 6", trans)
	}
}

func TestBuildLTSAndExport(t *testing.T) {
	net, _ := counterNet(2)
	l, err := BuildLTS(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStates != 4 { // counts 0,1,2 in Run + End
		t.Fatalf("states = %d, want 4", l.NumStates)
	}
	var aut bytes.Buffer
	if err := l.WriteAUT(&aut); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(aut.String(), "des (0, ") {
		t.Fatalf("aut header = %q", aut.String()[:20])
	}
	var dot bytes.Buffer
	if err := l.WriteDOT(&dot, "counter"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph") || !strings.Contains(dot.String(), inc.String()) {
		t.Fatal("dot output incomplete")
	}
}

// diamond builds an LTS with two bisimilar branches that strong
// minimisation must merge.
func diamond() *LTS {
	return &LTS{
		NumStates: 4,
		Initial:   0,
		Transitions: []Trans{
			{0, a, 1},
			{0, a, 2},
			{1, b, 3},
			{2, b, 3},
		},
	}
}

func TestMinimizeStrongMergesBisimilar(t *testing.T) {
	m := diamond().MinimizeStrong()
	if m.NumStates != 3 {
		t.Fatalf("minimised to %d states, want 3", m.NumStates)
	}
	if len(m.Transitions) != 2 {
		t.Fatalf("minimised to %d transitions, want 2: %v", len(m.Transitions), m.Transitions)
	}
}

func TestMinimizeStrongKeepsDistinct(t *testing.T) {
	l := &LTS{
		NumStates: 3,
		Initial:   0,
		Transitions: []Trans{
			{0, a, 1},
			{1, b, 2},
		},
	}
	m := l.MinimizeStrong()
	if m.NumStates != 3 {
		t.Fatalf("collapsed distinct states: %d", m.NumStates)
	}
}

func TestHide(t *testing.T) {
	l := diamond().Hide(func(l alphabet.Label) bool { return l == a })
	for i, tr := range l.Transitions {
		if want := []alphabet.Label{tau, tau, b, b}[i]; tr.Label != want {
			t.Fatalf("transition %d labelled %v, want %v", i, tr.Label, want)
		}
	}
}

func TestWeakTraceReduce(t *testing.T) {
	// tau.a | a  — both branches weak-trace equivalent to a single "a".
	l := &LTS{
		NumStates: 4,
		Initial:   0,
		Transitions: []Trans{
			{0, tau, 1},
			{1, a, 2},
			{0, a, 3},
		},
	}
	r, err := l.WeakTraceReduce(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumStates != 2 || len(r.Transitions) != 1 || r.Transitions[0].Label != a {
		t.Fatalf("reduced = %+v", r)
	}
}

func TestWeakTraceReducePreservesOrder(t *testing.T) {
	// a.b must not become b.a.
	l := &LTS{
		NumStates: 3,
		Initial:   0,
		Transitions: []Trans{
			{0, a, 1},
			{1, b, 2},
		},
	}
	r, err := l.WeakTraceReduce(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Transitions) != 2 {
		t.Fatalf("transitions = %v", r.Transitions)
	}
	var first, second alphabet.Label
	for _, tr := range r.Transitions {
		if tr.From == r.Initial {
			first = tr.Label
		} else {
			second = tr.Label
		}
	}
	if first != a || second != b {
		t.Fatalf("order broken: %v", r.Transitions)
	}
}

func TestWeakTraceReduceLoop(t *testing.T) {
	// A tau self-loop plus visible action: reduction terminates and keeps
	// the visible behaviour.
	l := &LTS{
		NumStates: 2,
		Initial:   0,
		Transitions: []Trans{
			{0, tau, 0},
			{0, a, 1},
			{1, a, 1},
		},
	}
	r, err := l.WeakTraceReduce(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Both subset states have weak-trace set a*, so they collapse into a
	// single state with an a self-loop.
	if r.NumStates != 1 || len(r.Transitions) != 1 || r.Transitions[0] != (Trans{0, a, 0}) {
		t.Fatalf("reduced = %+v", r)
	}
}

// chattyNet is one location with a self-loop per label (plus tick): a
// single state whose transitions carry those labels.
func chattyNet(labels []alphabet.Label) *ta.Network {
	edges := make([]ta.Edge, len(labels))
	for i, l := range labels {
		edges[i] = ta.Edge{Label: l}
	}
	net := ta.NewNetwork()
	net.Add(&ta.Automaton{Name: "chatty", Locations: []ta.Location{{Name: "L"}}, Edges: edges})
	return net
}

// TestLabelLimit pins the width of the records' label ids: the widest
// label space 16-bit ids number explores and comes back as itself; one
// process more, or a label no index numbers, is an error from every entry
// point — never a wrapped id naming the wrong label.
func TestLabelLimit(t *testing.T) {
	most := (math.MaxUint16 + 1) / int(alphabet.NumKinds) // processes p[0]..p[most-1]
	var labels []alphabet.Label
	for p := range most {
		labels = append(labels, alphabet.SendBeat.Of(p))
	}
	lts, err := BuildLTS(chattyNet(labels), Options{})
	if err != nil {
		t.Fatalf("%d labels: %v", len(labels), err)
	}
	if lts.NumStates != 1 || len(lts.Transitions) != most+1 {
		t.Fatalf("%d states / %d transitions, want 1 / %d", lts.NumStates, len(lts.Transitions), most+1)
	}
	for i, tr := range lts.Transitions[:most] {
		if tr.Label != labels[i] {
			t.Fatalf("transition %d labelled %v, want %v", i, tr.Label, labels[i])
		}
	}
	if last := lts.Transitions[most].Label; last != (alphabet.Label{Kind: alphabet.Tick}) {
		t.Fatalf("last transition labelled %v, want tick", last)
	}

	for _, extra := range []alphabet.Label{
		alphabet.SendBeat.Of(most), alphabet.SendBeat.Of(-1), {Kind: alphabet.NumKinds},
	} {
		over := chattyNet(append(labels[:most:most], extra))
		if _, err := BuildLTS(over, Options{}); !errors.Is(err, ErrLabelLimit) {
			t.Fatalf("BuildLTS with %v: %v, want ErrLabelLimit", extra, err)
		}
		if _, _, err := countStates(over, Options{}); !errors.Is(err, ErrLabelLimit) {
			t.Fatalf("countStates with %v: %v, want ErrLabelLimit", extra, err)
		}
		res, err := CheckReachability(over, func(*ta.State) bool { return true }, Options{})
		if !errors.Is(err, ErrLabelLimit) || res.Reachable {
			t.Fatalf("CheckReachability with %v: %+v, %v, want ErrLabelLimit", extra, res, err)
		}
	}
}

// countStates explores the whole reachable space of n and returns its
// size.
func countStates(n *ta.Network, opts Options) (states, transitions int, err error) {
	res, err := CheckReachability(n, nil, opts)
	return res.StatesExplored, res.TransitionsExplored, err
}
