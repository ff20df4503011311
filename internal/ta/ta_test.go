package ta

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/alphabet"
)

// The test networks' action labels.
var (
	fire        = alphabet.Timeout.Of(1)
	msg         = alphabet.SendBeat.Of(1)
	hb          = alphabet.SendBeat.Of(0)
	commitStep  = alphabet.Start.Of(0)
	hurryStep   = alphabet.Start.Of(1)
	otherStep   = alphabet.Crash.Of(2)
	deliver     = alphabet.DeliverBeat.Of(1)
	timeoutStep = alphabet.Timeout.Of(0)
)

// tinyTimer builds a one-automaton network: wait until clock == limit,
// then fire and stop.
func tinyTimer(limit int32) (*Network, *Automaton) {
	n := NewNetwork()
	c := n.Clock("x", limit+1)
	a := n.Add(&Automaton{
		Name: "timer",
		Locations: []Location{
			{Name: "Wait", Invariant: Invariant{{Then: []Atom{Clk(c, Le, limit)}}}},
			{Name: "Done"},
		},
		Edges: []Edge{{
			From:  0,
			To:    1,
			Guard: Guard{Clocks: []Atom{Clk(c, Eq, limit)}},
			Label: fire,
		}},
	})
	return n, a
}

func labels(trs []Transition) []string {
	out := make([]string, len(trs))
	for i, t := range trs {
		out[i] = t.Label.String()
	}
	return out
}

func TestDelayUntilInvariantBound(t *testing.T) {
	n, _ := tinyTimer(3)
	s := n.Initial()
	// Three ticks allowed, then the invariant forces the edge.
	for i := 0; i < 3; i++ {
		trs := n.Successors(&s, nil)
		var tick *Transition
		for j := range trs {
			if trs[j].Delay {
				tick = &trs[j]
			}
		}
		if tick == nil {
			t.Fatalf("step %d: no tick in %v", i, labels(trs))
		}
		s = tick.Target
	}
	trs := n.Successors(&s, nil)
	if len(trs) != 1 || trs[0].Label != fire || trs[0].Delay {
		t.Fatalf("at the bound, successors = %v, want only fire", labels(trs))
	}
	s = trs[0].Target
	if s.Locs[0] != 1 {
		t.Fatalf("loc = %d, want Done", s.Locs[0])
	}
	// Done has no invariant: time flows freely, no discrete moves.
	trs = n.Successors(&s, nil)
	if len(trs) != 1 || !trs[0].Delay {
		t.Fatalf("after fire, successors = %v, want only tick", labels(trs))
	}
}

func TestGuardBeforeBoundAllowsBoth(t *testing.T) {
	// With guard x >= 1 and invariant x <= 3 both tick and fire coexist.
	n := NewNetwork()
	c := n.Clock("x", 4)
	n.Add(&Automaton{
		Name: "a",
		Locations: []Location{
			{Name: "Wait", Invariant: Invariant{{Then: []Atom{Clk(c, Le, 3)}}}},
			{Name: "Done"},
		},
		Edges: []Edge{{From: 0, To: 1, Guard: Guard{Clocks: []Atom{Clk(c, Ge, 1)}}, Label: fire}},
	})
	s := n.Initial()
	s = n.Successors(&s, nil)[0].Target // only tick at x=0
	trs := n.Successors(&s, nil)
	if len(trs) != 2 {
		t.Fatalf("successors = %v, want fire+tick", labels(trs))
	}
}

func TestClockCapStopsAdvance(t *testing.T) {
	n := NewNetwork()
	c := n.Clock("x", 2)
	n.Add(&Automaton{Name: "idle", Locations: []Location{{Name: "L"}}})
	s := n.Initial()
	for i := 0; i < 5; i++ {
		trs := n.Successors(&s, nil)
		s = trs[0].Target
	}
	if s.Clocks[c] != 2 {
		t.Fatalf("clock = %d, want capped at 2", s.Clocks[c])
	}
}

func TestHandshake(t *testing.T) {
	n := NewNetwork()
	ch := n.Chan("msg", false)
	v := n.Var("sum", 0)
	n.Add(&Automaton{
		Name:      "sender",
		Locations: []Location{{Name: "S0"}, {Name: "S1"}},
		Edges: []Edge{{
			From: 0, To: 1, Chan: ch, Send: true, Label: msg,
			Update: func(s *State) { s.Vars[v] += 1 },
		}},
	})
	n.Add(&Automaton{
		Name:      "receiver",
		Locations: []Location{{Name: "R0"}, {Name: "R1"}},
		Edges: []Edge{{
			From: 0, To: 1, Chan: ch, Send: false,
			Update: func(s *State) { s.Vars[v] *= 10 },
		}},
	})
	s := n.Initial()
	trs := n.Successors(&s, nil)
	var sync *Transition
	for i := range trs {
		if trs[i].Label == msg {
			sync = &trs[i]
		}
	}
	if sync == nil {
		t.Fatalf("no handshake in %v", labels(trs))
	}
	if sync.Target.Locs[0] != 1 || sync.Target.Locs[1] != 1 {
		t.Fatalf("handshake moved to %v", sync.Target.Locs)
	}
	// Sender update runs before receiver update: (0+1)*10 = 10.
	if sync.Target.Vars[v] != 10 {
		t.Fatalf("sum = %d, want 10 (sender then receiver)", sync.Target.Vars[v])
	}
	// After the move, no partner remains: only tick.
	s = sync.Target
	trs = n.Successors(&s, nil)
	if len(trs) != 1 || !trs[0].Delay {
		t.Fatalf("after handshake, successors = %v", labels(trs))
	}
}

func TestHandshakeBlocksWithoutPartner(t *testing.T) {
	n := NewNetwork()
	ch := n.Chan("msg", false)
	n.Add(&Automaton{
		Name:      "sender",
		Locations: []Location{{Name: "S0"}, {Name: "S1"}},
		Edges:     []Edge{{From: 0, To: 1, Chan: ch, Send: true, Label: msg}},
	})
	s := n.Initial()
	trs := n.Successors(&s, nil)
	if len(trs) != 1 || !trs[0].Delay {
		t.Fatalf("lone sender: successors = %v, want only tick", labels(trs))
	}
}

func TestBroadcastReachesAllEnabledReceivers(t *testing.T) {
	n := NewNetwork()
	ch := n.Chan("hb", true)
	n.Add(&Automaton{
		Name:      "caster",
		Locations: []Location{{Name: "C0"}, {Name: "C1"}},
		Edges:     []Edge{{From: 0, To: 1, Chan: ch, Send: true, Label: hb}},
	})
	for i := 0; i < 3; i++ {
		n.Add(&Automaton{
			Name:      "listener",
			Locations: []Location{{Name: "L0"}, {Name: "L1"}},
			Edges:     []Edge{{From: 0, To: 1, Chan: ch, Send: false}},
		})
	}
	// A listener that is not enabled (different location) must not block.
	blocked := n.Add(&Automaton{
		Name:      "deaf",
		Locations: []Location{{Name: "D0"}, {Name: "D1"}},
		Edges:     []Edge{{From: 1, To: 0, Chan: ch, Send: false}},
	})
	_ = blocked
	s := n.Initial()
	trs := n.Successors(&s, nil)
	var cast *Transition
	for i := range trs {
		if trs[i].Label == hb {
			cast = &trs[i]
		}
	}
	if cast == nil {
		t.Fatalf("no broadcast in %v", labels(trs))
	}
	want := []uint8{1, 1, 1, 1, 0}
	for i, w := range want {
		if cast.Target.Locs[i] != w {
			t.Fatalf("locs = %v, want %v", cast.Target.Locs, want)
		}
	}
}

func TestBroadcastWithNoReceiversStillFires(t *testing.T) {
	n := NewNetwork()
	ch := n.Chan("hb", true)
	n.Add(&Automaton{
		Name:      "caster",
		Locations: []Location{{Name: "C0"}, {Name: "C1"}},
		Edges:     []Edge{{From: 0, To: 1, Chan: ch, Send: true, Label: hb}},
	})
	s := n.Initial()
	trs := n.Successors(&s, nil)
	found := false
	for _, tr := range trs {
		if tr.Label == hb {
			found = true
		}
	}
	if !found {
		t.Fatalf("broadcast without receivers blocked: %v", labels(trs))
	}
}

func TestCommittedPriorityAndNoDelay(t *testing.T) {
	n := NewNetwork()
	n.Add(&Automaton{
		Name: "c",
		Locations: []Location{
			{Name: "Go", Kind: Committed},
			{Name: "Done"},
		},
		Edges: []Edge{{From: 0, To: 1, Label: commitStep}},
	})
	n.Add(&Automaton{
		Name:      "other",
		Locations: []Location{{Name: "O0"}, {Name: "O1"}},
		Edges:     []Edge{{From: 0, To: 1, Label: otherStep}},
	})
	s := n.Initial()
	trs := n.Successors(&s, nil)
	if len(trs) != 1 || trs[0].Label != commitStep {
		t.Fatalf("committed state: successors = %v, want only commit-step", labels(trs))
	}
}

func TestUrgentBlocksDelayOnly(t *testing.T) {
	n := NewNetwork()
	n.Add(&Automaton{
		Name: "u",
		Locations: []Location{
			{Name: "Hurry", Kind: Urgent},
			{Name: "Done"},
		},
		Edges: []Edge{{From: 0, To: 1, Label: hurryStep}},
	})
	n.Add(&Automaton{
		Name:      "other",
		Locations: []Location{{Name: "O0"}, {Name: "O1"}},
		Edges:     []Edge{{From: 0, To: 1, Label: otherStep}},
	})
	s := n.Initial()
	trs := n.Successors(&s, nil)
	if len(trs) != 2 {
		t.Fatalf("urgent state: successors = %v, want both steps, no tick", labels(trs))
	}
	for _, tr := range trs {
		if tr.Delay {
			t.Fatal("delay allowed in urgent location")
		}
	}
}

// priorityNet models the §6.1 race: a channel whose delivery window is
// [0, bound] (invariant-forced at the bound) alongside a process with a
// timeout due at the same bound.
func priorityNet(priority bool, bound int32) *Network {
	n := NewNetwork()
	n.SetReceivePriority(priority)
	c := n.Clock("x", bound+1)
	n.Add(&Automaton{
		Name: "chan",
		Locations: []Location{
			{Name: "Fly", Invariant: Invariant{{Then: []Atom{Clk(c, Le, bound)}}}},
			{Name: "Done"},
		},
		Edges: []Edge{{From: 0, To: 1, Label: deliver, Class: ClassDeliver}},
	})
	n.Add(&Automaton{
		Name: "proc",
		Locations: []Location{
			{Name: "Wait", Invariant: Invariant{{Then: []Atom{Clk(c, Le, bound)}}}},
			{Name: "Dead"},
		},
		Edges: []Edge{{
			From: 0, To: 1, Label: timeoutStep, Class: ClassTimeout,
			Guard: Guard{Clocks: []Atom{Clk(c, Eq, bound)}},
		}},
	})
	return n
}

func advanceTo(t *testing.T, n *Network, s State, ticks int) State {
	t.Helper()
	for i := 0; i < ticks; i++ {
		trs := n.Successors(&s, nil)
		var tick *Transition
		for j := range trs {
			if trs[j].Delay {
				tick = &trs[j]
			}
		}
		if tick == nil {
			t.Fatalf("no tick at step %d: %v", i, labels(trs))
		}
		s = tick.Target
	}
	return s
}

func TestReceivePrioritySuppressesTimeoutAtDueDelivery(t *testing.T) {
	n := priorityNet(true, 3)
	s := advanceTo(t, n, n.Initial(), 3)
	// At the bound both deliver and timeout are enabled and the delivery
	// is due: the timeout must be suppressed.
	trs := n.Successors(&s, nil)
	seen := map[alphabet.Label]bool{}
	for _, tr := range trs {
		seen[tr.Label] = true
	}
	if seen[timeoutStep] {
		t.Fatalf("timeout survived a due delivery: %v", labels(trs))
	}
	if !seen[deliver] {
		t.Fatalf("delivery missing: %v", labels(trs))
	}
}

func TestReceivePriorityAllowsTimeoutWhileDeliveryCanWait(t *testing.T) {
	// Delivery window is longer than the timeout instant: at the timeout
	// the delivery is enabled but NOT due, so both orders remain.
	n := NewNetwork()
	n.SetReceivePriority(true)
	c := n.Clock("x", 10)
	n.Add(&Automaton{
		Name: "chan",
		Locations: []Location{
			{Name: "Fly", Invariant: Invariant{{Then: []Atom{Clk(c, Le, 8)}}}},
			{Name: "Done"},
		},
		Edges: []Edge{{From: 0, To: 1, Label: deliver, Class: ClassDeliver}},
	})
	n.Add(&Automaton{
		Name: "proc",
		Locations: []Location{
			{Name: "Wait", Invariant: Invariant{{Then: []Atom{Clk(c, Le, 3)}}}},
			{Name: "Dead"},
		},
		Edges: []Edge{{
			From: 0, To: 1, Label: timeoutStep, Class: ClassTimeout,
			Guard: Guard{Clocks: []Atom{Clk(c, Eq, 3)}},
		}},
	})
	s := advanceTo(t, n, n.Initial(), 3)
	trs := n.Successors(&s, nil)
	seen := map[alphabet.Label]bool{}
	for _, tr := range trs {
		seen[tr.Label] = true
	}
	if !seen[timeoutStep] || !seen[deliver] {
		t.Fatalf("want both orders while delivery can wait: %v", labels(trs))
	}
}

func TestReceivePriorityOffKeepsBothOrders(t *testing.T) {
	n := priorityNet(false, 3)
	s := advanceTo(t, n, n.Initial(), 3)
	trs := n.Successors(&s, nil)
	seen := map[alphabet.Label]bool{}
	for _, tr := range trs {
		seen[tr.Label] = true
	}
	if !seen[timeoutStep] || !seen[deliver] {
		t.Fatalf("without priority, want both: %v", labels(trs))
	}
}

func TestReceivePriorityKeepsTimeoutWhenNoDelivery(t *testing.T) {
	n := NewNetwork()
	n.SetReceivePriority(true)
	n.Add(&Automaton{
		Name:      "p",
		Locations: []Location{{Name: "L"}, {Name: "T"}},
		Edges:     []Edge{{From: 0, To: 1, Label: timeoutStep, Class: ClassTimeout}},
	})
	s := n.Initial()
	trs := n.Successors(&s, nil)
	found := false
	for _, tr := range trs {
		if tr.Label == timeoutStep {
			found = true
		}
	}
	if !found {
		t.Fatalf("timeout wrongly suppressed: %v", labels(trs))
	}
}

func TestStateKeyInjective(t *testing.T) {
	f := func(l1, l2 uint8, c1, c2, v1 int16) bool {
		a := State{Locs: []uint8{l1}, Clocks: []int32{int32(c1)}, Vars: []int32{int32(v1)}}
		b := State{Locs: []uint8{l2}, Clocks: []int32{int32(c2)}, Vars: []int32{int32(v1)}}
		same := l1 == l2 && c1 == c2
		return (string(a.AppendKey(nil)) == string(b.AppendKey(nil))) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendKeyMatchesKey(t *testing.T) {
	f := func(l uint8, c1, c2, v int16) bool {
		s := State{Locs: []uint8{l, l + 1}, Clocks: []int32{int32(c1), int32(c2)}, Vars: []int32{int32(v)}}
		buf := s.AppendKey(make([]byte, 0, s.KeyLen()))
		return string(buf) == string(s.AppendKey(nil)) && len(buf) == s.KeyLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeKeyRoundTrip(t *testing.T) {
	f := func(l1, l2 uint8, c1, c2 int16, v1, v2, v3 int16) bool {
		s := State{
			Locs:   []uint8{l1, l2},
			Clocks: []int32{int32(c1), int32(c2)},
			Vars:   []int32{int32(v1), int32(v2), int32(v3)},
		}
		// Into an empty state, one of the key's shape holding other
		// values (decoded in place), and one of another shape.
		for _, d := range []State{
			{},
			{Locs: []uint8{9, 9}, Clocks: []int32{7, 7}, Vars: []int32{5, 5, 5}},
			{Locs: make([]uint8, 5), Vars: []int32{1}},
		} {
			d.DecodeKey(s.AppendKey(nil), len(s.Locs), len(s.Clocks))
			if !slices.Equal(d.Locs, s.Locs) || !slices.Equal(d.Clocks, s.Clocks) || !slices.Equal(d.Vars, s.Vars) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeKeyReusesSlices(t *testing.T) {
	s := State{Locs: []uint8{1}, Clocks: []int32{2}, Vars: []int32{3}}
	d := s.Clone()
	locs, clocks, vars := &d.Locs[0], &d.Clocks[0], &d.Vars[0]
	d.DecodeKey(s.AppendKey(nil), 1, 1)
	if &d.Locs[0] != locs || &d.Clocks[0] != clocks || &d.Vars[0] != vars {
		t.Fatal("DecodeKey reallocated equally-sized slices")
	}
}

// TestSuccessorsBufferReuse pins the Successors buffer contract: entries
// up to len stay valid within a call, recycling with buf[:0] reuses the
// dead targets' slices, and exploration over a recycled buffer allocates
// nothing in steady state.
func TestSuccessorsBufferReuse(t *testing.T) {
	n, _ := tinyTimer(3)
	s := n.Initial()
	buf := n.Successors(&s, nil)
	if len(buf) == 0 {
		t.Fatal("no successors")
	}
	next := buf[0].Target.Clone() // contract: copy before recycling
	buf = n.Successors(&next, buf[:0])
	if len(buf) == 0 {
		t.Fatal("no successors after reuse")
	}
	// Warmed up, generating successors from a stable state allocates
	// nothing.
	allocs := testing.AllocsPerRun(100, func() {
		buf = n.Successors(&s, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("Successors allocs/run = %v, want 0", allocs)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := State{Locs: []uint8{1}, Clocks: []int32{2}, Vars: []int32{3}}
	c := s.Clone()
	c.Locs[0] = 9
	c.Clocks[0] = 9
	c.Vars[0] = 9
	if s.Locs[0] != 1 || s.Clocks[0] != 2 || s.Vars[0] != 3 {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestNetworkAccessors(t *testing.T) {
	n := NewNetwork()
	c := n.Clock("x", 5)
	v := n.Var("flag", 1)
	a := n.Add(&Automaton{Name: "a", Locations: []Location{{Name: "Init"}, {Name: "End"}}})
	if n.ClockName(c) != "x" || n.varNames[v] != "flag" {
		t.Fatal("name accessors")
	}
	if n.NumClocks() != 1 || len(n.varNames) != 1 {
		t.Fatal("count accessors")
	}
	if n.Automata()[0] != a || a.Locations[1].Name != "End" {
		t.Fatal("locations")
	}
	s := n.Initial()
	if s.Vars[v] != 1 {
		t.Fatal("initial var value not applied")
	}
}

func TestClockCapValidation(t *testing.T) {
	for _, tt := range []struct {
		cap int32
		ok  bool
	}{{0, false}, {-3, false}, {1, true}, {MaxClockCap, true}, {MaxClockCap + 1, false}, {60_000, false}} {
		func() {
			defer func() {
				if (recover() == nil) != tt.ok {
					t.Errorf("Clock(cap %d): accepted = %v, want %v", tt.cap, !tt.ok, tt.ok)
				}
			}()
			NewNetwork().Clock("c", tt.cap)
		}()
	}
}

// TestKeyHoldsLargestClock pins why MaxClockCap is the limit: a clock at
// the cap survives the key round trip, one tick more would come back as a
// different (negative) value and share its key with another state.
func TestKeyHoldsLargestClock(t *testing.T) {
	s := State{Locs: []uint8{0}, Clocks: []int32{MaxClockCap, MaxClockCap - 1}}
	var back State
	back.DecodeKey(s.AppendKey(nil), 1, 2)
	if back.Clocks[0] != MaxClockCap || back.Clocks[1] != MaxClockCap-1 {
		t.Fatalf("clocks %v came back as %v", s.Clocks, back.Clocks)
	}
	wrapped := State{Locs: []uint8{0}, Clocks: []int32{MaxClockCap + 1 + 1<<16, 0}}
	other := State{Locs: []uint8{0}, Clocks: []int32{MaxClockCap + 1, 0}}
	if string(wrapped.AppendKey(nil)) != string(other.AppendKey(nil)) {
		t.Fatal("expected values 2^16 apart to collide: the key format changed, revisit MaxClockCap")
	}
}

// TestAtomOps pins each comparison against its Go operator, through
// atomsHold (the successor path), through narrow (the analyzer's interval
// solver), and with the bound a constant or a variable.
func TestAtomOps(t *testing.T) {
	ops := []struct {
		op  Op
		cmp func(x, k int32) bool
	}{
		{Lt, func(x, k int32) bool { return x < k }},
		{Le, func(x, k int32) bool { return x <= k }},
		{Eq, func(x, k int32) bool { return x == k }},
		{Ge, func(x, k int32) bool { return x >= k }},
		{Gt, func(x, k int32) bool { return x > k }},
	}
	for _, o := range ops {
		for _, k := range []int32{0, 3, MaxClockCap} {
			for _, x := range []int32{0, k - 1, k, k + 1, MaxClockCap} {
				s := &State{Clocks: []int32{x}, Vars: []int32{k}}
				for _, a := range []Atom{Clk(0, o.op, k), ClkVar(0, o.op, 0)} {
					holds := atomsHold([]Atom{a}, s)
					lo, hi := a.narrow(k, x, x)
					if want := o.cmp(x, k); holds != want || (lo <= hi) != want {
						t.Errorf("op %03b bound %d (var %v) at %d: holds %v, narrow [%d, %d], want %v", o.op, k, a.Var >= 0, x, holds, lo, hi, want)
					}
				}
			}
		}
	}
}
