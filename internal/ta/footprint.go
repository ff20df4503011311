package ta

import "slices"

// Footprint declares the slots of the state vector an edge's closures
// read and write: its Guard.Pred and its Update together. Literals, clock
// atoms, invariants and constant assignments (Edge.Assign) need no
// declaration; what they read and write is exact by construction. From
// the atoms and the footprints the network derives the quotient a checker
// may explore in its place (DeadClocks, Observers), and Analyze finds
// useless resets. A closure with no footprint is an Analyze structure
// problem, and everything here takes it to read every variable.
//
// A declaration may over-approximate but never omit: a closure reads only
// the slots it lists, reads no clock, and an Update writes only WriteClocks
// and WriteVars.
type Footprint struct {
	// Vars lists the variables read, Locs the automata whose location is
	// read.
	Vars, Locs []int
	// WriteClocks and WriteVars list what Update may write.
	WriteClocks, WriteVars []int
	// Resets lists the clocks Update resets whenever it moves a variable
	// off a value: it changes Var from Val only while giving Clock a value
	// Clock's old value does not decide.
	Resets []ClockVar
}

// ClockVar ties a clock to a variable holding a value (Footprint.Resets).
type ClockVar struct {
	Clock, Var int
	Val        int32
}

// site is one place the network reads state: a location's invariant (e
// nil), or an edge's guard and update. An edge's guard is its one case.
type site struct {
	aut, loc, edge int // loc: the invariant's location, or the edge's source
	e              *Edge
	cases          []Case
	f              *Footprint
}

// none is the footprint of an edge with neither predicate nor update.
var none = &Footprint{}

// sites lists every invariant and every edge.
func (n *Network) sites() []site {
	size := 0
	for _, a := range n.automata {
		size += len(a.Locations) + len(a.Edges)
	}
	// Built in two allocations: the models build networks per check.
	out, guards := make([]site, 0, size), make([]Case, 0, size)
	for ai, a := range n.automata {
		for li := range a.Locations {
			if inv := a.Locations[li].Invariant; inv != nil {
				out = append(out, site{ai, li, -1, nil, inv, none})
			}
		}
		for ei := range a.Edges {
			e, f := &a.Edges[ei], a.Edges[ei].Footprint
			g := &e.Guard
			if g.Pred == nil && e.Update == nil {
				f = none
			}
			guards = append(guards, Case{g.Vars, g.Clocks})
			out = append(out, site{ai, e.From, ei, e, guards[len(guards)-1:], f})
		}
	}
	return out
}

// reads reports whether the case compares clock c.
func (k *Case) reads(c int) bool {
	return slices.ContainsFunc(k.Then, func(a Atom) bool { return a.Clock == c })
}

// readsClock reports whether s compares clock c.
func (s *site) readsClock(c int) bool {
	return slices.ContainsFunc(s.cases, func(k Case) bool { return k.reads(c) })
}

// unless reports whether s compares clock c only while variable v is not
// k: every case that compares it has a literal false at v == k.
func (s *site) unless(c, v int, k int32) bool {
	return !slices.ContainsFunc(s.cases, func(cs Case) bool {
		return cs.reads(c) && !slices.ContainsFunc(cs.When, func(l Lit) bool { return l.excludes(v, k) })
	})
}

// readsVar reports whether s may read variable v: by a literal, as an
// atom's bound, or by a closure.
func (s *site) readsVar(v int) bool {
	return s.f == nil || slices.Contains(s.f.Vars, v) || slices.ContainsFunc(s.cases, func(k Case) bool {
		return slices.ContainsFunc(k.When, func(l Lit) bool { return l.Var == v }) ||
			slices.ContainsFunc(k.Then, func(a Atom) bool { return a.Var == v })
	})
}

// values returns the values variable v starts at or is Set to.
func (n *Network) values(v int) []int32 {
	out := []int32{n.varInit[v]}
	for _, a := range n.automata {
		for _, e := range a.Edges {
			for _, as := range e.Assign {
				if !as.Clock && as.Idx == v && !slices.Contains(out, as.Val) {
					out = append(out, as.Val)
				}
			}
		}
	}
	return out
}

// unlessCandidates returns the pairs of a variable and a value it starts
// at or is Set to at which a literal of the first case comparing clock c
// of the first of readers is false.
func (n *Network) unlessCandidates(readers []*site, c int) []ClockVar {
	if len(readers) == 0 {
		return nil
	}
	cases := readers[0].cases
	var out []ClockVar
	for _, l := range cases[slices.IndexFunc(cases, func(k Case) bool { return k.reads(c) })].When {
		for _, val := range n.values(l.Var) {
			if l.excludes(l.Var, val) {
				out = append(out, ClockVar{c, l.Var, val})
			}
		}
	}
	return out
}

// resets reports whether e assigns clock c a constant.
func (e *Edge) resets(c int) bool {
	return slices.ContainsFunc(e.Assign, func(as Assign) bool { return as.Clock && as.Idx == c })
}

// moves reports whether a firing of e may change variable v from k and
// leave clock c at a value its old value decides.
func (e *Edge) moves(v int, k int32, c int) bool {
	f := e.Footprint
	return !e.resets(c) && (slices.ContainsFunc(e.Assign, func(as Assign) bool { return !as.Clock && as.Idx == v && as.Val != k }) ||
		e.Update != nil && (f == nil || slices.Contains(f.WriteVars, v) && !slices.Contains(f.Resets, ClockVar{c, v, k})))
}

// DeadClock is one row of a dead-clock table: Clock is dead while
// automaton Aut occupies a location of the bit set Locs (bit l for
// location l, so only the first 64 locations can be in it), or while
// variable Var holds Val (Var < 0: no such condition).
type DeadClock struct {
	Clock, Aut int
	Locs       uint64
	Var        int
	Val        int32
}

// DeadTable is a network's dead-clock table (DeadClocks).
type DeadTable []DeadClock

// Zero stores every clock that is dead in s as 0. It is pure and
// allocation-free, so a checker's canonicaliser may call it.
//
//hbvet:noalloc
func (t DeadTable) Zero(s *State) {
	for i := range t {
		d := &t[i]
		if d.Locs>>s.Locs[d.Aut]&1 == 1 || d.Var >= 0 && s.Vars[d.Var] == d.Val {
			s.Clocks[d.Clock] = 0
		}
	}
}

// DeadClocks derives the network's dead-clock table from the clock atoms
// and the declared footprints. A clock is dead in a configuration when
// nothing can read it before its next reset: its value then decides
// nothing, so storing it as 0 maps the network onto a strongly bisimilar
// quotient that keeps every label (the active-clock reduction UPPAAL
// applies). Only atoms read clocks: the closures, and the predicates a
// checker evaluates on states beside the network's own (goals, prunes),
// read none, which the models' footprint oracle checks. A clock is dead
//
//   - at a location of the one automaton whose atoms compare it, when every
//     edge path from that location resets it before any of them can;
//   - while a variable v holds k, when every atom comparing it sits under a
//     literal false at v == k and every edge that may move v off k resets
//     it — a variable that never returns to k, or leaves it only with a
//     reset.
func (n *Network) DeadClocks() DeadTable {
	sites := n.sites()
	var table DeadTable
	for c := range n.clockCaps {
		var readers []*site
		owner := 0 // no reader: dead wherever automaton 0 is
		for i := range sites {
			if s := &sites[i]; s.readsClock(c) {
				if len(readers) > 0 && s.aut != owner {
					owner = -1
				} else if len(readers) == 0 {
					owner = s.aut
				}
				readers = append(readers, s)
			}
		}
		row := DeadClock{Clock: c, Var: -1}
		if owner >= 0 && len(n.automata) > 0 {
			row.Aut, row.Locs = owner, n.deadLocs(sites, owner, c)
		}
		for _, u := range n.unlessCandidates(readers, c) {
			if !slices.ContainsFunc(readers, func(s *site) bool { return !s.unless(c, u.Var, u.Val) }) &&
				!slices.ContainsFunc(sites, func(s site) bool { return s.e != nil && s.e.moves(u.Var, u.Val, c) }) {
				row.Var, row.Val = u.Var, u.Val
				break
			}
		}
		if row.Locs != 0 || row.Var >= 0 {
			table = append(table, row)
		}
	}
	return table
}

// deadLocs returns the locations of automaton aut at which clock c is
// dead, by a backward fixpoint: c is live at a location whose invariant or
// one of whose edges compares it, and at one with an edge that does not
// reset it into a location where it is live.
func (n *Network) deadLocs(sites []site, aut, c int) uint64 {
	live := make([]bool, len(n.automata[aut].Locations))
	in := func(l int) bool { return l >= 0 && l < len(live) }
	for _, s := range sites {
		if s.aut == aut && in(s.loc) && s.readsClock(c) {
			live[s.loc] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sites {
			if e := s.e; s.aut == aut && e != nil && in(e.From) && !live[e.From] && !e.resets(c) && (!in(e.To) || live[e.To]) {
				live[e.From], changed = true, true
			}
		}
	}
	var dead uint64
	for l := range min(len(live), 64) {
		if !live[l] {
			dead |= 1 << l
		}
	}
	return dead
}

// LowerClocks returns, ascending, the clocks only lower bounds read: a
// guard atom compares the clock, every atom that compares it is > or >=,
// and no invariant compares it. Of two configurations equal but for larger
// values of these clocks, the larger then simulates the smaller: it enables
// every edge the smaller enables, with targets again equal but for larger
// values (updates read no clock, resets are constants, caps are monotone),
// and the same delay, which only invariants decide. So a goal search may
// skip a configuration once it holds one that covers it (mc's coverage).
// The edges whose enabledness changes another transition read none of
// them either, or the larger could fire differently: a broadcast receive,
// which joins its channel's every firing, and under receive priority a
// synchronising or delivery edge, which can make a delivery due and so
// suppress the timeouts.
func (n *Network) LowerClocks() []int {
	seen := make([]int8, len(n.clockCaps)) // 1: only lower bounds so far, -1: excluded
	for _, s := range n.sites() {
		for _, k := range s.cases {
			for _, a := range k.Then {
				switch {
				case s.e == nil || a.Op&Lt != 0 || a.Op&Gt == 0 || n.decidesOthers(s.e):
					seen[a.Clock] = -1
				case seen[a.Clock] == 0:
					seen[a.Clock] = 1
				}
			}
		}
	}
	var out []int
	for c, v := range seen {
		if v == 1 {
			out = append(out, c)
		}
	}
	return out
}

// decidesOthers reports whether e's being enabled can change a transition
// other than its own: e is a broadcast receive, or the network has receive
// priority and e synchronises or is a delivery.
func (n *Network) decidesOthers(e *Edge) bool {
	if e.Chan > 0 && int(e.Chan) < len(n.channels) && n.channels[e.Chan].Broadcast && !e.Send {
		return true
	}
	return n.priority && (e.Chan != 0 || e.Class == ClassDeliver)
}

// Observers returns the variables no guard, invariant or update reads,
// ascending. Their values decide no transition, so a checker that
// evaluates no predicate on states may store them as 0: with the dead
// clocks, a label-preserving strong bisimulation.
func (n *Network) Observers() []int {
	sites := n.sites()
	var out []int
	for v := range n.varInit {
		if !slices.ContainsFunc(sites, func(s site) bool { return s.readsVar(v) }) {
			out = append(out, v)
		}
	}
	return out
}
