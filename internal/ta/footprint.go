package ta

import "slices"

// Footprint declares the slots of the state vector a closure reads and
// writes: a location's Invariant, or an edge's Guard and Update together.
// An edge's constant assignments (Edge.Assign) need no declaration; theirs
// is exact by construction. From the footprints the network derives the
// quotient a checker may explore in its place (DeadClocks, Observers), and
// Analyze finds useless resets. A closure with no footprint is an Analyze
// structure problem, and everything here takes it to read every slot.
//
// A declaration may over-approximate but never omit: a closure reads only
// the slots it lists, and an Update writes only WriteClocks and WriteVars.
type Footprint struct {
	// Clocks and Vars list the clocks and variables read, Locs the
	// automata whose location is read.
	Clocks, Vars, Locs []int
	// Unless lists the clocks read only while a variable differs from a
	// value: Clock is read only while Var, which is read, is not Val.
	Unless []ClockVar
	// WriteClocks and WriteVars list what Update may write.
	WriteClocks, WriteVars []int
	// Resets lists the clocks Update resets whenever it moves a variable
	// off a value: it changes Var from Val only while giving Clock a value
	// Clock's old value does not decide.
	Resets []ClockVar
}

// ClockVar ties a clock to a variable holding a value (Footprint.Unless,
// Footprint.Resets).
type ClockVar struct {
	Clock, Var int
	Val        int32
}

// readsClock reports whether a closure with footprint f may read clock c;
// a nil f is undeclared.
func (f *Footprint) readsClock(c int) bool {
	return f == nil || slices.Contains(f.Clocks, c) ||
		slices.ContainsFunc(f.Unless, func(u ClockVar) bool { return u.Clock == c })
}

// readsVar reports whether a closure with footprint f may read variable v.
func (f *Footprint) readsVar(v int) bool {
	return f == nil || slices.Contains(f.Vars, v) ||
		slices.ContainsFunc(f.Unless, func(u ClockVar) bool { return u.Var == v })
}

// site is one place closures may run: a location's invariant (e nil), or
// an edge's guard and update, with their footprint.
type site struct {
	aut, loc, edge int // loc: the invariant's location, or the edge's source
	e              *Edge
	f              *Footprint
}

// none is the footprint of an edge with neither guard nor update.
var none = &Footprint{}

// sites lists every invariant and every edge.
func (n *Network) sites() []site {
	var out []site
	for ai, a := range n.automata {
		for li := range a.Locations {
			if l := &a.Locations[li]; l.Invariant != nil {
				out = append(out, site{ai, li, -1, nil, l.Footprint})
			}
		}
		for ei := range a.Edges {
			e, f := &a.Edges[ei], a.Edges[ei].Footprint
			if e.Guard == nil && e.Update == nil {
				f = none
			}
			out = append(out, site{ai, e.From, ei, e, f})
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

// DeadClocks derives the network's dead-clock table from the declared
// footprints. A clock is dead in a configuration when nothing can read it
// before its next reset: its value then decides nothing, so storing it as
// 0 maps the network onto a strongly bisimilar quotient that keeps every
// label (the active-clock reduction UPPAAL applies). The predicates a
// checker evaluates on states beside the network's own closures (goals,
// prunes) read no clock, which the models' footprint oracle checks. A
// clock is dead
//
//   - at a location of the one automaton whose closures read it, when every
//     edge path from that location resets it before any of them can read it;
//   - while a variable v holds k, when every read of it is declared Unless
//     v == k and every edge that may move v off k resets it — a variable
//     that never returns to k, or leaves it only with a reset.
func (n *Network) DeadClocks() DeadTable {
	sites := n.sites()
	var table DeadTable
	for c := range n.clockCaps {
		var readers []*Footprint
		owner := 0 // no reader: dead wherever automaton 0 is
		for _, s := range sites {
			if s.f.readsClock(c) {
				if len(readers) > 0 && s.aut != owner {
					owner = -1
				} else if len(readers) == 0 {
					owner = s.aut
				}
				readers = append(readers, s.f)
			}
		}
		row := DeadClock{Clock: c, Var: -1}
		if owner >= 0 && len(n.automata) > 0 {
			row.Aut, row.Locs = owner, n.deadLocs(sites, owner, c)
		}
		if len(readers) > 0 && readers[0] != nil {
			for _, u := range readers[0].Unless {
				if u.Clock == c && !slices.ContainsFunc(readers, func(f *Footprint) bool {
					return f == nil || slices.Contains(f.Clocks, c) || !slices.Contains(f.Unless, u)
				}) && !slices.ContainsFunc(sites, func(s site) bool { return s.e != nil && s.e.moves(u.Var, u.Val, c) }) {
					row.Var, row.Val = u.Var, u.Val
					break
				}
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
// one of whose edges reads it, and at one with an edge that does not reset
// it into a location where it is live.
func (n *Network) deadLocs(sites []site, aut, c int) uint64 {
	live := make([]bool, len(n.automata[aut].Locations))
	in := func(l int) bool { return l >= 0 && l < len(live) }
	for _, s := range sites {
		if s.aut == aut && in(s.loc) && s.f.readsClock(c) {
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

// Observers returns the variables no guard, invariant or update reads,
// ascending. Their values decide no transition, so a checker that
// evaluates no predicate on states may store them as 0: with the dead
// clocks, a label-preserving strong bisimulation.
func (n *Network) Observers() []int {
	sites := n.sites()
	var out []int
	for v := range n.varInit {
		if !slices.ContainsFunc(sites, func(s site) bool { return s.f.readsVar(v) }) {
			out = append(out, v)
		}
	}
	return out
}
