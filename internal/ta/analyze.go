package ta

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// This file is the structural model analyzer behind `hbcheck -analyze` and
// `hbvet`'s Layer 2: a pre-flight pass over a built Network that catches
// model-construction bugs before any BFS runs. The structural checks,
// useless-reset and clock-cap are exact: they read the edges, the clock
// atoms and the declared footprints (footprint.go). Whether guards and
// invariants can hold, and whether two guards or effects agree, also
// depends on predicate closures and computed updates, so those checks go
// over a deterministic probe grid (probe.go): base configurations
// (initial, all-zero, clocks at cap) refined by single- and pairwise scans
// over each location and each variable's candidate constants (initials,
// clock caps, small integers). At each grid point the clock atoms are
// solved exactly, as an interval per clock. The checks are heuristic in
// the variables only: a guard reported unsatisfiable is false at every
// grid point for every clock value, and one needing three specific
// non-candidate variable values at once could be a false positive.
//
// Checks:
//
//   - structure: edge endpoints or channel ids out of range, initial
//     location out of range, more locations than the uint8 state vector
//     can index, handshake sends with no possible partner (and the
//     symmetric dead receives), channels declared but never used, a
//     guard predicate or update that declares no footprint.
//   - unreachable: locations no edge path from Init can reach (guards
//     ignored, so a flagged location is unreachable under any valuation).
//   - unsat-invariant: a location invariant false on every probe: the
//     location can never be occupied.
//   - unsat-guard: an edge guard false on every probe satisfying the
//     source location's invariant — the edge can never fire.
//   - nondet-pair: two same-label, same-channel edges from one location
//     whose guards agree on every probe: either a duplicate edge (same
//     effect) or unintended nondeterminism (different effect).
//   - useless-reset: an edge writes a clock that no atom compares.
//   - clock-cap: an atom distinguishes clock values at or above the
//     clock's cap, breaking the capping soundness condition documented on
//     Network.Clock. An atom bounded by a variable counts at the largest
//     value the variable starts at or is Set to; a computed update's
//     writes are not data, so a model that lets one raise such a bound
//     must keep it below the cap itself.
type Problem struct {
	// Check names the analysis that fired (see the list above).
	Check string
	// Automaton is the owning automaton's name ("" for network-level
	// problems such as unused channels).
	Automaton string
	// Where pinpoints the location, edge, or declaration.
	Where string
	// Message explains the problem.
	Message string
}

// String formats the problem as automaton/where: message [check].
func (p Problem) String() string {
	prefix := p.Where
	if p.Automaton != "" {
		prefix = p.Automaton + ": " + prefix
	}
	return fmt.Sprintf("%s: %s [%s]", prefix, p.Message, p.Check)
}

// Analyze runs every structural check over the network and returns the
// problems sorted by automaton, then position. A healthy model returns
// nil; the checker's -analyze pre-flight refuses to explore a model with
// any problem.
func (n *Network) Analyze() []Problem {
	n.compile()
	a := &analysis{n: n, pc: newProbeCtx(n)}
	a.checkStructure()
	a.checkReachability()
	a.checkGuards()
	a.checkNondetPairs()
	a.checkClockUse()
	a.checkClockCaps()
	sort.SliceStable(a.problems, func(i, j int) bool {
		if a.problems[i].Automaton != a.problems[j].Automaton {
			return a.problems[i].Automaton < a.problems[j].Automaton
		}
		return a.problems[i].Where < a.problems[j].Where
	})
	return a.problems
}

type analysis struct {
	n        *Network
	pc       *probeCtx
	problems []Problem
}

func (a *analysis) reportf(check string, aut int, where, format string, args ...any) {
	name := ""
	if aut >= 0 {
		name = a.n.automata[aut].Name
	}
	a.problems = append(a.problems, Problem{
		Check:     check,
		Automaton: name,
		Where:     where,
		Message:   fmt.Sprintf(format, args...),
	})
}

// edgeDesc renders edge ei of automaton ai as "from -> to (label)".
func (a *analysis) edgeDesc(ai, ei int) string {
	aut := a.n.automata[ai]
	e := aut.Edges[ei]
	name := func(loc int) string {
		if loc >= 0 && loc < len(aut.Locations) {
			return aut.Locations[loc].Name
		}
		return fmt.Sprintf("#%d", loc)
	}
	return fmt.Sprintf("edge %s -> %s (%s)", name(e.From), name(e.To), e.Label)
}

// ---------------------------------------------------------------------------
// structure

func (a *analysis) checkStructure() {
	n := a.n
	chanUsed := make([]bool, len(n.channels))
	chanUsed[0] = true // pseudo-channel for internal edges
	for ai, aut := range n.automata {
		if len(aut.Locations) == 0 {
			a.reportf("structure", ai, "automaton", "has no locations")
			continue
		}
		if len(aut.Locations) > 256 {
			a.reportf("structure", ai, "automaton",
				"%d locations overflow the uint8 location vector (max 256)", len(aut.Locations))
		}
		if aut.Init < 0 || aut.Init >= len(aut.Locations) {
			a.reportf("structure", ai, "automaton",
				"initial location %d out of range [0, %d)", aut.Init, len(aut.Locations))
		}
		for ei, e := range aut.Edges {
			if e.From < 0 || e.From >= len(aut.Locations) || e.To < 0 || e.To >= len(aut.Locations) {
				a.reportf("structure", ai, a.edgeDesc(ai, ei),
					"endpoint out of range [0, %d)", len(aut.Locations))
				continue
			}
			if e.Chan < 0 || int(e.Chan) >= len(n.channels) {
				a.reportf("structure", ai, a.edgeDesc(ai, ei),
					"channel id %d out of range [0, %d)", e.Chan, len(n.channels))
				continue
			}
			if e.Chan != 0 {
				chanUsed[e.Chan] = true
			}
		}
	}
	for _, s := range n.sites() {
		if s.f == nil {
			a.reportf("structure", s.aut, a.edgeDesc(s.aut, s.edge), "guard predicate or update declares no footprint")
		}
	}
	for ci := 1; ci < len(n.channels); ci++ {
		ch := ChanID(ci)
		if !chanUsed[ci] {
			a.reportf("structure", -1, fmt.Sprintf("channel %q", n.channels[ci].Name),
				"declared but never used on any edge")
			continue
		}
		sends, recvs := n.sendEdges[ch], n.recvEdges[ch]
		if n.channels[ci].Broadcast {
			// A broadcast send fires even with zero receivers, but a
			// receive with no sender can never fire.
			if len(recvs) > 0 && len(sends) == 0 {
				for _, r := range recvs {
					a.reportf("structure", r.aut, a.edgeDesc(r.aut, r.edge),
						"receives on broadcast channel %q, which has no sender", n.channels[ci].Name)
				}
			}
			continue
		}
		// Handshakes need a partner in a different automaton.
		for _, s := range sends {
			if !hasPartner(recvs, s.aut) {
				a.reportf("structure", s.aut, a.edgeDesc(s.aut, s.edge),
					"sends on channel %q, which has no receiver outside this automaton", n.channels[ci].Name)
			}
		}
		for _, r := range recvs {
			if !hasPartner(sends, r.aut) {
				a.reportf("structure", r.aut, a.edgeDesc(r.aut, r.edge),
					"receives on channel %q, which has no sender outside this automaton", n.channels[ci].Name)
			}
		}
	}
}

// hasPartner reports whether refs contains an edge of an automaton other
// than self (a handshake cannot pair two edges of one automaton).
func hasPartner(refs []edgeRef, self int) bool {
	for _, r := range refs {
		if r.aut != self {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// unreachable

// checkReachability flags locations that no edge path from Init can
// reach, with guards ignored — an over-approximation of reachability, so
// every flagged location is genuinely dead.
func (a *analysis) checkReachability() {
	for ai, aut := range a.n.automata {
		if aut.Init < 0 || aut.Init >= len(aut.Locations) {
			continue // already a structure problem
		}
		seen := make([]bool, len(aut.Locations))
		stack := []int{aut.Init}
		seen[aut.Init] = true
		for len(stack) > 0 {
			loc := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range aut.Edges {
				if e.From == loc && e.To >= 0 && e.To < len(aut.Locations) && !seen[e.To] {
					seen[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
		for li, ok := range seen {
			if !ok {
				a.reportf("unreachable", ai, fmt.Sprintf("location %s", aut.Locations[li].Name),
					"no edge path from initial location %s reaches it", aut.Locations[aut.Init].Name)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// guard and invariant satisfiability

func (a *analysis) checkGuards() {
	for ai, aut := range a.n.automata {
		invSat := make([]bool, len(aut.Locations))
		for li, loc := range aut.Locations {
			invSat[li] = a.pc.satisfiable(ai, li, loc.Invariant, &Guard{})
			if !invSat[li] {
				a.reportf("unsat-invariant", ai, fmt.Sprintf("location %s", loc.Name),
					"invariant is false on every probe state; the location can never be occupied")
			}
		}
		for ei := range aut.Edges {
			e := &aut.Edges[ei]
			if e.From < 0 || e.From >= len(aut.Locations) || !invSat[e.From] {
				continue // out of range, or cascading from the invariant problem
			}
			if !a.pc.satisfiable(ai, e.From, aut.Locations[e.From].Invariant, &e.Guard) {
				a.reportf("unsat-guard", ai, a.edgeDesc(ai, ei),
					"guard is false on every probe state satisfying %s's invariant; the edge can never fire",
					aut.Locations[e.From].Name)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// nondeterministic same-label pairs

// checkNondetPairs looks for pairs of edges out of one location with the
// same label and synchronisation whose guards agree on every probe: a
// duplicate edge if the effects agree too, unintended nondeterminism if
// they differ.
func (a *analysis) checkNondetPairs() {
	for ai, aut := range a.n.automata {
		for i := range aut.Edges {
			e1 := &aut.Edges[i]
			for j := i + 1; j < len(aut.Edges); j++ {
				e2 := &aut.Edges[j]
				if e1.From != e2.From || e1.Label != e2.Label ||
					e1.Chan != e2.Chan || e1.Send != e2.Send || e1.Class != e2.Class {
					continue
				}
				if e1.From < 0 || e1.From >= len(aut.Locations) {
					continue
				}
				if a.pc.distinguishable(ai, e1.From, &e1.Guard, &e2.Guard) {
					continue
				}
				sameTarget := e1.To == e2.To && !a.pc.effectsDiffer(ai, e1.From, e1, e2)
				if sameTarget {
					a.reportf("nondet-pair", ai, a.edgeDesc(ai, i),
						"duplicate of %s: same guard, target, and effect on every probe", a.edgeDesc(ai, j))
				} else {
					a.reportf("nondet-pair", ai, a.edgeDesc(ai, i),
						"guards agree with %s on every probe but the effects differ: unintended nondeterminism?",
						a.edgeDesc(ai, j))
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// useless clock resets

// checkClockUse flags edges that write a clock no atom compares: the reset
// only inflates the state space.
func (a *analysis) checkClockUse() {
	n := a.n
	sites := n.sites()
	for _, s := range sites {
		if s.e == nil {
			continue
		}
		var written []int
		if s.e.Update != nil && s.f != nil {
			written = slices.Clone(s.f.WriteClocks)
		}
		for _, as := range s.e.Assign {
			if as.Clock {
				written = append(written, as.Idx)
			}
		}
		for _, ci := range written {
			if ci >= 0 && ci < len(n.clockCaps) && !slices.ContainsFunc(sites, func(r site) bool { return r.readsClock(ci) }) {
				a.reportf("useless-reset", s.aut, a.edgeDesc(s.aut, s.edge),
					"writes clock %q, which no guard or invariant reads", n.clockNames[ci])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// clock cap soundness

// checkClockCaps verifies the soundness condition documented on
// Network.Clock: capping is exact only while no atom distinguishes clock
// values at or above the cap. An atom is monotone in its bound, so a
// variable bound is judged at its largest initial or Set value.
func (a *analysis) checkClockCaps() {
	n := a.n
	for _, s := range n.sites() {
		what, where := "invariant", ""
		if s.e != nil {
			what, where = "guard", a.edgeDesc(s.aut, s.edge)
		} else {
			where = "location " + n.automata[s.aut].Locations[s.loc].Name
		}
		for _, cs := range s.cases {
			for _, at := range cs.Then {
				k := at.K
				if at.Var >= 0 {
					k = slices.Max(n.values(at.Var))
				}
				cap := n.clockCaps[at.Clock]
				if lo, hi := at.narrow(k, cap, math.MaxInt32); lo <= hi && (lo > cap || hi < math.MaxInt32) {
					a.reportf("clock-cap", s.aut, where, "%s distinguishes %q values at or above its cap %d; raise the cap",
						what, n.clockNames[at.Clock], cap)
				}
			}
		}
	}
}
