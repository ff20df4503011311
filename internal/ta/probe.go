package ta

import "slices"

// Probe-state machinery for the model analyzer (analyze.go): the grid of
// locations and variables, and the interval solver for clock atoms. All
// enumeration is in a fixed order, so results are reproducible.

// point is one coordinate of the probe grid at one candidate value: the
// location of automaton idx (loc set), or variable idx.
type point struct {
	loc bool
	idx int
	val int32
}

func (p point) set(s *State) {
	if p.loc {
		s.Locs[p.idx] = uint8(p.val)
	} else {
		s.Vars[p.idx] = p.val
	}
}

type probeCtx struct {
	n      *Network
	bases  []State
	points []point // grouped by coordinate
	// lo and hi are scratch intervals, one per clock, for each of the two
	// guards a probe may solve.
	lo, hi [2][]int32
}

func newProbeCtx(n *Network) *probeCtx {
	pc := &probeCtx{n: n}

	// Base vectors: the initial configuration, all-zeros, and all clocks
	// at their caps (variables at their initial values). Clocks matter
	// only to the effects compared.
	init := n.Initial()
	zeros := init.Clone()
	clear(zeros.Vars)
	caps := init.Clone()
	copy(caps.Clocks, n.clockCaps)
	pc.bases = []State{init, zeros, caps}

	// Variable candidates: small integers, every declared initial value,
	// and every clock cap (the model constants — tmin, tmax, n — surface
	// as caps), each ±1.
	varVals := append([]int32{-1, 0, 1, 2}, n.varInit...)
	for _, c := range n.clockCaps {
		varVals = append(varVals, c-1, c)
	}
	slices.Sort(varVals)
	varVals = slices.Compact(varVals)

	for ai, a := range n.automata {
		for l := range a.Locations {
			pc.points = append(pc.points, point{true, ai, int32(l)})
		}
	}
	for vi := range n.varInit {
		for _, v := range varVals {
			pc.points = append(pc.points, point{false, vi, v})
		}
	}
	for i := range pc.lo {
		pc.lo[i], pc.hi[i] = make([]int32, len(n.clockCaps)), make([]int32, len(n.clockCaps))
	}
	return pc
}

// forEach enumerates the probe grid with automaton fixAut pinned to
// location fixLoc: each base vector, then each base with one coordinate
// changed, each followed by its changes in one later coordinate. visit
// returning true stops the enumeration early. The state passed to visit is
// reused; visit must not retain it.
func (pc *probeCtx) forEach(fixAut, fixLoc int, visit func(*State) bool) bool {
	pts := slices.DeleteFunc(slices.Clone(pc.points), func(p point) bool { return p.loc && p.idx == fixAut })
	for _, b := range pc.bases {
		b, s := b.Clone(), b.Clone()
		b.Locs[fixAut] = uint8(fixLoc)
		for i := -1; i < len(pts); i++ {
			for j := i; j < len(pts); j++ {
				if j > i && (i < 0 || pts[j].loc == pts[i].loc && pts[j].idx == pts[i].idx) {
					continue // the base alone, or two values of one coordinate
				}
				copy(s.Locs, b.Locs)
				copy(s.Vars, b.Vars)
				for _, k := range []int{i, j} {
					if k >= 0 {
						pts[k].set(&s)
					}
				}
				if visit(&s) {
					return true
				}
			}
		}
	}
	return false
}

// safely runs f, reporting false if it panicked: a closure indexing state
// it was never meant to see makes the probe inconclusive rather than
// crashing the analyzer.
func safely(f func()) (ok bool) {
	defer func() { ok = recover() == nil }()
	f()
	return true
}

// solve reports whether g can hold at s's locations and variables, for
// some clock values within their caps that satisfy the cases of inv that
// apply there, and leaves those clock values as intervals in pc.lo[i] and
// pc.hi[i]. ok is false if g's predicate panicked.
func (pc *probeCtx) solve(i int, s *State, inv Invariant, g *Guard) (sat, ok bool) {
	lo, hi := pc.lo[i], pc.hi[i]
	for c, cap := range pc.n.clockCaps {
		lo[c], hi[c] = 0, cap
	}
	narrow := func(as []Atom) {
		for _, a := range as {
			lo[a.Clock], hi[a.Clock] = a.narrow(a.bound(s.Vars), lo[a.Clock], hi[a.Clock])
		}
	}
	narrow(g.Clocks)
	for _, k := range inv {
		if litsHold(k.When, s.Vars) {
			narrow(k.Then)
		}
	}
	sat = litsHold(g.Vars, s.Vars)
	for c := range lo {
		sat = sat && lo[c] <= hi[c]
	}
	ok = !sat || g.Pred == nil || safely(func() { sat = g.Pred(s) })
	return sat, ok
}

// satisfiable reports whether g and the invariant inv of location loc of
// automaton aut hold together at some probe. A predicate that panics on
// synthetic states makes the check inconclusive, which counts as
// satisfiable (no false alarm from a probe artefact).
func (pc *probeCtx) satisfiable(aut, loc int, inv Invariant, g *Guard) bool {
	return pc.forEach(aut, loc, func(s *State) bool {
		sat, ok := pc.solve(0, s, inv, g)
		return sat || !ok
	})
}

// distinguishable reports whether g1 and g2 differ at any probe with
// automaton aut at location loc: one holds where the other does not, or
// they admit different clock values.
func (pc *probeCtx) distinguishable(aut, loc int, g1, g2 *Guard) bool {
	return pc.forEach(aut, loc, func(s *State) bool {
		sat1, ok1 := pc.solve(0, s, nil, g1)
		sat2, ok2 := pc.solve(1, s, nil, g2)
		return !ok1 || !ok2 || // inconclusive: treat as distinguishable
			sat1 != sat2 || sat1 && !(slices.Equal(pc.lo[0], pc.lo[1]) && slices.Equal(pc.hi[0], pc.hi[1]))
	})
}

// effectsDiffer reports whether e1 and e2 produce different states from
// any probe with automaton aut at location loc.
func (pc *probeCtx) effectsDiffer(aut, loc int, e1, e2 *Edge) bool {
	return pc.forEach(aut, loc, func(s *State) bool {
		o1, o2 := s.Clone(), s.Clone()
		ok1, ok2 := safely(func() { e1.apply(&o1) }), safely(func() { e2.apply(&o2) })
		return !ok1 || !ok2 || // inconclusive: treat as differing
			!slices.Equal(o1.Locs, o2.Locs) || !slices.Equal(o1.Clocks, o2.Clocks) || !slices.Equal(o1.Vars, o2.Vars)
	})
}
