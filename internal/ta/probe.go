package ta

import "slices"

// Probe-state machinery for the model analyzer (analyze.go). Whether a
// guard can hold, or two effects agree, is not declared, so the analyzer
// evaluates closures over a deterministic grid of configurations: a few
// base vectors refined by single- and pairwise-coordinate scans. All
// enumeration is in a fixed order, so results are reproducible.

// probeCoord is one mutable coordinate of the probe grid: a location
// index, a clock, or a variable, together with its candidate values.
type probeCoord struct {
	kind int // coordLoc, coordClock, coordVar
	idx  int
	vals []int32
}

const (
	coordLoc = iota
	coordClock
	coordVar
)

type probeCtx struct {
	n      *Network
	bases  []State
	coords []probeCoord
}

func newProbeCtx(n *Network) *probeCtx {
	pc := &probeCtx{n: n}

	// Base vectors: the initial configuration, all-zeros, and all clocks
	// at their caps (variables at their initial values).
	init := n.Initial()
	zeros := init.Clone()
	clear(zeros.Clocks)
	clear(zeros.Vars)
	caps := init.Clone()
	for i, c := range n.clockCaps {
		caps.Clocks[i] = c
	}
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
		locs := make([]int32, len(a.Locations))
		for i := range locs {
			locs[i] = int32(i)
		}
		pc.coords = append(pc.coords, probeCoord{coordLoc, ai, locs})
	}
	for ci, cap := range n.clockCaps {
		// Clocks get their full reachable range: caps are small by
		// construction (the largest relevant constant plus one), and model
		// guards compare clocks against arbitrary interior constants.
		pc.coords = append(pc.coords, probeCoord{coordClock, ci, fullRange(cap)})
	}
	for vi := range n.varInit {
		pc.coords = append(pc.coords, probeCoord{coordVar, vi, varVals})
	}
	return pc
}

// fullRange returns [0, 1, ..., cap].
func fullRange(cap int32) []int32 {
	out := make([]int32, cap+1)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func (c probeCoord) get(s *State) int32 {
	switch c.kind {
	case coordLoc:
		return int32(s.Locs[c.idx])
	case coordClock:
		return s.Clocks[c.idx]
	default:
		return s.Vars[c.idx]
	}
}

func (c probeCoord) set(s *State, v int32) {
	switch c.kind {
	case coordLoc:
		s.Locs[c.idx] = uint8(v)
	case coordClock:
		s.Clocks[c.idx] = v
	default:
		s.Vars[c.idx] = v
	}
}

// forEach enumerates the probe grid with automaton fixAut pinned to
// location fixLoc: each base vector, then single-coordinate scans, then
// ordered pairwise scans. visit returning true stops the enumeration
// early. The state passed to visit is reused; visit must not retain it.
//
// lite enumerates a cheaper grid: single scans of locations and clocks
// only. The clock-cap check varies one clock on top of each context, so
// the combination still covers pairwise interactions; scanning variables
// would probe values outside any reachable domain and manufacture spurious
// cap-soundness differences.
func (pc *probeCtx) forEach(fixAut, fixLoc int, lite bool, visit func(*State) bool) bool {
	skip := func(c probeCoord) bool {
		return c.kind == coordLoc && c.idx == fixAut || lite && c.kind == coordVar
	}
	for _, base := range pc.bases {
		s := base.Clone()
		if fixAut >= 0 {
			s.Locs[fixAut] = uint8(fixLoc)
		}
		if visit(&s) {
			return true
		}
		for i, ci := range pc.coords {
			if skip(ci) {
				continue // the probed automaton stays at fixLoc
			}
			save := ci.get(&s)
			for _, v := range ci.vals {
				ci.set(&s, v)
				if visit(&s) {
					ci.set(&s, save)
					return true
				}
				for _, cj := range pc.coords[i+1:] {
					if lite || skip(cj) {
						continue
					}
					save2 := cj.get(&s)
					for _, v2 := range cj.vals {
						cj.set(&s, v2)
						if visit(&s) {
							cj.set(&s, save2)
							ci.set(&s, save)
							return true
						}
					}
					cj.set(&s, save2)
				}
			}
			ci.set(&s, save)
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

// safeEval evaluates g on s; ok is false if g panicked.
func safeEval(g Guard, s *State) (result, ok bool) {
	ok = safely(func() { result = g(s) })
	return result, ok
}

// satisfiable reports whether pred is true on at least one probe state
// with automaton aut at location loc. Closures that panic on synthetic
// states make the check inconclusive, which counts as satisfiable (no
// false alarm from a probe artefact).
func (pc *probeCtx) satisfiable(aut, loc int, pred Guard) bool {
	panicked := false
	sat := pc.forEach(aut, loc, false, func(s *State) bool {
		v, ok := safeEval(pred, s)
		if !ok {
			panicked = true
			return true
		}
		return v
	})
	return sat || panicked
}

// distinguishable reports whether g1 and g2 differ on any probe state
// with automaton aut at location loc.
func (pc *probeCtx) distinguishable(aut, loc int, g1, g2 Guard) bool {
	return pc.forEach(aut, loc, false, func(s *State) bool {
		v1, ok1 := safeEval(g1, s)
		v2, ok2 := safeEval(g2, s)
		if !ok1 || !ok2 {
			return true // inconclusive: treat as distinguishable
		}
		return v1 != v2
	})
}

// safeApply runs update u on a clone of s and returns the result; ok is
// false if u panicked.
func safeApply(u Update, s *State) (out State, ok bool) {
	out = s.Clone()
	ok = safely(func() { u(&out) })
	return out, ok
}

// updatesDiffer reports whether u1 and u2 produce different states from
// any probe state with automaton aut at location loc.
func (pc *probeCtx) updatesDiffer(aut, loc int, u1, u2 Update) bool {
	return pc.forEach(aut, loc, false, func(s *State) bool {
		o1, ok1 := safeApply(u1, s)
		o2, ok2 := safeApply(u2, s)
		return !ok1 || !ok2 || // inconclusive: treat as differing
			!slices.Equal(o1.Locs, o2.Locs) || !slices.Equal(o1.Clocks, o2.Clocks) || !slices.Equal(o1.Vars, o2.Vars)
	})
}

// capDistinguished reports whether g differs between clock ci at its cap
// and at cap+1 or cap+2, in some probe context where inv (the source
// location's invariant, nil for none) holds at both values. Such a guard
// breaks the capping soundness condition: the capped exploration would
// hold the clock at cap while the true run moves past it.
func (pc *probeCtx) capDistinguished(aut, loc, ci int, inv, g Guard) bool {
	cap := pc.n.clockCaps[ci]
	return pc.forEach(aut, loc, true, func(s *State) bool {
		save := s.Clocks[ci]
		defer func() { s.Clocks[ci] = save }()
		s.Clocks[ci] = cap
		if inv != nil {
			if held, ok := safeEval(inv, s); !ok || !held {
				return false
			}
		}
		atCap, ok := safeEval(g, s)
		if !ok {
			return false
		}
		for _, beyond := range []int32{cap + 1, cap + 2} {
			s.Clocks[ci] = beyond
			if inv != nil {
				if held, ok := safeEval(inv, s); !ok || !held {
					continue
				}
			}
			got, ok := safeEval(g, s)
			if !ok {
				continue
			}
			if got != atCap {
				return true
			}
		}
		return false
	})
}
