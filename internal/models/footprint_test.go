package models

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/mc"
	"repro/internal/ta"
)

// The quotient tables are derived from the clock atoms and literals, which
// are data, and from what each guard predicate and computed update declares
// it reads and writes (ta.Footprint). This oracle holds every declaration
// to its closure on every reachable state of the models the quotient
// oracles cover.

// slot is one component of the state vector: the location of automaton idx
// (kind slotLoc), clock idx or variable idx.
type slot struct{ kind, idx int }

const (
	slotLoc = iota
	slotClock
	slotVar
)

func (sl slot) String() string {
	return fmt.Sprintf("%s %d", [...]string{"the location of automaton", "clock", "variable"}[sl.kind], sl.idx)
}

func (sl slot) get(s *ta.State) int32 {
	switch sl.kind {
	case slotLoc:
		return int32(s.Locs[sl.idx])
	case slotClock:
		return s.Clocks[sl.idx]
	}
	return s.Vars[sl.idx]
}

func (sl slot) set(s *ta.State, v int32) {
	switch sl.kind {
	case slotLoc:
		s.Locs[sl.idx] = uint8(v)
	case slotClock:
		s.Clocks[sl.idx] = v
	default:
		s.Vars[sl.idx] = v
	}
}

// footprintOracle is a goal predicate for the unreduced checker: broken(s)
// reports that, at s, a closure depends on or writes a slot its footprint
// does not declare. Each guard predicate of an edge leaving a current
// location and each update of such an edge whose predicate holds is
// evaluated again with one undeclared slot perturbed at a time: a location
// to each other location of its automaton, a clock to 0 and to the largest
// value it reaches, a variable to each other value it reaches. No closure
// may read a clock, so every clock an update does not write is undeclared.
// A predicate must keep its result; an update must write the same values
// to its declared writes and leave every other slot as it found it,
// perturbed or not; and where it moves v off k, a clock it declares reset
// with that move must get a value its old one does not decide. The
// requirement predicates, declared to read no clock, are held to that too.
type footprintOracle struct {
	auts  []*ta.Automaton
	preds []func(*ta.State) bool
	// vals lists each variable's reached values, top each clock's largest.
	vals [][]int32
	top  []int32
	// all lists every slot, locs each automaton's locations, noClock the
	// predicates' footprint; in, out and alt are scratch states.
	all          []slot
	locs         [][]int32
	noClock      *ta.Footprint
	in, out, alt ta.State
	why          string
}

// newFootprintOracle walks the reachable states once for the values the
// perturbations use.
func newFootprintOracle(net *ta.Network, preds []func(*ta.State) bool, opts mc.Options) (*footprintOracle, error) {
	init := net.Initial()
	o := &footprintOracle{auts: net.Automata(), preds: preds, vals: make([][]int32, len(init.Vars)), top: make([]int32, len(init.Clocks))}
	o.noClock = &ta.Footprint{}
	for a, aut := range o.auts {
		o.all, o.noClock.Locs = append(o.all, slot{slotLoc, a}), append(o.noClock.Locs, a)
		o.locs = append(o.locs, nil)
		for l := range aut.Locations {
			o.locs[a] = append(o.locs[a], int32(l))
		}
	}
	for c := range init.Clocks {
		o.all = append(o.all, slot{slotClock, c})
	}
	for v := range init.Vars {
		o.all, o.noClock.Vars = append(o.all, slot{slotVar, v}), append(o.noClock.Vars, v)
	}
	_, err := exactCheck(net, func(s *ta.State) bool {
		for v, x := range s.Vars {
			if !slices.Contains(o.vals[v], x) {
				o.vals[v] = append(o.vals[v], x)
			}
		}
		for c, x := range s.Clocks {
			o.top[c] = max(o.top[c], x)
		}
		return false
	}, opts)
	return o, err
}

// perturb calls try once per perturbation of s in a slot f leaves
// undeclared at s, with s perturbed, and restores s; it stops at the first
// try that reports a failure.
func (o *footprintOracle) perturb(s *ta.State, f *ta.Footprint, try func(sl slot) bool) bool {
	each := func(sl slot, vals []int32) bool {
		old := sl.get(s)
		for _, v := range vals {
			if v == old {
				continue
			}
			sl.set(s, v)
			failed := try(sl)
			sl.set(s, old)
			if failed {
				return true
			}
		}
		return false
	}
	for a, locs := range o.locs {
		if !slices.Contains(f.Locs, a) && each(slot{slotLoc, a}, locs) {
			return true
		}
	}
	for c := range s.Clocks {
		if !slices.Contains(f.WriteClocks, c) && each(slot{slotClock, c}, []int32{0, o.top[c]}) {
			return true
		}
	}
	for v := range s.Vars {
		declared := slices.Contains(f.Vars, v) || slices.Contains(f.WriteVars, v)
		if !declared && each(slot{slotVar, v}, o.vals[v]) {
			return true
		}
	}
	return false
}

// closure names what the oracle evaluates: edge number edge of aut, or
// with no aut requirement predicate edge.
type closure struct {
	aut  *ta.Automaton
	edge int
}

func (c closure) String() string {
	if c.aut == nil {
		return fmt.Sprintf("predicate %d", c.edge)
	}
	return fmt.Sprintf("%s edge %d (%s)", c.aut.Name, c.edge, c.aut.Edges[c.edge].Label)
}

// guard reports a result of predicate g at s that an undeclared slot
// changes.
func (o *footprintOracle) guard(s *ta.State, g func(*ta.State) bool, f *ta.Footprint, what closure) bool {
	if f == nil {
		o.why = what.String() + " declares no footprint"
		return true
	}
	want := g(s)
	return o.perturb(s, f, func(sl slot) bool {
		if g(s) != want {
			o.why = fmt.Sprintf("%s reads undeclared %v", what, sl)
			return true
		}
		return false
	})
}

// apply runs u on a copy of s into dst.
func apply(dst, s *ta.State, u ta.Update) {
	copyState(dst, s)
	u(dst)
}

// update reports an undeclared write of u at s, or a declared write that an
// undeclared slot changes.
func (o *footprintOracle) update(s *ta.State, u ta.Update, f *ta.Footprint, what closure) bool {
	if f == nil {
		o.why = what.String() + " declares no footprint"
		return true
	}
	apply(&o.out, s, u)
	written := func(sl slot) bool {
		return sl.kind == slotClock && slices.Contains(f.WriteClocks, sl.idx) || sl.kind == slotVar && slices.Contains(f.WriteVars, sl.idx)
	}
	// unwritten reports a slot that out changed from in but f does not
	// declare written.
	unwritten := func(in, out *ta.State) (slot, bool) {
		for _, sl := range o.all {
			if !written(sl) && sl.get(in) != sl.get(out) {
				return sl, true
			}
		}
		return slot{}, false
	}
	if sl, ok := unwritten(s, &o.out); ok {
		o.why = fmt.Sprintf("%s writes undeclared %v", what, sl)
		return true
	}
	if o.perturb(s, f, func(p slot) bool {
		apply(&o.alt, s, u)
		if sl, ok := unwritten(s, &o.alt); ok {
			o.why = fmt.Sprintf("%s writes undeclared %v once %v is perturbed", what, sl, p)
			return true
		}
		for _, sl := range o.all {
			if written(sl) && sl.get(&o.alt) != sl.get(&o.out) {
				o.why = fmt.Sprintf("%s writes %v a value undeclared %v decides", what, sl, p)
				return true
			}
		}
		return false
	}) {
		return true
	}
	for _, r := range f.Resets {
		if s.Vars[r.Var] != r.Val || o.out.Vars[r.Var] == r.Val {
			continue
		}
		c, old := slot{slotClock, r.Clock}, s.Clocks[r.Clock]
		for _, v := range []int32{0, o.top[r.Clock]} {
			c.set(s, v)
			apply(&o.alt, s, u)
			c.set(s, old)
			if o.alt.Clocks[r.Clock] != o.out.Clocks[r.Clock] {
				o.why = fmt.Sprintf("%s moves variable %d off %d without resetting clock %d", what, r.Var, r.Val, r.Clock)
				return true
			}
		}
	}
	return false
}

func (o *footprintOracle) broken(s *ta.State) bool {
	copyState(&o.in, s)
	s = &o.in // perturbed in place, so never the explorer's state
	for ai, aut := range o.auts {
		for ei := range aut.Edges {
			e := &aut.Edges[ei]
			if e.From != int(s.Locs[ai]) {
				continue
			}
			what, pred := closure{aut, ei}, e.Guard.Pred
			if pred != nil && o.guard(s, pred, e.Footprint, what) {
				return true
			}
			if e.Update != nil && (pred == nil || pred(s)) && o.update(s, e.Update, e.Footprint, what) {
				return true
			}
		}
	}
	for i, pred := range o.preds {
		if o.guard(s, pred, o.noClock, closure{nil, i}) {
			return true
		}
	}
	return false
}

// footprintCase is one model the footprint oracle covers, with the
// predicates the verdict path evaluates on it.
type footprintCase struct {
	m        *Model
	net      *ta.Network
	preds    []func(*ta.State) bool
	lossless bool
}

// footprintGrid is every model the footprint oracle covers: the models of
// the bisimulation and trace oracles, and the shutdown models with their
// monitor and predicate.
func footprintGrid(t *testing.T) []footprintCase {
	var grid []footprintCase
	for _, tc := range quotientGrid() {
		m, err := Build(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		grid = append(grid, footprintCase{m, m.Net, m.requirementPreds(), tc.lossless})
	}
	for _, tc := range traceQuotientGrid() {
		if tc.wide {
			m, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			grid = append(grid, footprintCase{m, m.Net, nil, false})
		}
	}
	for _, cfg := range shutdownOracleConfigs() {
		sm, err := BuildWithShutdownMonitor(cfg, cfg.ShutdownBound())
		if err != nil {
			t.Fatal(err)
		}
		grid = append(grid, footprintCase{sm.Model, sm.Net, []func(*ta.State) bool{sm.Violated}, false})
	}
	return grid
}

// checkFootprints runs the footprint oracle on tc over every reachable
// state, or with prefix over a breadth-first prefix of them.
func checkFootprints(tc footprintCase, prefix bool) (states int, failure string, err error) {
	var opts mc.Options
	if tc.lossless {
		opts.Prune = tc.m.MessageLost
	}
	if prefix {
		opts.MaxStates = footprintPrefix
	}
	o, err := newFootprintOracle(tc.net, tc.preds, opts)
	if err != nil && !(prefix && errors.Is(err, mc.ErrStateLimit)) {
		return 0, "", err
	}
	return runOracle(tc.net, o.broken, &o.why, prefix, opts)
}

// footprintPrefix is the breadth-first prefix a plain go test walks of
// each model.
const footprintPrefix = 600

// TestFootprintOracle holds every declared footprint to its closure over
// the footprint grid: 0 failures. By name it walks every reachable state
// of each model; a plain go test walks a prefix of each. An update is
// checked wherever its edge's predicate holds, whatever its literals and
// atoms say: a superset of the states it runs in.
func TestFootprintOracle(t *testing.T) {
	t.Parallel()
	grid, total := footprintGrid(t), 0
	for _, tc := range grid {
		states, failure, err := checkFootprints(tc, !fullScale())
		if err != nil {
			t.Fatal(err)
		}
		if failure != "" {
			t.Errorf("%+v: %s", tc.m.Cfg, failure)
		}
		total += states
	}
	t.Logf("%d models, %d unreduced states checked (full scale: %v)", len(grid), total, fullScale())
}

// TestFootprintOracleCatchesMutants: the oracle can fail, once per kind of
// wrong declaration. The responder's watchdog expiry gets a predicate that
// reads its clock; p[0]'s round update leaves the round length it writes
// out.
func TestFootprintOracleCatchesMutants(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		mutate func(m *Model)
	}{
		{"undeclared clock read", Config{TMin: 1, TMax: 3, Variant: Binary, N: 1, NoMonitor: true}, func(m *Model) {
			for ei := range m.Net.Automata()[m.ps[0].aut].Edges {
				if e := &m.Net.Automata()[m.ps[0].aut].Edges[ei]; e.From == m.ps[0].alive && e.To == m.ps[0].nvInact {
					bound := m.Cfg.responderBound()
					e.Guard.Pred = func(s *ta.State) bool { return s.Clocks[m.ps[0].wfb] == bound }
					e.Footprint = &ta.Footprint{}
				}
			}
		}},
		{"undeclared write", Config{TMin: 1, TMax: 3, Variant: Binary, N: 1, NoMonitor: true}, func(m *Model) {
			for ei := range m.Net.Automata()[m.p0.aut].Edges {
				if e := &m.Net.Automata()[m.p0.aut].Edges[ei]; e.From == m.p0.timeout && e.To == m.p0.alive {
					f := *e.Footprint
					f.WriteVars = slices.DeleteFunc(slices.Clone(f.WriteVars), func(v int) bool { return v == m.p0.t })
					e.Footprint = &f
				}
			}
		}},
	} {
		m, err := Build(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(m)
		_, failure, err := checkFootprints(footprintCase{m, m.Net, m.requirementPreds(), false}, false)
		if err != nil {
			t.Fatal(err)
		}
		if failure == "" {
			t.Errorf("%s: the oracle found nothing wrong", tc.name)
		} else {
			t.Logf("%s: %s", tc.name, failure)
		}
	}
}
