package models

import "repro/internal/ta"

// The participants of a model are identical by construction: the same
// automata, constants and channels, differing only in which slots of the
// state vector they own. Exchanging two participants' slots maps every run
// of the network onto a run (labels renamed), so a configuration and each
// of its permutations decide the same verdicts. The verdict path stores one
// member of each orbit: after zeroing dead clocks and unread observer-only
// variables, its canonicaliser sorts the participants' blocks into
// lexicographic order (DESIGN.md, "Verdicts explore a quotient";
// quotient_test.go's equivariance oracle checks every block against the
// unreduced successor relation).

// block is one participant's share of the state vector. Each build function
// appends the slots it declares for participant i to m.blocks[i], beside
// its dead-clock rows, so every block lists the same kinds of slot in the
// same order.
type block struct {
	auts, vars, clocks []int
}

// symmetry is the interchangeable group laid out for sorting: member g owns
// automata auts[g*nAuts:(g+1)*nAuts], and likewise for variables and
// clocks. A group of fewer than two members sorts nothing.
type symmetry struct {
	members               int
	nAuts, nVars, nClocks int
	auts, vars, clocks    []int
}

// newSymmetry flattens the blocks of the members of a group, which must all
// have one shape.
func newSymmetry(members []block) symmetry {
	if len(members) < 2 {
		return symmetry{}
	}
	first := members[0]
	sy := symmetry{members: len(members), nAuts: len(first.auts), nVars: len(first.vars), nClocks: len(first.clocks)}
	for _, b := range members {
		if len(b.auts) != sy.nAuts || len(b.vars) != sy.nVars || len(b.clocks) != sy.nClocks {
			panic("models: participant blocks differ in shape")
		}
		sy.auts = append(sy.auts, b.auts...)
		sy.vars = append(sy.vars, b.vars...)
		sy.clocks = append(sy.clocks, b.clocks...)
	}
	return sy
}

// group is the model's interchangeable group: every participant, except
// that a lone R1 monitor on p[1] sets p[1] apart.
func (m *Model) group() symmetry {
	members := m.blocks
	if !m.Cfg.NoMonitor && !m.Cfg.MonitorAll {
		members = members[1:]
	}
	return newSymmetry(members)
}

// sort insertion-sorts the members' blocks of s by (locations, variables,
// clocks). Pure and allocation-free, as a canonicaliser must be.
func (sy *symmetry) sort(s *ta.State) {
	for i := 1; i < sy.members; i++ {
		for j := i; j > 0 && sy.compare(s, j, j-1) < 0; j-- {
			sy.swap(s, j, j-1)
		}
	}
}

// compare orders members a and b of s lexicographically by (locations,
// variables, clocks).
func (sy *symmetry) compare(s *ta.State, a, b int) int {
	if c := compareSlots(s.Locs, sy.auts, sy.nAuts, a, b); c != 0 {
		return c
	}
	if c := compareSlots(s.Vars, sy.vars, sy.nVars, a, b); c != 0 {
		return c
	}
	return compareSlots(s.Clocks, sy.clocks, sy.nClocks, a, b)
}

// swap exchanges members a and b of s.
func (sy *symmetry) swap(s *ta.State, a, b int) {
	swapSlots(s.Locs, sy.auts, sy.nAuts, a, b)
	swapSlots(s.Vars, sy.vars, sy.nVars, a, b)
	swapSlots(s.Clocks, sy.clocks, sy.nClocks, a, b)
}

// compareSlots compares the values members a and b hold in one kind of
// slot; idx lists each member's slot indices into vals, stride apart.
func compareSlots[T uint8 | int32](vals []T, idx []int, stride, a, b int) int {
	ia, ib := idx[a*stride:(a+1)*stride], idx[b*stride:(b+1)*stride]
	for k := range ia {
		if x, y := vals[ia[k]], vals[ib[k]]; x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// swapSlots exchanges the values members a and b hold in one kind of slot.
func swapSlots[T uint8 | int32](vals []T, idx []int, stride, a, b int) {
	ia, ib := idx[a*stride:(a+1)*stride], idx[b*stride:(b+1)*stride]
	for k := range ia {
		vals[ia[k]], vals[ib[k]] = vals[ib[k]], vals[ia[k]]
	}
}
