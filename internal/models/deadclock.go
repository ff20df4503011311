package models

import (
	"slices"

	"repro/internal/mc"
	"repro/internal/ta"
)

// A clock is dead in a configuration when nothing can read it before its
// next reset; its value decides nothing, yet it splits the configuration
// into cap+1 copies. The verdict path stores a dead clock as 0, the
// active-clock reduction UPPAAL applies: a functional strong bisimulation,
// so verdicts and counter-examples are those of the network (DESIGN.md,
// "Verdicts explore a quotient"). Build has ta derive where each clock is
// dead from the clock atoms of every guard and invariant and the literals
// they sit under (ta.Network.DeadClocks): no closure, nor R1–R3, the cuts
// or the shutdown predicate, reads a clock. It renames no label, so
// conformance specs store dead clocks as 0 too (BuildLTS). A variable no
// guard, invariant or update reads (ta.Network.Observers) decides nothing
// either: each verdict search stores as 0 those its own goals and cut do
// not read, a conformance spec all of them (quotient). quotient_test.go
// checks all of it against the unreduced successor relation.

// canon rewrites s to the representative of its class: every clock that is
// dead in s reads 0, then the interchangeable participants' blocks are
// sorted (symmetry.go). It is the mc.Options.Canon of VerifyShutdown, so it
// must stay pure and allocation-free.
func (m *Model) canon(s *ta.State) {
	m.dead.Zero(s)
	m.sym.sort(s)
}

// quotient returns the canonicaliser of a search whose predicates read
// the variables in reads: dead clocks and every observer-only variable —
// one no guard, invariant or update reads (ta.Network.Observers) — outside
// reads read 0, then, if sorted, the participants' blocks are sorted. A
// verdict search passes the variables its goals and cut read ((*Model).reads)
// and sorts; BuildLTS, whose spec evaluates no predicate and may rename no
// label, passes none and does not sort. Zeroing a variable nothing reads
// is a label-preserving strong bisimulation (DESIGN.md, "Verdicts explore a
// quotient"). The returned function is pure and allocation-free.
func (m *Model) quotient(reads []int, sorted bool) func(*ta.State) {
	zero := slices.DeleteFunc(slices.Clone(m.observers), func(v int) bool { return slices.Contains(reads, v) })
	return func(s *ta.State) {
		m.dead.Zero(s)
		for _, v := range zero {
			s.Vars[v] = 0
		}
		if sorted {
			m.sym.sort(s)
		}
	}
}

// BuildLTS builds the LTS of the model's label-preserving quotient
// (quotient with no reads, unsorted): the weak traces of the network, over
// fewer states (DESIGN.md, "Conformance specs explore a quotient"). It
// replaces any Canon in opts; Prune is ignored, as mc.BuildLTS ignores it.
func (m *Model) BuildLTS(opts mc.Options) (*mc.LTS, error) {
	opts.Canon = m.quotient(nil, false)
	return mc.BuildLTS(m.Net, opts)
}

// reduced folds a search's hooks into the caller's so that neither side's
// is dropped: its canonicaliser always, before the caller's, and its cut
// (nil: none) as the prune, after the caller's.
func reduced(opts mc.Options, canon func(*ta.State), cut func(*ta.State) bool) mc.Options {
	if prune := opts.Prune; cut != nil && prune != nil {
		opts.Prune = func(s *ta.State) bool { return prune(s) || cut(s) }
	} else if cut != nil {
		opts.Prune = cut
	}
	if caller := opts.Canon; caller != nil {
		opts.Canon = func(s *ta.State) { canon(s); caller(s) }
	} else {
		opts.Canon = canon
	}
	return opts
}
