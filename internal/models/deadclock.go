package models

import (
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
// they sit under (ta.Network.DeadClocks): no closure, nor R1–R3, the loss
// prune or the shutdown predicate, reads a clock. It renames no label, so conformance specs store dead
// clocks as 0 too (BuildLTS). quotient_test.go checks all of it against
// the unreduced successor relation.

// canon rewrites s to the representative of its class: every clock that is
// dead in s reads 0, then the interchangeable participants' blocks are
// sorted (symmetry.go). It is the mc.Options.Canon of the verdict path, so
// it must stay pure and allocation-free.
func (m *Model) canon(s *ta.State) {
	m.dead.Zero(s)
	m.sym.sort(s)
}

// traceCanon is the label-preserving canonicaliser of BuildLTS: dead clocks
// and the observer-only variables — those no guard, invariant or update
// reads (ta.Network.Observers) — read 0. It sorts no participants, since a
// permutation renames p[i] in the labels an LTS keeps. Observer-only
// variables may be read by the requirement predicates and the loss prune,
// so it is sound only where neither is evaluated; like canon it is pure and
// allocation-free.
func (m *Model) traceCanon(s *ta.State) {
	m.dead.Zero(s)
	for _, v := range m.observers {
		s.Vars[v] = 0
	}
}

// BuildLTS builds the LTS of the model's label-preserving quotient
// (traceCanon): the weak traces of the network, over fewer states
// (DESIGN.md, "Conformance specs explore a quotient"). It replaces any Canon
// in opts; Prune is ignored, as mc.BuildLTS ignores it.
func (m *Model) BuildLTS(opts mc.Options) (*mc.LTS, error) {
	opts.Canon = m.traceCanon
	return mc.BuildLTS(m.Net, opts)
}

// reduced folds the model's hooks into the caller's so that neither side's
// is dropped: the canonicaliser always, and for a requirement
// that excludes lossy traces by premise the prune at the first message
// loss (sound: lostMsg is monotone and the predicate requires it clear).
func (m *Model) reduced(opts mc.Options, lossless bool) mc.Options {
	if prune := opts.Prune; lossless && prune != nil {
		opts.Prune = func(s *ta.State) bool { return m.MessageLost(s) || prune(s) }
	} else if lossless {
		opts.Prune = m.MessageLost
	}
	if canon := opts.Canon; canon != nil {
		opts.Canon = func(s *ta.State) { m.canon(s); canon(s) }
	} else {
		opts.Canon = m.canon
	}
	return opts
}
