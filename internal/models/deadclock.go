package models

import (
	"repro/internal/mc"
	"repro/internal/ta"
)

// A clock is dead in a configuration when no guard, invariant or
// requirement predicate can read it before its next reset. Its value then
// decides nothing, yet it keeps counting to its cap and splits every
// configuration it is dead in into cap+1 copies. The verdict path stores a
// dead clock as 0 (the active-clock reduction UPPAAL applies by default):
// mapping a configuration to that representative is a functional strong
// bisimulation, so verdicts and counter-examples are those of the network
// (DESIGN.md, "Verdicts explore a quotient"; quotient_test.go checks every
// row below exhaustively against the unreduced successor relation).

// deadClock is one row of a model's dead-clock table. Each row is appended
// by the build function that declares the clock, beside the automaton whose
// edges reset and read it, and carries that automaton's reason.
type deadClock struct {
	clock int
	// The clock is dead while automaton aut occupies a location of the
	// bit set locs (bit l for location l) ...
	aut  int
	locs uint64
	// ... and while variable v holds val; noVar means no such condition.
	v   int
	val int32
}

// noVar is the deadClock.v of a row with no variable condition (and what
// Model.vLeave holds outside the dynamic protocol).
const noVar = -1

// locSet is the deadClock.locs bit set of the given locations.
func locSet(locs ...int) uint64 {
	var set uint64
	for _, l := range locs {
		set |= 1 << l
	}
	return set
}

// canon rewrites s to the representative of its class: every clock that is
// dead in s reads 0, then the interchangeable participants' blocks are
// sorted (symmetry.go). It is the mc.Options.Canon of the verdict path, so
// it must stay pure and allocation-free.
func (m *Model) canon(s *ta.State) {
	for i := range m.dead {
		d := &m.dead[i]
		if d.locs>>s.Locs[d.aut]&1 == 1 || d.v != noVar && s.Vars[d.v] == d.val {
			s.Clocks[d.clock] = 0
		}
	}
	m.sym.sort(s)
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
