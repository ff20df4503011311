package mc

import "repro/internal/ta"

// SetLowerClocks makes goal searches cover on the clocks rule names — none
// for an exact search, or those of a mutated rule — and returns the
// function that restores the derived rule. Tests that call it must not run
// in parallel with other searches.
func SetLowerClocks(rule func(*ta.Network) []int) (restore func()) {
	lowerClocks = rule
	return func() { lowerClocks = (*ta.Network).LowerClocks }
}

// IgnorePrune makes every search uncut, as if Options.Prune were nil, and
// returns the function that restores pruning. Tests that call it must not
// run in parallel with other searches.
func IgnorePrune() (restore func()) {
	uncut = true
	return func() { uncut = false }
}
