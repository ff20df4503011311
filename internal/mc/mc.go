// Package mc is an explicit-state model checker for the discrete-time
// timed-automata networks of internal/ta.
//
// It offers reachability checking with counter-example reconstruction
// (breadth-first, so witnesses are minimal in transition count), full
// state-space generation into a labelled transition system, strong
// bisimulation minimisation, and weak-trace reduction — the operations the
// accelerated-heartbeat analysis uses in place of UPPAAL and CADP.
package mc

import (
	"errors"

	"repro/internal/ta"
)

// ErrStateLimit reports that exploration hit Options.MaxStates before
// exhausting the state space; verification verdicts are inconclusive.
var ErrStateLimit = errors.New("mc: state limit exceeded")

// ErrLabelLimit reports a network with more distinct transition labels
// than the 16-bit label ids of the node and transition records can number.
var ErrLabelLimit = errors.New("mc: more than 65535 distinct transition labels")

// Options tunes exploration.
type Options struct {
	// MaxStates bounds exploration; 0 means DefaultMaxStates.
	MaxStates int
	// Prune, if non-nil, stops exploration below states satisfying it
	// (the pruned state itself is recorded but not expanded). Pruning is
	// sound for a reachability goal only if no goal state is reachable
	// through a pruned state — e.g. pruning on a monotone flag the goal
	// negates.
	Prune func(*ta.State) bool
	// Canon, if non-nil, rewrites every generated successor in place to
	// the representative of its equivalence class before it is hashed, so
	// the search visits the quotient instead of the network. Sound only
	// when the rewrite is a functional strong bisimulation the predicates
	// cannot see through: Canon is idempotent, goal and Prune agree on s
	// and Canon(s), and the successors of s and of Canon(s), enumerated in
	// order and rewritten, are the same labelled states. Then verdict,
	// witness labels and witness times are those of the unreduced search;
	// the states of a witness are the representatives. Like Prune it must
	// be pure and allocation-free. The initial configuration is stored as
	// given. BuildLTS ignores Canon, as it ignores Prune.
	Canon func(*ta.State)
	// Workers is ignored; it stays declared only until bench/ stops setting it.
	Workers int
}

// DefaultMaxStates bounds exploration when Options.MaxStates is zero.
const DefaultMaxStates = 5_000_000

func (o Options) maxStates() int {
	if o.MaxStates <= 0 {
		return DefaultMaxStates
	}
	return o.MaxStates
}

// Step is one transition of a witness trace.
type Step struct {
	// Label is the action name ("tick" for delays).
	Label string
	// Delay marks delay steps.
	Delay bool
	// Time is the cumulative virtual time after this step.
	Time int
	// State is the configuration reached by this step.
	State ta.State
}

// Result is the outcome of a reachability check.
type Result struct {
	// Reachable reports whether a goal state was found.
	Reachable bool
	// StatesExplored counts distinct configurations visited: states of
	// the explored quotient when Options.Canon is set (under the models
	// verdict path it always is), of the network otherwise.
	StatesExplored int
	// TransitionsExplored counts transitions generated.
	TransitionsExplored int
	// Trace is a minimal-length witness when Reachable: Trace[0] is the
	// initial configuration (empty label), the last step satisfies the
	// goal.
	Trace []Step
}

// CheckReachability explores the network breadth-first from its initial
// configuration and reports whether any configuration satisfying goal is
// reachable, together with a shortest witness.
//
// The check completes the BFS level a goal state is found on before
// returning, and the witness is the first goal state in discovery order —
// shortest, and lexicographically least with respect to the network's
// deterministic successor enumeration order (see explore.go).
func CheckReachability(n *ta.Network, goal func(*ta.State) bool, opts Options) (Result, error) {
	e, goalID, states, transitions, err := explore(n, goal, opts, false)
	res := Result{StatesExplored: states, TransitionsExplored: transitions}
	if goalID >= 0 {
		res.Reachable = true
		res.Trace = rebuildTrace(e, goalID)
		return res, nil
	}
	return res, err
}

// nodeInfo records how a state was first reached, for witness
// reconstruction: the parent's id (-1 at the root) and the id of the
// transition's label in the explorer's table. Pointer-free: never GC-scanned.
type nodeInfo struct {
	parent int32
	label  uint16
	delay  bool
}

// rebuildTrace walks parent pointers back to the root and emits the
// forward trace with cumulative times, decoding each witness state out of
// the store.
func rebuildTrace(e *explorer, goal int) []Step {
	var rev []int
	for at := goal; at != -1; at = int(e.info.at(at).parent) {
		rev = append(rev, at)
	}
	steps := make([]Step, 0, len(rev))
	now := 0
	for i := len(rev) - 1; i >= 0; i-- {
		id := rev[i]
		info := e.info.at(id)
		if info.delay {
			now++
		}
		var s ta.State
		s.DecodeKey(e.store.key(id), e.numLocs, e.numClocks)
		label := "" // the root was reached by no transition
		if info.parent >= 0 {
			label = e.labels[info.label]
		}
		steps = append(steps, Step{Label: label, Delay: info.delay, Time: now, State: s})
	}
	return steps
}

// Invariant explores the full state space and reports the first violation
// of pred (a safety check: pred must hold in every reachable state). It is
// CheckReachability with the goal negated, packaged for readability.
func Invariant(n *ta.Network, pred func(*ta.State) bool, opts Options) (Result, error) {
	return CheckReachability(n, func(s *ta.State) bool { return !pred(s) }, opts)
}

// CountStates exhaustively generates the reachable state space and returns
// its size; useful for regression-pinning model sizes.
func CountStates(n *ta.Network, opts Options) (states, transitions int, err error) {
	_, _, states, transitions, err = explore(n, nil, opts, false)
	return states, transitions, err
}
