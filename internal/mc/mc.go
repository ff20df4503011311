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
	"bytes"
	"errors"
	"slices"

	"repro/internal/alphabet"
	"repro/internal/ta"
)

// ErrStateLimit reports that exploration hit Options.MaxStates before
// exhausting the state space; verification verdicts are inconclusive.
var ErrStateLimit = errors.New("mc: state limit exceeded")

// ErrLabelLimit reports a network whose edge labels no alphabet.Index of
// at most 65,536 ids covers: the 16-bit label ids of the transition
// records cannot number them.
var ErrLabelLimit = errors.New("mc: edge labels outside the 16-bit label ids")

// Options tunes exploration.
type Options struct {
	// MaxStates bounds exploration; 0 means DefaultMaxStates.
	MaxStates int
	// Prune, if non-nil, cuts the search: a generated successor it holds on
	// is dropped before Canon sees it — counted as a transition, never
	// hashed, stored, evaluated as a goal or expanded. The initial
	// configuration is stored whatever Prune says, and not expanded if
	// Prune holds on it. The search thus explores the runs that avoid the
	// states Prune holds on. It answers for the whole network when Prune
	// holds on no goal state and on every successor of a state it holds on
	// (e.g. a monotone flag the goal negates): only whole subtrees without
	// a goal state go, so verdicts and witnesses are the unpruned search's.
	// Like a goal it must read no clock, so it does not tell a state from
	// one that covers it (CheckReachability). An LTS exploration
	// (ExploreLTS, BuildLTS) ignores it.
	Prune func(*ta.State) bool
	// Canon, if non-nil, rewrites every generated successor in place to
	// the canonical member of its class before it is hashed, so the search
	// visits the quotient instead of the network. Sound only when the
	// classes are those of a strong bisimulation that goal and Prune
	// respect: states of one class satisfy both alike, Canon maps every
	// member of a class to the same member, and for each transition of
	// one member every other member has a transition with the same delay
	// flag into the same class. Labels may differ (a permutation of
	// identical processes renames them) and successor order need not be
	// preserved. The verdict is then the network's, and the witness is a
	// shortest run of the network: its path through the quotient, replayed
	// from the initial configuration (see CheckReachability). Like Prune
	// it must be pure and allocation-free. The initial configuration is
	// stored as given.
	//
	// Under an LTS exploration the contract is stricter, because an LTS
	// keeps every label: Canon must be a label-preserving functional strong
	// bisimulation — for each transition of one member every other member
	// has one with the same label into the same class — and a class's
	// transitions are those of its representative, the state stored for it.
	// An LTS exploration still ignores Prune.
	Canon func(*ta.State)
	// Workers is ignored; it stays declared only until bench/ stops setting it.
	//
	//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
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
	// Label is the action (tick for delays).
	Label alphabet.Label
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
	// StatesExplored counts distinct configurations visited: classes of
	// the explored quotient when Options.Canon is set (under the models
	// verdict path it always is), states of the network otherwise. Neither
	// the successors Options.Prune drops nor, in a goal search, the covered
	// states it skips (CheckReachability) are counted.
	StatesExplored int
	// TransitionsExplored counts transitions generated.
	TransitionsExplored int
	// Trace is a minimal-length witness when Reachable: Trace[0] is the
	// initial configuration (the zero label), every step is a transition
	// of the network, and the last step satisfies the goal.
	Trace []Step
}

// CheckReachability explores the network breadth-first from its initial
// configuration and reports whether any configuration satisfying goal is
// reachable, together with a shortest witness. A nil goal matches
// nothing: the whole reachable space is explored and counted. It is
// CheckGoals with one goal.
//
// The check completes the BFS level a goal state is found on before
// returning, and the witness leads to the first goal state in discovery
// order, so it is shortest. Without a canonicaliser, or with one that
// preserves successor order, it is also the lexicographically least
// shortest run with respect to the network's deterministic successor
// enumeration order (see explore.go). Under any canonicaliser the witness
// is rebuilt by replaying its quotient path through the network, taking at
// each step the first successor in enumeration order that falls into the
// next class.
//
// A search for a goal covers on the network's lower-bound clocks
// (ta.Network.LowerClocks): a successor is skipped, counted as a
// transition but not as a state, when the state stored for its class with
// those clocks at 0 holds at least its values of them, and otherwise it
// commits even if that class is stored, and is the one the class names
// from then on. The larger values simulate the smaller, so a skipped
// successor reaches no goal its coverer does not, at no greater depth:
// verdict and witness length are an exact search's, and the witness is
// still a run of the network (DESIGN.md, "Verdicts explore a quotient").
// This needs goal and Prune to read no clock, which the models' predicates
// do not. A nil goal counts the whole space, so its search is exact, as is
// BuildLTS.
func CheckReachability(n *ta.Network, goal func(*ta.State) bool, opts Options) (Result, error) {
	res, errs := CheckGoals(n, []func(*ta.State) bool{goal}, opts)
	return res[0], errs[0]
}

// CheckGoals answers several reachability questions about one network
// with one exploration: res[i] and errs[i] are exactly what
// CheckReachability(n, goals[i], opts) returns — verdict, counts, witness
// and error (ErrStateLimit when the limit is crossed before goals[i] has a
// witness, even if an earlier goal got one). The goals share opts, so
// Prune and Canon must be sound for each of them. The search stops at the
// end of the level on which the last goal's witness commits. A nil goal
// among them makes the one search exact for all: each other goal then gets
// what an exact search gets, the same verdict and witness length in as
// many states as the network (or quotient) holds up to its level. That
// serves a goal that reads clocks, such as a test oracle evaluated on
// every reachable state.
func CheckGoals(n *ta.Network, goals []func(*ta.State) bool, opts Options) (res []Result, errs []error) {
	res, errs = make([]Result, len(goals)), make([]error, len(goals))
	e, err := explore(n, goals, opts, nil)
	if e == nil {
		for i := range errs {
			errs[i] = err
		}
		return res, errs
	}
	for i, g := range e.goals {
		if g.witness < 0 {
			res[i] = Result{StatesExplored: e.info.n, TransitionsExplored: e.transitions}
			errs[i] = err
			continue
		}
		res[i] = Result{Reachable: true, StatesExplored: g.states, TransitionsExplored: g.transitions, Trace: rebuildTrace(e, g.witness)}
	}
	return res, errs
}

// nodeInfo records how a state was first reached, for witness
// reconstruction: the parent's id (-1 at the root) and whether the
// transition was a delay. Pointer-free: never GC-scanned.
type nodeInfo struct {
	parent int32
	delay  bool
}

// rebuildTrace walks parent pointers back to the root, then replays that
// path through the network from its initial configuration: each step takes
// the first successor of the configuration reached so far whose canonical
// key is the recorded state's and whose delay flag is the recorded one.
// Under a canonicaliser the recorded states are class representatives that
// need not be reachable, nor connected by the labels that reached them; the
// replay turns them back into a run of the network, one step per level, so
// the witness stays shortest. With no canonicaliser it is the recorded path.
func rebuildTrace(e *explorer, goal int) []Step {
	var path []int
	for at := goal; at > 0; at = int(e.info.at(at).parent) {
		path = append(path, at)
	}
	slices.Reverse(path)
	steps := make([]Step, 1, len(path)+1)
	steps[0].State = e.init // reached by no transition
	for _, id := range path {
		delay := e.info.at(id).delay
		last := &steps[len(steps)-1]
		e.buf = e.ctx.Successors(&last.State, e.buf[:0])
		k := 0
		for k < len(e.buf) && (e.buf[k].Delay != delay || !e.recordedAs(&e.buf[k].Target, id)) {
			k++
		}
		if k == len(e.buf) {
			panic("mc: a witness step has no matching successor; Options.Canon is not a bisimulation")
		}
		now := last.Time
		if delay {
			now++
		}
		steps = append(steps, Step{Label: e.buf[k].Label, Delay: delay, Time: now, State: e.buf[k].Target.Clone()})
	}
	return steps
}

// recordedAs reports whether s is recorded as id: whether its
// representative, computed on a copy so that s keeps its values, has id's
// key and id's values of the covered clocks. The copy goes into the
// scratch state, which has every state's shape, and the key into a local:
// no slice header is stored into the explorer (see expand).
func (e *explorer) recordedAs(s *ta.State, id int) bool {
	if e.canon != nil {
		copy(e.scratch.Locs, s.Locs)
		copy(e.scratch.Clocks, s.Clocks)
		copy(e.scratch.Vars, s.Vars)
		e.canon(&e.scratch)
		s = &e.scratch
	}
	key := e.keyBuf
	key = s.AppendKey(key[:0])
	e.zeroLower(key)
	at := id * len(e.lower)
	for j, c := range e.lower {
		if *e.vals.at(at + j) != s.Clocks[c] {
			return false
		}
	}
	return bytes.Equal(key, e.store.key(id))
}
