package conform

import (
	"sync"
	"sync/atomic"
)

// The reseed region of a specification.
//
// After every confirmed retune or by-design event the piecewise checker
// restarts from "every state" and steps that frontier down: the first
// image walks all NumStates states, the next few walk 10³–10⁵, and only
// then is the frontier back to the few dozen states of steady checking.
// Every one of those frontiers is a function of (spec, labels since the
// reseed) and not of the trial, so the spec memoises them in a trie
// rooted at the all-states set: one child per label, each computed once
// from its parent's set by the ordinary image routine and then shared by
// every checker of the spec. A reseed is "point at the root"; a step
// inside the region is a child lookup.
//
// Nodes are immutable once published: set and the kids slice are written
// before the atomic store that makes the node reachable and never again,
// so readers need no lock; mu only serialises the computation of a
// missing child (and the budget it draws on), so concurrent checkers that
// miss the same child wait for one computation instead of repeating it.
// Because a child holds exactly what a private step would have produced,
// which nodes happen to be memoised — trial order, worker count, an
// exhausted budget — cannot change any checker's result.
type reseedRegion struct {
	root regionNode // the all-states frontier; holds no set

	mu     sync.Mutex
	used   int         // states held by published nodes; guarded by mu
	budget int         // ceiling on used
	full   atomic.Bool // the budget refused a node: stop growing
}

// regionNode is one memoised frontier. An empty set marks a dead end: no
// state of the parent can take the label.
type regionNode struct {
	set  []int32                      // tau-closed, in image order
	kids []atomic.Pointer[regionNode] // by label id; nil on leaves
}

const (
	// regionSmall is the frontier size at which a checker leaves the
	// region for a private copy. Stopping there keeps the trie to the few
	// post-reseed steps every trial repeats instead of following each
	// trial's own path, and a private step over so few states costs about
	// what the lookup does. Measured on the three topology campaigns of
	// hbsim -exp topo (go run ./bench -workload sim_campaign, 4 s runs,
	// five rounds on 2 CPUs): 8 → 1505–2982 ops/s, 64 → 1645–3290, 512 →
	// 1577–3059, 4096 → 1470–2872, flat within the machine's swing now that
	// the specs are quotients. At 64 the six specs settle at 12,893
	// memoised states (0.05 MB, the widest trie 13 nodes) within the first
	// 20-trial pass and do not grow again.
	regionSmall = 64
	// regionBudgetFactor caps a spec's memoised states at this multiple
	// of NumStates: 16 bytes per state at most, against the ~27 its CSR
	// arrays hold. The campaigns above peak at 1.22× (churn storm at
	// level 0: 4,999 states over 13 nodes) and 0.09× (rack loss at level
	// 1: 7,894 over 9); the cap is for streams that reseed along many
	// distinct wide paths, which then step privately with identical
	// results.
	regionBudgetFactor = 4
)

func (r *reseedRegion) init(labels, states int) {
	r.root.kids = make([]atomic.Pointer[regionNode], labels)
	r.budget = regionBudgetFactor * states
}

// grow returns the child of c's region node over label, computing and
// publishing it if it is missing. A nil result means the budget is spent:
// the image is then left in c.next for the caller to keep privately.
func (r *reseedRegion) grow(c *checker, label int32) *regionNode {
	if r.full.Load() {
		c.image(label)
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := &c.node.kids[label]
	if child := slot.Load(); child != nil {
		return child
	}
	out := c.image(label)
	if r.used+len(out) > r.budget {
		r.full.Store(true)
		return nil
	}
	child := &regionNode{set: append([]int32(nil), out...)}
	if len(out) > regionSmall {
		child.kids = make([]atomic.Pointer[regionNode], len(c.node.kids))
	}
	r.used += len(out)
	slot.Store(child)
	return child
}

// enter moves the frontier onto a region child: shared while the set is
// large, a private copy once it is small. It reports false for a dead
// end, leaving the frontier untouched.
func (c *checker) enter(child *regionNode) bool {
	switch n := len(child.set); {
	case n == 0:
		return false
	case n <= regionSmall:
		c.cur = append(c.cur[:0], child.set...)
		c.node = nil
	default:
		c.node = child
	}
	return true
}
