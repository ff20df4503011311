package conform

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// mscTail bounds the MSC context of an incident report.
const mscTail = 40

// The frontier graph of a specification.
//
// A checker's frontier is a set of model states, and the set a label leads
// to is a function of (spec, set, label) alone, not of the trial. So each
// Spec keeps its frontiers as the nodes of one graph: a node is a sorted,
// tau-closed set of states with one successor per visible label, computed
// the first time some checker takes that label from it and shared by every
// checker of the spec after that. A checker is a *node; a step is one
// atomic load. Nodes are hash-consed by set contents, so however two
// checkers reached the same set they hold the same node, and a tick that
// leaves the frontier as it was is a pointer compare.
//
// A published node is immutable: set and the kids slice are written before
// the store that makes it reachable and never again, so readers need no
// lock. mu serialises the computation of a missing successor — which uses
// the graph's one scratch — and the index and budget it draws on, so
// concurrent checkers that miss the same successor wait for one
// computation instead of repeating it. Because a node holds exactly the
// set its parent's image is, which nodes happen to exist — trial order,
// worker count, a spent budget — cannot change any checker's result.
type frontierGraph struct {
	// root is every state of the specification, the frontier of a reseed.
	// Its set is never materialised (it is nil) and it is not in index.
	root    node
	initial *node // the tau-closure of the initial state

	mu     sync.Mutex
	index  map[uint64]*node // published nodes by setHash, linked by chain
	used   int              // states held by published nodes
	budget int              // ceiling on used
	mark   []int32          // mark[s] == gen: s is in the image being built
	gen    int32
	buf    []int32 // the image being built
}

// node is one frontier. A successor with an empty set is a dead end: no
// state of the parent can take the label. A node past the graph's budget
// is unpublished: it has no kids, so every step from it computes its
// image afresh.
type node struct {
	set   []int32                // sorted, tau-closed; nil for the root
	kids  []atomic.Pointer[node] // by label id; nil on unpublished nodes
	chain *node                  // the next node of its index bucket
}

// graphBudgetFactor caps a spec's published states at this multiple of
// NumStates: 4 bytes per state in each set, against the ~27 its CSR arrays
// hold. The topology campaigns of hbsim -exp topo -trials 500 publish 177
// nodes holding 13,504 states over their six specs, at most 1.28× a spec
// (churn storm at level 0); the cap is for streams that wander along many
// distinct wide frontiers, which then step through unpublished nodes with
// identical results.
const graphBudgetFactor = 4

// initGraph sets up sp's frontier graph and publishes its initial node.
func (sp *Spec) initGraph() {
	g := &sp.graph
	g.root.kids = make([]atomic.Pointer[node], len(sp.labels))
	g.index = make(map[uint64]*node)
	g.budget = graphBudgetFactor * sp.NumStates
	g.mark = make([]int32, sp.NumStates)
	g.bump()
	g.mark[0] = g.gen
	g.initial = g.intern(sp.closure(append(g.buf[:0], 0)))
}

// bump starts a new generation of marks. When the counter would wrap, the
// marks are cleared instead: a wrapped counter would sooner or later equal
// a stale mark.
func (g *frontierGraph) bump() {
	if g.gen == math.MaxInt32 {
		clear(g.mark)
		g.gen = 0
	}
	g.gen++
}

// states returns n's set as (src, count): its i-th state, i < count, is
// src[i] — or i itself when src is nil, which is the root.
func (sp *Spec) states(n *node) (src []int32, count int) {
	if n == &sp.graph.root {
		return nil, sp.NumStates
	}
	return n.set, len(n.set)
}

// step returns the node label leads to from n: a dead end when no state of
// n can take it.
func (sp *Spec) step(n *node, label int32) *node {
	if n.kids != nil {
		if kid := n.kids[label].Load(); kid != nil {
			return kid
		}
	}
	return sp.grow(n, label)
}

// grow computes the successor of n over label, interns it, and records it
// as n's kid when both are published.
func (sp *Spec) grow(n *node, label int32) *node {
	g := &sp.graph
	g.mu.Lock()
	defer g.mu.Unlock()
	if n.kids != nil {
		if kid := n.kids[label].Load(); kid != nil {
			return kid
		}
	}
	kid := g.intern(sp.image(n, label))
	if n.kids != nil && kid.kids != nil {
		n.kids[label].Store(kid)
	}
	return kid
}

// intern returns the published node whose set is set, publishing a copy of
// set if there is none and the budget allows; past the budget it returns
// an unpublished node. g.mu is held, or g is not yet shared.
func (g *frontierGraph) intern(set []int32) *node {
	h := setHash(set)
	for n := g.index[h]; n != nil; n = n.chain {
		if slices.Equal(n.set, set) {
			return n
		}
	}
	n := &node{set: append(make([]int32, 0, len(set)), set...)}
	if g.used+len(set) > g.budget {
		return n
	}
	n.kids = make([]atomic.Pointer[node], len(g.root.kids))
	n.chain = g.index[h]
	g.index[h] = n
	g.used += len(set)
	return n
}

// setHash is the FNV-1a hash of a state set.
func setHash(set []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range set {
		h = (h ^ uint64(uint32(s))) * 1099511628211
	}
	return h
}

// image builds in the graph's scratch, and returns, the sorted tau-closed
// set of n's successors over one visible label (LabelTick for time).
// g.mu is held.
func (sp *Spec) image(n *node, label int32) []int32 {
	g := &sp.graph
	src, count := sp.states(n)
	g.bump()
	out := g.buf[:0]
	for i := 0; i < count; i++ {
		s := int32(i)
		if src != nil {
			s = src[i]
		}
		for j := sp.visOff[s]; j < sp.visOff[s+1]; j++ {
			if e := sp.vis[j]; e.label == label && g.mark[e.to] != g.gen {
				g.mark[e.to] = g.gen
				out = append(out, e.to)
			}
		}
	}
	return sp.closure(out)
}

// closure extends set, whose members are marked with the current
// generation, with everything reachable by tau steps, sorts it, and keeps
// it as the graph's scratch. g.mu is held, or g is not yet shared.
func (sp *Spec) closure(set []int32) []int32 {
	g := &sp.graph
	for i := 0; i < len(set); i++ {
		s := set[i]
		for j := sp.tauOff[s]; j < sp.tauOff[s+1]; j++ {
			if t := sp.tauTo[j]; g.mark[t] != g.gen {
				g.mark[t] = g.gen
				set = append(set, t)
			}
		}
	}
	slices.Sort(set)
	g.buf = set
	return set
}

// enabled returns the sorted visible labels the frontier n can take.
func (sp *Spec) enabled(n *node) []string {
	src, count := sp.states(n)
	seen := make(map[int32]bool, 8)
	var out []string
	for i := 0; i < count; i++ {
		s := int32(i)
		if src != nil {
			s = src[i]
		}
		for j := sp.visOff[s]; j < sp.visOff[s+1]; j++ {
			if id := sp.vis[j].label; !seen[id] {
				seen[id] = true
				out = append(out, sp.labels[id].String())
			}
		}
	}
	sort.Strings(out)
	return out
}
