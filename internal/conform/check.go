package conform

import (
	"math"
	"sort"
)

// mscTail bounds the MSC context of an incident report (StreamConfig.Tail's
// default).
const mscTail = 40

// scratch is a checker's working memory: the generation-stamped membership
// array (no clearing between steps) and the two frontier buffers. It
// outlives the checker — CampaignCheck pools it — so a trial allocates it
// at most once however often the engine reseeds or changes level; gen and
// the stamps in mark carry over, which is sound because a stamp only ever
// equals the generation that wrote it.
type scratch struct {
	mark []int32 // mark[s] == gen: s is in the set being built
	gen  int32
	cur  []int32 // the private frontier
	next []int32 // the buffer image builds into
}

// fit makes mark cover n states. A grown array starts from zero stamps,
// which no live generation equals (bump never hands out 0).
func (sc *scratch) fit(n int) {
	if len(sc.mark) < n {
		sc.mark = make([]int32, n)
	}
}

// bump starts a new generation. When the counter would wrap, the stamps
// are cleared instead: a pooled scratch lives across trials, and a
// wrapped counter would sooner or later equal a stale stamp.
func (sc *scratch) bump() {
	if sc.gen == math.MaxInt32 {
		clear(sc.mark)
		sc.gen = 0
	}
	sc.gen++
}

// checker advances a frontier (antichain) of model states over a trace.
// The frontier is either private (cur) or, right after a reseed, a node
// of the specification's shared reseed region (see region.go).
type checker struct {
	*scratch
	sp   *Spec
	node *regionNode // non-nil: the frontier is this node's set, not cur
}

func newChecker(sp *Spec, sc *scratch) *checker {
	c := &checker{scratch: sc, sp: sp}
	c.fit(sp.NumStates)
	c.bump()
	c.mark[0] = c.gen
	c.cur = c.closure(append(c.cur[:0], 0))
	return c
}

// reseed restarts the frontier from every state of sp. The piecewise
// checker does so after a confirmed divergence (a retune or a by-design
// non-model event): the runtime's exact model state is no longer known,
// so the suffix is checked against every possible continuation — an
// over-approximation that can only under-report, never fabricate, further
// divergences. The all-states set is never materialised: it is the root
// of sp's reseed region.
func (c *checker) reseed(sp *Spec) {
	c.sp = sp
	c.fit(sp.NumStates)
	c.node = &sp.region.root
}

// frontier returns the current set of model states as (src, n): its i-th
// state, i < n, is src[i] — or i itself when src is nil, which is the
// region root: every state of the specification, never materialised.
func (c *checker) frontier() (src []int32, n int) {
	switch node := c.node; {
	case node == nil:
		return c.cur, len(c.cur)
	case node == &c.sp.region.root:
		return nil, c.sp.NumStates
	default:
		return node.set, len(node.set)
	}
}

// width is the number of states in the frontier. The all-states root
// counts as 0: reseeds are exempt from the frontier budget and collapse on
// the next step.
func (c *checker) width() int {
	src, _ := c.frontier()
	return len(src)
}

// equals reports whether the frontier is the set whose i-th state, i < n,
// is src[i] (or i, for a nil src) — a frontier taken before the last step,
// which a step leaves intact. It overwrites the scratch's marks, which no
// step carries over.
func (c *checker) equals(src []int32, n int) bool {
	cur, m := c.frontier()
	if m != n {
		return false
	}
	c.bump()
	for i := 0; i < m; i++ {
		c.mark[stateAt(cur, i)] = c.gen
	}
	for i := 0; i < n; i++ {
		if c.mark[stateAt(src, i)] != c.gen {
			return false
		}
	}
	return true
}

// stateAt is the i-th state of a frontier returned by frontier.
func stateAt(src []int32, i int) int32 {
	if src == nil {
		return int32(i)
	}
	return src[i]
}

// closure extends set (whose members are marked with the current
// generation) with everything reachable by tau steps, in place. It is
// written to stay within the inlining budget: hoisting mark and gen into
// locals pushes it over, and the call then costs 10 % per event on the
// small frontiers of steady checking.
func (c *checker) closure(set []int32) []int32 {
	sp := c.sp
	for i := 0; i < len(set); i++ {
		s := set[i]
		for j := sp.tauOff[s]; j < sp.tauOff[s+1]; j++ {
			t := sp.tauTo[j]
			if c.mark[t] != c.gen {
				c.mark[t] = c.gen
				set = append(set, t)
			}
		}
	}
	return set
}

// image builds in next, and returns, the tau-closed set of the frontier's
// successors over one visible label (LabelTick for time). It is the one
// stepping routine: private frontiers and region nodes alike advance by
// it, so a memoised region child holds exactly what a private step from
// the same set would have produced, in the same order.
func (c *checker) image(label int32) []int32 {
	src, n := c.frontier()
	c.bump()
	sp, mark, gen := c.sp, c.mark, c.gen
	out := c.next[:0]
	for i := 0; i < n; i++ {
		s := int32(i)
		if src != nil {
			s = src[i]
		}
		for j := sp.visOff[s]; j < sp.visOff[s+1]; j++ {
			e := sp.vis[j]
			if e.label == label && mark[e.to] != gen {
				mark[e.to] = gen
				out = append(out, e.to)
			}
		}
	}
	c.next = c.closure(out)
	return c.next
}

// step advances the frontier over one visible label. It reports false —
// leaving the frontier untouched, so Expected can be computed — when no
// model state can take the label.
func (c *checker) step(label int32) bool {
	if n := c.node; n != nil {
		child := n.kids[label].Load()
		if child == nil {
			child = c.sp.region.grow(c, label)
		}
		if child != nil {
			return c.enter(child)
		}
		// The region's budget is spent; grow left the image in next and
		// the step completes privately, as below.
	} else {
		c.image(label)
	}
	if len(c.next) == 0 {
		return false
	}
	c.cur, c.next = c.next, c.cur
	c.node = nil
	return true
}

// enabled returns the sorted visible labels the current frontier can take.
func (c *checker) enabled() []string {
	sp := c.sp
	src, n := c.frontier()
	seen := make(map[int32]bool, 8)
	var out []string
	for i := 0; i < n; i++ {
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
