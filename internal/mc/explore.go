package mc

// Breadth-first exploration over the packed state store.
//
// One goroutine explores; a state's id is its store id, assigned in
// discovery order — (parent id, successor index), level by level. One
// exploration serves a set of goals, and every output (counts, witnesses,
// LTS) follows from four rules, each of which holds per goal:
//
//   - states commit in discovery order, and a successor already in the
//     store — from an earlier level or earlier in this one — is the stored
//     state, so the first occurrence names the parent of the witness;
//   - the level on which a goal state commits, or on which the state limit
//     is crossed, is still expanded to its end, so TransitionsExplored
//     counts whole levels: a goal's counts are those at the end of the
//     level its witness committed on, and the run stops once every goal
//     has a witness;
//   - a goal is evaluated only on states as they commit; the first to
//     satisfy it is its witness. On a level that also crosses the limit a
//     goal wins if it committed before the crossing, otherwise it ends in
//     ErrStateLimit — as every goal still without a witness does;
//   - past the limit nothing commits, and a recorded transition to such a
//     state has no target id (BuildLTS fails with ErrStateLimit then, so
//     no LTS ever shows one).
//
// Which states commit, and in what order, depends on the network, the
// prune, the canonicaliser and the limit alone — never on the goals — so
// each goal's witness, counts and error are exactly those of an
// exploration for it alone. reference_test.go's map-based BFS pins all
// four rules against real models, one goal at a time and shared.

import (
	"fmt"
	"math"

	"repro/internal/alphabet"
	"repro/internal/ta"
)

// rawTrans is a transition recorded for LTS builds, in (from, successor
// index) order: label is the label's id in the explorer's index. to is -1
// for a target past the state limit.
type rawTrans struct {
	from, to int32
	label    uint16
}

// goal is one reachability goal of an exploration and what it found.
type goal struct {
	pred func(*ta.State) bool // nil matches nothing
	// witness is the id of the first committed state satisfying pred, -1
	// while none has.
	witness int
	// states and transitions are the counts at the end of the level the
	// witness committed on, once that level is done.
	states, transitions int
}

// explorer holds one exploration: the store, the node records, the goals,
// the label index and the scratch the expansion loop recycles.
type explorer struct {
	goals []goal
	// open counts the goals whose witness level has not ended.
	open      int
	prune     func(*ta.State) bool
	canon     func(*ta.State)
	limit     int
	withTrans bool

	numLocs, numClocks int

	store *stateStore
	// info has one record per committed state: info.n is the state count.
	info paged[nodeInfo]
	// trans logs every generated transition when withTrans is set.
	trans paged[rawTrans]
	// transitions counts successors generated across all levels.
	transitions int

	// labels numbers every label a transition of the network can carry,
	// for the transition records; complete before exploring.
	labels alphabet.Index

	// ctx.Successors is not reentrant: each call recycles the context's
	// scratch masks and, handed buf back, the previous call's Transition
	// slice (hbvet's buffer-reuse check enforces the caller side).
	ctx     *ta.SuccCtx
	init    ta.State
	scratch ta.State
	buf     []ta.Transition
	keyBuf  []byte
}

// newExplorer builds the store and the label index and commits the initial
// configuration as state 0, level 0 of the search.
func newExplorer(n *ta.Network, preds []func(*ta.State) bool, opts Options, withTrans bool) (*explorer, error) {
	init := n.Initial()
	e := &explorer{
		goals:     make([]goal, len(preds)),
		open:      len(preds),
		prune:     opts.Prune,
		canon:     opts.Canon,
		limit:     min(opts.maxStates(), math.MaxInt32-1), // ids are int32 in the records
		withTrans: withTrans,
		numLocs:   len(init.Locs),
		numClocks: len(init.Clocks),
		store:     newStateStore(init.KeyLen()),
		ctx:       n.NewSuccCtx(),
		init:      init,
		scratch:   init.Clone(),
	}
	// A transition's label is tick, which every index covers, or an edge's
	// (ta.Transition), so the index is complete up front.
	for _, a := range n.Automata() {
		for i := range a.Edges {
			if !e.labels.Cover(a.Edges[i].Label) {
				return nil, fmt.Errorf("%w: %v", ErrLabelLimit, a.Edges[i].Label)
			}
		}
	}
	if e.labels.Len() > math.MaxUint16+1 {
		return nil, fmt.Errorf("%w: %d ids", ErrLabelLimit, e.labels.Len())
	}
	key := init.AppendKey(make([]byte, 0, e.store.keyLen))
	e.store.intern(key, hashKey(key))
	e.info.push(nodeInfo{parent: -1})
	for i, pred := range preds {
		e.goals[i] = goal{pred: pred, witness: -1}
		e.evalGoal(i, 0, &init)
	}
	e.endLevel()
	return e, nil
}

// explore runs the BFS from the network's initial configuration for the
// goals preds, until every goal has a witness, the space is exhausted or
// the state limit is crossed (ErrStateLimit, which concerns only the goals
// left without a witness). The explorer it returns holds each goal's
// outcome and serves trace and LTS reconstruction.
func explore(n *ta.Network, preds []func(*ta.State) bool, opts Options, withTrans bool) (*explorer, error) {
	e, err := newExplorer(n, preds, opts, withTrans)
	if err != nil {
		return nil, err
	}
	return e, e.run()
}

// run is the level loop after level 0: nil, or ErrStateLimit. With no
// goals at all it runs to the end, as for one that matches nothing.
func (e *explorer) run() error {
	levelStart, levelEnd := 0, 1
	for levelStart < levelEnd && (e.open > 0 || len(e.goals) == 0) {
		limitHit := false
		for id := levelStart; id < levelEnd; id++ {
			e.expand(id, &limitHit)
		}
		e.endLevel()
		if limitHit {
			return fmt.Errorf("%w: %d states", ErrStateLimit, e.limit)
		}
		levelStart, levelEnd = levelEnd, e.info.n
	}
	return nil
}

// evalGoal evaluates goal i on s, just committed as id, unless the goal has
// a witness already.
//
//hbvet:noalloc
func (e *explorer) evalGoal(i, id int, s *ta.State) {
	g := &e.goals[i]
	//lint:allow noalloc-closure prune/goal predicates are exploration configuration; the Options contract requires pure, allocation-free predicates
	if g.witness < 0 && g.pred != nil && g.pred(s) {
		g.witness = id
	}
}

// endLevel snapshots the counts of every goal whose witness committed on
// the level just expanded.
func (e *explorer) endLevel() {
	for i := range e.goals {
		if g := &e.goals[i]; g.witness >= 0 && g.states == 0 {
			g.states, g.transitions = e.info.n, e.transitions
			e.open--
		}
	}
}

// expand generates id's successors, rewrites each to its class
// representative when a canonicaliser is set, and commits first
// occurrences as it meets them: one probe, insert at the slot the probe
// ended on, check the goals.
//
//hbvet:noalloc
func (e *explorer) expand(id int, limitHit *bool) {
	st := e.store
	e.scratch.DecodeKey(st.key(id), e.numLocs, e.numClocks)
	//lint:allow noalloc-closure prune/goal predicates are exploration configuration; the Options contract requires pure, allocation-free predicates
	if e.prune != nil && e.prune(&e.scratch) {
		return
	}
	e.buf = e.ctx.Successors(&e.scratch, e.buf[:0])
	e.transitions += len(e.buf)
	for i := range e.buf {
		tr := &e.buf[i]
		if e.canon != nil {
			//lint:allow noalloc-closure the canonicaliser is exploration configuration; the Options contract requires it pure and allocation-free
			e.canon(&tr.Target)
		}
		e.keyBuf = tr.Target.AppendKey(e.keyBuf[:0])
		h := hashKey(e.keyBuf)
		to, slot, seen := st.find(e.keyBuf, h)
		switch {
		case seen:
		case *limitHit || e.info.n >= e.limit:
			*limitHit = true
			to = -1
		default:
			to = st.insert(e.keyBuf, h, slot)
			e.info.push(nodeInfo{parent: int32(id), delay: tr.Delay})
			for g := range e.goals {
				e.evalGoal(g, to, &tr.Target)
			}
		}
		if e.withTrans {
			label, _ := e.labels.ID(tr.Label)
			e.trans.push(rawTrans{from: int32(id), to: int32(to), label: uint16(label)})
		}
	}
}

// lts copies the transition log into the finished LTS.
func (e *explorer) lts() *LTS {
	l := &LTS{NumStates: e.info.n, Transitions: make([]Trans, e.trans.n)}
	for i := range l.Transitions {
		rt := e.trans.at(i)
		l.Transitions[i] = Trans{From: int(rt.from), Label: e.labels.Label(int(rt.label)), To: int(rt.to)}
	}
	return l
}
