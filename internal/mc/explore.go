package mc

// Breadth-first exploration over the packed state store.
//
// One goroutine explores; a state's id is its store id, assigned in
// discovery order — (parent id, successor index), level by level. Every
// output (counts, witness, LTS) follows from four rules:
//
//   - states commit in discovery order, and a successor already in the
//     store — from an earlier level or earlier in this one — is the stored
//     state, so the first occurrence names the parent of the witness;
//   - the level on which a goal state commits, or on which the state limit
//     is crossed, is still expanded to its end, so TransitionsExplored
//     counts whole levels;
//   - the goal is evaluated only on states as they commit; the first to
//     satisfy it is the witness. On a level that also crosses the limit
//     the goal wins if it committed before the crossing, otherwise the
//     run ends in ErrStateLimit;
//   - past the limit nothing commits, and a recorded transition to such a
//     state has no target id (BuildLTS fails with ErrStateLimit then, so
//     no LTS ever shows one).
//
// reference_test.go's map-based BFS pins all four against real models.

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

// explorer holds one exploration: the store, the node records, the label
// index and the scratch the expansion loop recycles.
type explorer struct {
	goal      func(*ta.State) bool
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
// configuration as state 0; atGoal reports that it satisfies the goal.
func newExplorer(n *ta.Network, goal func(*ta.State) bool, opts Options, withTrans bool) (e *explorer, atGoal bool, err error) {
	init := n.Initial()
	e = &explorer{
		goal:      goal,
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
				return nil, false, fmt.Errorf("%w: %v", ErrLabelLimit, a.Edges[i].Label)
			}
		}
	}
	if e.labels.Len() > math.MaxUint16+1 {
		return nil, false, fmt.Errorf("%w: %d ids", ErrLabelLimit, e.labels.Len())
	}
	key := init.AppendKey(make([]byte, 0, e.store.keyLen))
	e.store.intern(key, hashKey(key))
	e.info.push(nodeInfo{parent: -1})
	return e, goal != nil && goal(&init), nil
}

// explore runs the BFS from the network's initial configuration. It
// returns the explorer for trace/LTS reconstruction, the id of the witness
// goal state (-1 if none was reached), and the state/transition counts.
func explore(n *ta.Network, goal func(*ta.State) bool, opts Options, withTrans bool) (*explorer, int, int, int, error) {
	e, atGoal, err := newExplorer(n, goal, opts, withTrans)
	if err != nil {
		return nil, -1, 0, 0, err
	}
	goalID := 0
	if !atGoal {
		goalID, err = e.run()
	}
	return e, goalID, e.info.n, e.transitions, err
}

// run is the level loop: the witness's id (-1 if no goal state committed)
// or ErrStateLimit.
func (e *explorer) run() (int, error) {
	levelStart, levelEnd := 0, 1
	for levelStart < levelEnd {
		goalID := -1
		limitHit := false
		for id := levelStart; id < levelEnd; id++ {
			e.expand(id, &goalID, &limitHit)
		}
		if goalID >= 0 {
			return goalID, nil
		}
		if limitHit {
			return -1, fmt.Errorf("%w: %d states", ErrStateLimit, e.limit)
		}
		levelStart, levelEnd = levelEnd, e.info.n
	}
	return -1, nil
}

// expand generates id's successors, rewrites each to its class
// representative when a canonicaliser is set, and commits first
// occurrences as it meets them: one probe, insert at the slot the probe
// ended on, check the goal.
//
//hbvet:noalloc
func (e *explorer) expand(id int, goalID *int, limitHit *bool) {
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
			//lint:allow noalloc-closure prune/goal predicates are exploration configuration; the Options contract requires pure, allocation-free predicates
			if *goalID < 0 && e.goal != nil && e.goal(&tr.Target) {
				*goalID = to
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
