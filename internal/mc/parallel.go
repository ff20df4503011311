package mc

// Level-synchronised parallel BFS over a sharded packed state store.
//
// The explorer advances the frontier one BFS level at a time; every level
// runs four phases separated by barriers:
//
//	A (parallel) — workers claim chunks of the level's global-id range
//	  from an atomic counter and expand each state through a per-worker
//	  ta.SuccCtx. Every successor key is hashed once; the hash picks a
//	  shard, and a read-only probe of that shard's (frozen) table filters
//	  out states committed in earlier levels. Survivors are recorded as
//	  candidates, tagged with a seq number (parent global id, transition
//	  index) that totally orders them in sequential discovery order.
//	B (parallel) — workers claim whole shards; the owner of a shard merges
//	  the workers' candidate lists for it in seq order, dedups against its
//	  own segment table (a hit can only be a same-level duplicate, because
//	  phase A already filtered earlier levels), and appends first
//	  occurrences to the segment arena.
//	C (serial) — a min-scan merge over the shards' first-occurrence lists
//	  pops new states in global seq order and assigns dense global ids, so
//	  ids, parent links, and the state limit behave exactly as in a
//	  sequential BFS. The first goal hit in seq order is the canonical
//	  counter-example: the same state a one-worker run finds first.
//	D (parallel, LTS builds only) — workers resolve the recorded
//	  transitions whose targets were candidates to their final global ids.
//
// Because shard assignment depends only on the state hash, the shard count
// is a constant, candidate order is restored by seq-merge, and global ids
// are assigned serially in seq order, every output — state count,
// transition count, trace, LTS — is identical at any worker count.
// Ownership is phase-exclusive (workers never write a structure another
// goroutine can touch in the same phase), so no locks are needed at all.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/ta"
)

// shardBits/numShards fix the segment count of the sharded store. The
// count is a constant (not derived from the worker count) so the shard
// assignment of every state — and with it every result — is independent
// of how many workers explore.
const (
	shardBits = 4
	numShards = 1 << shardBits
)

// seqTransBits is the width of the per-parent transition index inside a
// seq tag. No state in these models has anywhere near 2^20 outgoing
// transitions; expandState panics if one ever does.
const seqTransBits = 20

// segment is one shard of the state store: a packed stateStore plus the
// mapping from its local ids to global BFS ids.
type segment struct {
	stateStore
	// gids maps local ids to global ids (assigned serially in phase C, in
	// sequential discovery order).
	gids []int32
	// news lists this level's first-occurrence candidates in seq order,
	// aligned with the local ids the segment assigned this level.
	news []newsRef
}

// newsRef points phase C at the worker-local candidate record of a
// first-occurrence state.
type newsRef struct {
	seq uint64
	w   int32
	ci  int32
}

// candidate is a possibly-new state generated in phase A: its key lives in
// the worker's key arena, its seq tag fixes its place in sequential
// discovery order.
type candidate struct {
	seq     uint64
	hash    uint64
	off     uint32 // key offset in the worker's arena (keys have fixed length)
	parent  int32
	local   int32 // local id within shard, resolved in phase B
	shard   uint8
	delay   bool
	goalHit bool
	label   uint16
}

// rawTrans is a transition recorded for LTS builds. A negative to is
// unresolved: ^to is the worker's candidate phase D resolves it from (never,
// if a state-limit hit ends the run first). A worker logs in (from, successor
// index) order and expands no state another does, so from orders the merge.
type rawTrans struct {
	from, to int32
	label    uint16
}

// workerState is the per-goroutine exploration context.
//
// ctx is this worker's private ta.SuccCtx: SuccCtx.Successors is not
// reentrant — each call recycles the context's scratch masks and, with a
// recycled buf, the previous call's Transition slice (hbvet's
// buffer-reuse check enforces the caller side of that contract). One
// context per worker keeps every call data-race-free and the recycled
// buffers thread-local.
type workerState struct {
	ctx      *ta.SuccCtx
	scratch  ta.State
	buf      []ta.Transition
	keyBuf   []byte
	cands    []candidate
	perShard [numShards][]int32 // candidate indices by shard, seq-sorted
	trans    paged[rawTrans]
	// levelTransStart marks where this level's transitions begin, for the
	// phase-D fixup.
	levelTransStart int
	// transitions counts successors generated across all levels.
	transitions int
}

func (ws *workerState) resetLevel() {
	ws.keyBuf = ws.keyBuf[:0]
	ws.cands = ws.cands[:0]
	for s := range ws.perShard {
		ws.perShard[s] = ws.perShard[s][:0]
	}
	ws.levelTransStart = ws.trans.n
}

// explorer holds the store, node records and label table shared by all
// phases. The serial engine uses one segment and no id maps: its global
// ids are segs[0]'s local ids.
type explorer struct {
	goal      func(*ta.State) bool
	prune     func(*ta.State) bool
	limit     int
	withTrans bool

	numLocs, numClocks, keyLen int

	segs [numShards]*segment
	// index maps global ids to (shard, local) pairs; nil when serial.
	index []uint64
	// info has one record per committed state: info.n is the state count.
	info paged[nodeInfo]

	// labels numbers every label a transition of the network can carry,
	// for the node and transition records; read-only while exploring.
	labels   []string
	labelIDs map[string]uint16

	ws []*workerState
}

func packLoc(shard, local int) uint64 { return uint64(shard)<<32 | uint64(uint32(local)) }

// key returns the packed key bytes of global id gid, aliasing a key page.
func (e *explorer) key(gid int) []byte {
	if e.index == nil {
		return e.segs[0].key(gid)
	}
	loc := e.index[gid]
	return e.segs[loc>>32].key(int(uint32(loc)))
}

// labelID returns the table id of a transition label.
func (e *explorer) labelID(label string) uint16 {
	id, ok := e.labelIDs[label]
	if !ok {
		panic("mc: transition label is on no edge of the network")
	}
	return id
}

// newExplorer builds what both engines share — segments (one for a single
// worker), worker contexts, the label table — and commits the initial
// configuration as global id 0; atGoal reports that it satisfies the goal.
func newExplorer(n *ta.Network, goal, prune func(*ta.State) bool, limit, workers int, withTrans bool) (e *explorer, atGoal bool, err error) {
	init := n.Initial()
	e = &explorer{
		goal:      goal,
		prune:     prune,
		limit:     limit,
		withTrans: withTrans,
		numLocs:   len(init.Locs),
		numClocks: len(init.Clocks),
		keyLen:    init.KeyLen(),
		labelIDs:  map[string]uint16{},
	}
	// A transition's label is "tick" or an edge's (ta.Transition), so the
	// table is complete up front and workers only ever read it.
	e.declareLabel("tick")
	for _, a := range n.Automata() {
		for i := range a.Edges {
			e.declareLabel(a.Edges[i].Label)
		}
	}
	if len(e.labels) > math.MaxUint16 {
		return nil, false, fmt.Errorf("%w: %d", ErrLabelLimit, len(e.labels))
	}
	segs := e.segs[:1]
	if workers > 1 {
		segs = e.segs[:]
	}
	for s := range segs {
		segs[s] = &segment{stateStore: *newStateStore(e.keyLen)}
	}
	e.ws = make([]*workerState, workers)
	for i := range e.ws {
		// NewSuccCtx compiles the network on the first call, before any
		// goroutine runs; afterwards the network is read-only.
		e.ws[i] = &workerState{ctx: n.NewSuccCtx(), scratch: init.Clone()}
	}

	key := init.AppendKey(make([]byte, 0, e.keyLen))
	h := hashKey(key)
	s0 := 0
	if workers > 1 {
		s0 = int(h >> (64 - shardBits))
		e.segs[s0].gids = append(e.segs[s0].gids, 0)
		e.index = append(e.index, packLoc(s0, 0))
	}
	e.segs[s0].intern(key, h)
	e.info.push(nodeInfo{parent: -1})
	return e, goal != nil && goal(&init), nil
}

func (e *explorer) declareLabel(label string) {
	if _, ok := e.labelIDs[label]; !ok {
		e.labelIDs[label] = uint16(len(e.labels))
		e.labels = append(e.labels, label)
	}
}

// explore runs the BFS from the network's initial configuration. It
// returns the explorer for trace/LTS reconstruction, the global id of the
// canonical goal state (-1 if none was reached), and the state/transition
// counts. All outputs are identical at any worker count.
func explore(n *ta.Network, goal, prune func(*ta.State) bool, limit, workers int, withTrans bool) (*explorer, int, int, int, error) {
	limit = min(limit, math.MaxInt32-1) // ids are int32 internally
	e, atGoal, err := newExplorer(n, goal, prune, limit, workers, withTrans)
	if err != nil {
		return nil, -1, 0, 0, err
	}
	goalID := 0
	switch {
	case atGoal:
	case workers == 1:
		// One goroutine gains nothing from the candidate/merge machinery;
		// serial.go commits directly (the benchmark's mc.scale_w2 compares).
		goalID, err = e.exploreSerial()
	default:
		goalID, err = e.exploreSharded(workers)
	}
	return e, goalID, e.info.n, e.sumTransitions(), err
}

// exploreSharded is the level-synchronised loop over phases A to D.
func (e *explorer) exploreSharded(workers int) (goalID int, err error) {
	levelStart, levelEnd := 0, 1
	for levelStart < levelEnd {
		// Phase A: expand the level.
		next := int64(levelStart)
		chunk := (levelEnd - levelStart + workers*4 - 1) / (workers * 4)
		chunk = max(1, min(chunk, 256))
		runPhase(workers, func(w int) { e.expandWorker(e.ws[w], &next, levelEnd, chunk) })

		// Phase B: per-shard dedup and commit.
		var shardNext int64
		runPhase(workers, func(w int) { e.claimShards(&shardNext) })

		// Phase C: serial global id assignment in seq order.
		goalID, limitHit := e.assignIDs()
		if goalID >= 0 {
			// Goal wins over a same-level limit hit: it was committed
			// before the limit crossing, exactly as a sequential check
			// would have returned it first.
			return goalID, nil
		}
		if limitHit {
			return -1, fmt.Errorf("%w: %d states", ErrStateLimit, e.limit)
		}

		// Phase D: resolve candidate targets in recorded transitions.
		if e.withTrans {
			runPhase(workers, func(w int) { e.resolveTrans(e.ws[w]) })
		}

		levelStart, levelEnd = levelEnd, e.info.n
		for _, ws := range e.ws {
			ws.resetLevel()
		}
		for _, sg := range e.segs {
			sg.news = sg.news[:0]
		}
	}
	return -1, nil
}

// runPhase executes fn(w) for every worker and waits for all of them.
func runPhase(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// expandWorker claims chunks of the level's id range until it is drained.
// Chunks are claimed in increasing order, so the worker's candidate and
// transition lists come out seq-sorted.
func (e *explorer) expandWorker(ws *workerState, next *int64, levelEnd, chunk int) {
	for {
		lo := int(atomic.AddInt64(next, int64(chunk))) - chunk
		if lo >= levelEnd {
			return
		}
		hi := min(lo+chunk, levelEnd)
		for gid := lo; gid < hi; gid++ {
			e.expandState(ws, gid)
		}
	}
}

//hbvet:noalloc
func (e *explorer) expandState(ws *workerState, gid int) {
	ws.scratch.DecodeKey(e.key(gid), e.numLocs, e.numClocks)
	//lint:allow noalloc-closure prune/goal predicates are exploration configuration; the Options contract requires pure, allocation-free predicates
	if e.prune != nil && e.prune(&ws.scratch) {
		return
	}
	// Per the SuccCtx contract (see workerState), the result goes straight
	// back into ws.buf and is consumed before this worker's next call.
	ws.buf = ws.ctx.Successors(&ws.scratch, ws.buf[:0])
	ws.transitions += len(ws.buf)
	if len(ws.buf) >= 1<<seqTransBits {
		//lint:allow hot-path-alloc cold panic path; no model approaches 2^20 outgoing transitions
		panic(fmt.Sprintf("mc: state fan-out %d overflows seq tag", len(ws.buf)))
	}
	base := uint64(gid) << seqTransBits
	for i := range ws.buf {
		tr := &ws.buf[i]
		seq := base | uint64(i)
		off := len(ws.keyBuf)
		ws.keyBuf = tr.Target.AppendKey(ws.keyBuf)
		key := ws.keyBuf[off:]
		h := hashKey(key)
		sh := int(h >> (64 - shardBits))
		seg := e.segs[sh]
		if local, _, ok := seg.find(key, h); ok {
			// Committed in an earlier level; the probe is read-only
			// against a table frozen for the whole phase.
			ws.keyBuf = ws.keyBuf[:off]
			if e.withTrans {
				ws.trans.push(rawTrans{from: int32(gid), to: seg.gids[local], label: e.labelID(tr.Label)})
			}
			continue
		}
		label := e.labelID(tr.Label)
		ci := int32(len(ws.cands))
		ws.cands = append(ws.cands, candidate{
			seq:    seq,
			hash:   h,
			off:    uint32(off),
			parent: int32(gid),
			local:  -1,
			shard:  uint8(sh),
			delay:  tr.Delay,
			label:  label,
			// The goal is evaluated here, while the target is live in the
			// successor buffer; only the first occurrence's verdict is
			// ever used. Concurrent calls require a pure goal predicate
			// (see Options.Workers).
			//lint:allow noalloc-closure prune/goal predicates are exploration configuration; the Options contract requires pure, allocation-free predicates
			goalHit: e.goal != nil && e.goal(&tr.Target),
		})
		ws.perShard[sh] = append(ws.perShard[sh], ci)
		if e.withTrans {
			ws.trans.push(rawTrans{from: int32(gid), to: ^ci, label: label})
		}
	}
}

// claimShards hands out whole shards to workers; each shard is committed
// by exactly one goroutine per level.
func (e *explorer) claimShards(next *int64) {
	for {
		sh := int(atomic.AddInt64(next, 1)) - 1
		if sh >= numShards {
			return
		}
		e.commitShard(sh)
	}
}

// commitShard merges the workers' candidate lists for shard sh in seq
// order and appends each first occurrence to the segment. Writing
// cand.local across workers is safe: owners of different shards touch
// disjoint candidate records, and a barrier separates this phase from the
// readers.
func (e *explorer) commitShard(sh int) {
	seg := e.segs[sh]
	var heads [64]int
	if len(e.ws) > len(heads) {
		panic("mc: more than 64 workers")
	}
	for {
		best, bestSeq := -1, uint64(math.MaxUint64)
		for w := range e.ws {
			lst := e.ws[w].perShard[sh]
			if heads[w] < len(lst) {
				if c := &e.ws[w].cands[lst[heads[w]]]; c.seq < bestSeq {
					best, bestSeq = w, c.seq
				}
			}
		}
		if best < 0 {
			return
		}
		wsb := e.ws[best]
		ci := wsb.perShard[sh][heads[best]]
		heads[best]++
		c := &wsb.cands[ci]
		key := wsb.keyBuf[c.off : int(c.off)+e.keyLen]
		local, added := seg.intern(key, c.hash)
		c.local = int32(local)
		if added {
			seg.news = append(seg.news, newsRef{seq: c.seq, w: int32(best), ci: ci})
		}
	}
}

// assignIDs is phase C: a serial min-scan merge over the shards'
// first-occurrence lists that commits new states to the global maps in
// seq order. It returns the canonical goal id (first goal hit in seq
// order, -1 if none) and whether the state limit was crossed.
func (e *explorer) assignIDs() (goalID int, limitHit bool) {
	goalID = -1
	var heads [numShards]int
	for {
		best, bestSeq := -1, uint64(math.MaxUint64)
		for s := range e.segs {
			if news := e.segs[s].news; heads[s] < len(news) && news[heads[s]].seq < bestSeq {
				best, bestSeq = s, news[heads[s]].seq
			}
		}
		if best < 0 {
			return goalID, false
		}
		sg := e.segs[best]
		rec := sg.news[heads[best]]
		heads[best]++
		gid := e.info.n
		if gid >= e.limit {
			return goalID, true
		}
		c := &e.ws[rec.w].cands[rec.ci]
		if int(c.local) != len(sg.gids) {
			panic("mc: shard commit order diverged from seq order")
		}
		sg.gids = append(sg.gids, int32(gid))
		e.index = append(e.index, packLoc(best, int(c.local)))
		e.info.push(nodeInfo{parent: c.parent, label: c.label, delay: c.delay})
		if goalID < 0 && c.goalHit {
			goalID = gid
		}
	}
}

// resolveTrans is phase D: rewrite this level's candidate-targeted
// transitions to their final global ids.
func (e *explorer) resolveTrans(ws *workerState) {
	for i := ws.levelTransStart; i < ws.trans.n; i++ {
		if rt := ws.trans.at(i); rt.to < 0 {
			c := &ws.cands[^rt.to]
			rt.to = e.segs[c.shard].gids[c.local]
		}
	}
}

func (e *explorer) sumTransitions() int {
	total := 0
	for _, ws := range e.ws {
		total += ws.transitions
	}
	return total
}

// lts merges the workers' transition logs into the finished LTS, in the
// (parent id, successor index) emission order of a sequential build, with
// its labels interned in order of first use, as LTS.internLabels would.
func (e *explorer) lts() *LTS {
	total := 0
	for _, ws := range e.ws {
		total += ws.trans.n
	}
	l := &LTS{NumStates: e.info.n, Transitions: make([]Trans, total), labelIDs: make([]int32, total)}
	ltsID := make([]int32, len(e.labels)) // explorer label id -> LTS label id + 1
	heads := make([]int, len(e.ws))
	for i := range l.Transitions {
		best, bestFrom := -1, int32(math.MaxInt32)
		for w, ws := range e.ws {
			if heads[w] < ws.trans.n {
				if from := ws.trans.at(heads[w]).from; from < bestFrom {
					best, bestFrom = w, from
				}
			}
		}
		rt := e.ws[best].trans.at(heads[best])
		heads[best]++
		if ltsID[rt.label] == 0 {
			l.labelNames = append(l.labelNames, e.labels[rt.label])
			ltsID[rt.label] = int32(len(l.labelNames))
		}
		l.labelIDs[i] = ltsID[rt.label] - 1
		l.Transitions[i] = Trans{From: int(rt.from), Label: e.labels[rt.label], To: int(rt.to)}
	}
	return l
}
