package mc

// Serial fast path for Workers <= 1.
//
// The level-synchronised parallel BFS (parallel.go) is byte-identical at
// any worker count, but its machinery — candidate records, per-shard
// seq-merges, a two-pass commit, global/local id maps — is pure
// coordination overhead when one goroutine explores (the benchmark's
// mc.states_per_s.* and mc.allocs_per_check measure this engine,
// mc.scale_w2 its ratio to two sharded workers). This file is the direct
// route: a classic BFS that interns successors into a single segment as it
// discovers them (global id = store id), on the same explorer and records,
// with the parallel engine's exact observable semantics:
//
//   - states are committed in seq order (parent id, transition index) —
//     for one worker that is simply discovery order;
//   - the level containing a goal (or crossing the state limit) is still
//     expanded in full, so TransitionsExplored matches;
//   - the goal is only reported for committed states, and a goal in the
//     same level as a limit crossing wins iff it was committed first;
//   - recorded transitions carry the same final global ids (targets past
//     the state limit stay unresolved, as phase D never runs then).

import "fmt"

// exploreSerial is the Workers<=1 route around the parallel machinery.
// Outputs are byte-identical to exploreSharded with any worker count.
func (e *explorer) exploreSerial() (goalID int, err error) {
	ws := e.ws[0]
	levelStart, levelEnd := 0, 1
	for levelStart < levelEnd {
		goalID := -1
		limitHit := false
		for gid := levelStart; gid < levelEnd; gid++ {
			e.expandStateSerial(ws, gid, &goalID, &limitHit)
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

//hbvet:noalloc
// expandStateSerial generates gid's successors and commits first
// occurrences directly: one probe, insert at the slot it ended on, check
// the goal — one pass, no candidate records. Same-level duplicates dedup
// against the live table (the parallel engine's frozen-probe + seq-merge
// reaches the identical first-occurrence winner, because serial discovery
// order IS seq order).
func (e *explorer) expandStateSerial(ws *workerState, gid int, goalID *int, limitHit *bool) {
	seg := e.segs[0]
	ws.scratch.DecodeKey(seg.key(gid), e.numLocs, e.numClocks)
	//lint:allow noalloc-closure prune/goal predicates are exploration configuration; the Options contract requires pure, allocation-free predicates
	if e.prune != nil && e.prune(&ws.scratch) {
		return
	}
	// Successors recycles ws.buf per the SuccCtx contract (see workerState).
	ws.buf = ws.ctx.Successors(&ws.scratch, ws.buf[:0])
	ws.transitions += len(ws.buf)
	for i := range ws.buf {
		tr := &ws.buf[i]
		ws.keyBuf = tr.Target.AppendKey(ws.keyBuf[:0])
		h := hashKey(ws.keyBuf)
		to, slot, seen := seg.find(ws.keyBuf, h)
		switch {
		case seen:
		case *limitHit || e.info.n >= e.limit:
			// Past the limit nothing commits, but the rest of the level
			// still expands so the transition count matches.
			*limitHit = true
			to = -1
		default:
			to = seg.insert(ws.keyBuf, h, slot)
			e.info.push(nodeInfo{parent: int32(gid), label: e.labelID(tr.Label), delay: tr.Delay})
			//lint:allow noalloc-closure prune/goal predicates are exploration configuration; the Options contract requires pure, allocation-free predicates
			if *goalID < 0 && e.goal != nil && e.goal(&tr.Target) {
				*goalID = to
			}
		}
		if e.withTrans {
			ws.trans.push(rawTrans{from: int32(gid), to: int32(to), label: e.labelID(tr.Label)})
		}
	}
}
