package ta

// ReferenceSuccessors is the enumerator Successors replaced, kept as the
// oracle for its location indices: every edge of every automaton and every
// declared channel in turn, each edge filtered by its source location. Its
// output, order included, is what Successors must emit.
func (c *SuccCtx) ReferenceSuccessors(s *State, buf []Transition) []Transition {
	n := c.n
	committed := c.committedActive(s)
	start := len(buf)
	for ai, a := range n.automata {
		for ei := range a.Edges {
			e := &a.Edges[ei]
			if e.Chan != 0 || !n.enabled(s, ai, e) {
				continue
			}
			if committed != nil && !committed[ai] {
				continue
			}
			var tr *Transition
			buf, tr = appendTarget(buf, s)
			tr.Target.Locs[ai] = uint8(e.To)
			e.apply(&tr.Target)
			tr.Label, tr.Class, tr.src = e.Label, e.Class, ai
		}
	}
	for ch := ChanID(1); ch < ChanID(len(n.channels)); ch++ {
		if n.channels[ch].Broadcast {
			buf = c.broadcastSuccessors(s, ch, committed, buf)
		} else {
			buf = n.handshakeSuccessors(s, ch, committed, buf)
		}
	}
	if n.priority {
		buf = c.applyPriority(s, buf, start)
	}
	return n.appendDelay(s, committed, buf)
}

// Src exposes the initiating automaton a transition records for the
// receive-priority rule.
func (t *Transition) Src() int { return t.src }
