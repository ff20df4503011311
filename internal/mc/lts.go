package mc

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/alphabet"
	"repro/internal/ta"
)

// Trans is one labelled transition of an LTS.
type Trans struct {
	From  int
	Label alphabet.Label
	To    int
}

// LTS is an explicit labelled transition system. A hidden transition
// carries tau, the zero Label. Every label is one an alphabet.Index
// covers — an enumerated kind with non-negative arguments — as BuildLTS's
// are; the reductions number them with one.
type LTS struct {
	NumStates   int
	Initial     int
	Transitions []Trans
}

// A Sink receives the transitions of an LTS exploration (ExploreLTS) as
// they are generated: grouped by source, sources in ascending id order
// from 0, the initial configuration, each source's in successor
// enumeration order. A target id may be
// one the source's own transitions just discovered, but every id is below
// the state count the exploration returns; states with no transition are
// skipped. A sink runs inside the explorer's allocation-free loop, so it
// must not allocate per transition beyond amortised growth of its own.
type Sink func(from, to int, label alphabet.Label)

// ExploreLTS generates the full reachable transition system of a network,
// or of its quotient under opts.Canon (see Options.Canon for the stricter
// contract that hook has here), and hands each transition to sink instead
// of keeping it: the caller builds whatever form of the LTS it needs in
// one pass. It returns the number of states. Prune is ignored. Past
// opts.MaxStates it fails with ErrStateLimit at the end of that BFS level;
// the transitions the sink got by then describe no LTS, and a caller drops
// them.
func ExploreLTS(n *ta.Network, opts Options, sink Sink) (states int, err error) {
	e, err := explore(n, nil, Options{MaxStates: opts.MaxStates, Canon: opts.Canon}, sink)
	if err != nil {
		return 0, err
	}
	return e.info.n, nil
}

// rawTrans is one transition BuildLTS logs while exploring: label is the
// label's id in the network's labelIndex.
type rawTrans struct {
	from, to int32
	label    uint16
}

// BuildLTS generates the full reachable transition system of a network, or
// of its quotient under opts.Canon, as an LTS: ExploreLTS with a sink that
// logs 12-byte records and copies them into Transitions once the count is
// known. Transitions come out in (source id, successor enumeration) order.
func BuildLTS(n *ta.Network, opts Options) (*LTS, error) {
	x, err := labelIndex(n)
	if err != nil {
		return nil, err
	}
	var log paged[rawTrans]
	states, err := ExploreLTS(n, opts, func(from, to int, label alphabet.Label) {
		id, _ := x.ID(label)
		log.push(rawTrans{from: int32(from), to: int32(to), label: uint16(id)})
	})
	if err != nil {
		return nil, err
	}
	l := &LTS{NumStates: states, Transitions: make([]Trans, log.n)}
	for i := range l.Transitions {
		rt := log.at(i)
		l.Transitions[i] = Trans{From: int(rt.from), Label: x.Label(int(rt.label)), To: int(rt.to)}
	}
	return l, nil
}

// Hide renames every transition whose label satisfies hidden to tau.
func (l *LTS) Hide(hidden func(alphabet.Label) bool) *LTS {
	out := &LTS{NumStates: l.NumStates, Initial: l.Initial, Transitions: make([]Trans, len(l.Transitions))}
	for i, t := range l.Transitions {
		if hidden(t.Label) {
			t.Label = alphabet.Label{}
		}
		out.Transitions[i] = t
	}
	return out
}

// lEdge is a numbered transition: a label id and a target state.
type lEdge struct {
	label, to int32
}

// succEdges numbers the labels with an index that covers them all and
// builds the per-state successor lists over the ids.
func (l *LTS) succEdges() (alphabet.Index, [][]lEdge) {
	var x alphabet.Index
	for _, t := range l.Transitions {
		if !x.Cover(t.Label) {
			panic(fmt.Sprintf("mc: LTS label %v is outside every alphabet.Index", t.Label))
		}
	}
	succ := make([][]lEdge, l.NumStates)
	for _, t := range l.Transitions {
		id, _ := x.ID(t.Label)
		succ[t.From] = append(succ[t.From], lEdge{int32(id), int32(t.To)})
	}
	return x, succ
}

// texts renders each label of ts once, by its id in x; "" marks an id no
// transition carries. The reductions order by text, as they did when
// labels were strings.
func texts(x alphabet.Index, ts []Trans) []string {
	text := make([]string, x.Len())
	for _, t := range ts {
		if id, _ := x.ID(t.Label); text[id] == "" {
			text[id] = t.Label.String()
		}
	}
	return text
}

// appendUint32/appendUint64 extend binary signature keys.
func appendUint32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendUint64(buf []byte, v uint64) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// MinimizeStrong returns the quotient of the LTS under strong
// bisimulation, via signature-based partition refinement. Signatures are
// packed (label id, successor block) integers — sorted and deduplicated in
// a reused buffer, with no per-state maps or string formatting.
func (l *LTS) MinimizeStrong() *LTS {
	x, succ := l.succEdges()
	block := make([]int32, l.NumStates) // all in block 0 initially
	numBlocks := 1
	var sigBuf []uint64
	var keyBuf []byte
	for {
		sigs := make(map[string]int32, numBlocks)
		next := make([]int32, l.NumStates)
		for s := 0; s < l.NumStates; s++ {
			sigBuf = sigBuf[:0]
			for _, e := range succ[s] {
				sigBuf = append(sigBuf, uint64(uint32(e.label))<<32|uint64(uint32(block[e.to])))
			}
			slices.Sort(sigBuf)
			keyBuf = appendUint32(keyBuf[:0], uint32(block[s]))
			for i, p := range sigBuf {
				if i > 0 && p == sigBuf[i-1] {
					continue
				}
				keyBuf = appendUint64(keyBuf, p)
			}
			id, ok := sigs[string(keyBuf)]
			if !ok {
				id = int32(len(sigs))
				sigs[string(keyBuf)] = id
			}
			next[s] = id
		}
		if len(sigs) == numBlocks {
			block = next
			break
		}
		numBlocks = len(sigs)
		block = next
	}
	return l.quotient(x, block, numBlocks)
}

// quotient collapses states by block assignment, ordering the transitions
// by source, label text and target.
func (l *LTS) quotient(x alphabet.Index, block []int32, numBlocks int) *LTS {
	out := &LTS{NumStates: numBlocks, Initial: int(block[l.Initial])}
	seen := map[Trans]bool{}
	for _, t := range l.Transitions {
		q := Trans{From: int(block[t.From]), Label: t.Label, To: int(block[t.To])}
		if !seen[q] {
			seen[q] = true
			out.Transitions = append(out.Transitions, q)
		}
	}
	text := texts(x, l.Transitions)
	slices.SortFunc(out.Transitions, func(a, b Trans) int {
		ia, _ := x.ID(a.Label)
		ib, _ := x.ID(b.Label)
		return cmp.Or(cmp.Compare(a.From, b.From), strings.Compare(text[ia], text[ib]), cmp.Compare(a.To, b.To))
	})
	return out
}

// WeakTraceReduce determinises the LTS modulo weak-trace equivalence:
// tau-transitions are eliminated by closure, visible transitions are
// determinised by subset construction, and the result is minimised. The
// result accepts exactly the same weak traces (sequences of visible
// labels). Subset construction can blow up exponentially, so the same
// state limit applies.
func (l *LTS) WeakTraceReduce(opts Options) (*LTS, error) {
	limit := opts.maxStates()
	x, succ := l.succEdges()
	id, _ := x.ID(alphabet.Label{})
	tau := int32(id)

	closure := func(set map[int]bool) map[int]bool {
		stack := make([]int, 0, len(set))
		for s := range set {
			//lint:allow map-order worklist seeding; the computed closure is a set, so the pop order cannot reach the output
			stack = append(stack, s)
		}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range succ[s] {
				if e.label == tau && !set[int(e.to)] {
					set[int(e.to)] = true
					stack = append(stack, int(e.to))
				}
			}
		}
		return set
	}
	// keyOf encodes a subset as its sorted member ids packed into a reused
	// byte buffer (replacing the old "%d," string keys); the result aliases
	// the buffer, so copy via the map's string conversion before reuse.
	var ids []int
	var keyBuf []byte
	keyOf := func(set map[int]bool) []byte {
		ids = ids[:0]
		for s := range set {
			ids = append(ids, s)
		}
		slices.Sort(ids)
		keyBuf = keyBuf[:0]
		for _, id := range ids {
			keyBuf = appendUint32(keyBuf, uint32(id))
		}
		return keyBuf
	}

	// byName lists the visible label ids in label-text order, so subset
	// states are discovered in exactly the order of the original
	// string-keyed construction (figure tests pin the output).
	text := texts(x, l.Transitions)
	var byName []int32
	for id, t := range text {
		if t != "" && int32(id) != tau {
			byName = append(byName, int32(id))
		}
	}
	slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(text[a], text[b]) })

	initSet := closure(map[int]bool{l.Initial: true})
	sets := []map[int]bool{initSet}
	index := map[string]int{string(keyOf(initSet)): 0}
	out := &LTS{NumStates: 1}

	byLabel := make([]map[int]bool, x.Len())
	for head := 0; head < len(sets); head++ {
		// Group visible successors by label id.
		for s := range sets[head] {
			for _, e := range succ[s] {
				if e.label == tau {
					continue
				}
				if byLabel[e.label] == nil {
					byLabel[e.label] = map[int]bool{}
				}
				byLabel[e.label][int(e.to)] = true
			}
		}
		for _, lab := range byName {
			if byLabel[lab] == nil {
				continue
			}
			target := closure(byLabel[lab])
			byLabel[lab] = nil
			key := keyOf(target)
			id, seen := index[string(key)]
			if !seen {
				id = len(sets)
				if id >= limit {
					return nil, fmt.Errorf("%w: %d subset states", ErrStateLimit, limit)
				}
				index[string(key)] = id
				sets = append(sets, target)
				out.NumStates++
			}
			out.Transitions = append(out.Transitions, Trans{From: head, Label: x.Label(int(lab)), To: id})
		}
	}
	return out.MinimizeStrong(), nil
}

// WriteAUT emits the LTS in Aldebaran (.aut) format, as consumed by CADP.
func (l *LTS) WriteAUT(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "des (%d, %d, %d)\n", l.Initial, len(l.Transitions), l.NumStates); err != nil {
		return err
	}
	for _, t := range l.Transitions {
		label := "i" // CADP's internal action
		if t.Label.Kind != alphabet.Tau {
			label = t.Label.String()
		}
		if _, err := fmt.Fprintf(w, "(%d, %q, %d)\n", t.From, label, t.To); err != nil {
			return err
		}
	}
	return nil
}

// WriteDOT emits the LTS in Graphviz format.
func (l *LTS) WriteDOT(w io.Writer, name string) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=circle];\n", name); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  s%d [shape=doublecircle];\n", l.Initial); err != nil {
		return err
	}
	for _, t := range l.Transitions {
		if _, err := fmt.Fprintf(w, "  s%d -> s%d [label=%q];\n", t.From, t.To, t.Label); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
