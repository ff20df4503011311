package mc

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/ta"
)

// Tau is the label of hidden (internal) transitions in an LTS.
const Tau = "tau"

// Trans is one labelled transition of an LTS.
type Trans struct {
	From  int
	Label string
	To    int
}

// LTS is an explicit labelled transition system.
type LTS struct {
	NumStates   int
	Initial     int
	Transitions []Trans
	// labelIDs and labelNames intern the transition labels to dense
	// integer ids in order of first use (BuildLTS fills them from the
	// explorer's label table, internLabels builds them for any other
	// LTS), so the reduction algorithms compare ints instead of strings.
	labelIDs   []int32
	labelNames []string
}

// InternedLabels returns every transition's label id, parallel to
// Transitions, and the id-to-name table, so a caller can decide once per
// distinct label. Both slices belong to the LTS: read-only.
func (l *LTS) InternedLabels() (ids []int32, names []string) {
	l.internLabels()
	return l.labelIDs, l.labelNames
}

// internLabels builds the label intern table; a no-op when already built
// for the current transition count.
func (l *LTS) internLabels() {
	if l.labelIDs != nil && len(l.labelIDs) == len(l.Transitions) {
		return
	}
	idx := make(map[string]int32, 16)
	l.labelNames = l.labelNames[:0]
	l.labelIDs = make([]int32, len(l.Transitions))
	for i, t := range l.Transitions {
		id, ok := idx[t.Label]
		if !ok {
			id = int32(len(l.labelNames))
			l.labelNames = append(l.labelNames, t.Label)
			idx[t.Label] = id
		}
		l.labelIDs[i] = id
	}
}

// BuildLTS generates the full reachable transition system of a network.
// Transitions come out in (source id, successor enumeration) order.
func BuildLTS(n *ta.Network, opts Options) (*LTS, error) {
	e, _, _, _, err := explore(n, nil, Options{MaxStates: opts.MaxStates}, true)
	if err != nil {
		return nil, err
	}
	return e.lts(), nil
}

// Hide renames every transition whose label satisfies hidden to Tau. The
// predicate is evaluated once per distinct label, not once per transition.
func (l *LTS) Hide(hidden func(string) bool) *LTS {
	l.internLabels()
	renamed := make([]string, len(l.labelNames))
	for i, name := range l.labelNames {
		if hidden(name) {
			renamed[i] = Tau
		} else {
			renamed[i] = name
		}
	}
	out := &LTS{NumStates: l.NumStates, Initial: l.Initial}
	out.Transitions = make([]Trans, len(l.Transitions))
	for i, t := range l.Transitions {
		t.Label = renamed[l.labelIDs[i]]
		out.Transitions[i] = t
	}
	return out
}

// Labels returns the sorted set of labels.
func (l *LTS) Labels() []string {
	l.internLabels()
	out := append([]string(nil), l.labelNames...)
	sort.Strings(out)
	return out
}

// lEdge is an interned transition: a label id and a target state.
type lEdge struct {
	label, to int32
}

// succEdges builds the per-state interned successor lists.
func (l *LTS) succEdges() [][]lEdge {
	l.internLabels()
	succ := make([][]lEdge, l.NumStates)
	for i, t := range l.Transitions {
		succ[t.From] = append(succ[t.From], lEdge{l.labelIDs[i], int32(t.To)})
	}
	return succ
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
	succ := l.succEdges()
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
	return l.quotient(block, numBlocks)
}

// quotient collapses states by block assignment.
func (l *LTS) quotient(block []int32, numBlocks int) *LTS {
	out := &LTS{NumStates: numBlocks, Initial: int(block[l.Initial])}
	seen := map[Trans]bool{}
	for _, t := range l.Transitions {
		q := Trans{From: int(block[t.From]), Label: t.Label, To: int(block[t.To])}
		if !seen[q] {
			seen[q] = true
			out.Transitions = append(out.Transitions, q)
		}
	}
	sort.Slice(out.Transitions, func(i, j int) bool {
		a, b := out.Transitions[i], out.Transitions[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.To < b.To
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
	succ := l.succEdges()
	numLabels := len(l.labelNames)
	tau := int32(-1)
	for i, name := range l.labelNames {
		if name == Tau {
			tau = int32(i)
		}
	}

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

	// byName lists the visible label ids in label-name order, so subset
	// states are discovered in exactly the order of the original
	// string-keyed construction (figure tests pin the output).
	byName := make([]int32, 0, numLabels)
	for i := int32(0); i < int32(numLabels); i++ {
		if i != tau {
			byName = append(byName, i)
		}
	}
	slices.SortFunc(byName, func(a, b int32) int {
		return strings.Compare(l.labelNames[a], l.labelNames[b])
	})

	initSet := closure(map[int]bool{l.Initial: true})
	sets := []map[int]bool{initSet}
	index := map[string]int{string(keyOf(initSet)): 0}
	out := &LTS{NumStates: 1}

	byLabel := make([]map[int]bool, numLabels)
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
			out.Transitions = append(out.Transitions, Trans{From: head, Label: l.labelNames[lab], To: id})
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
		label := t.Label
		if label == Tau {
			label = "i" // CADP's internal action
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
