package netem

import "fmt"

// MaxNodes bounds the NodeIDs a Table holds: [0, MaxNodes). It is the
// range of the beat codec's 16-bit signed sender field, so no protocol
// process can carry an ID beyond it anyway, and it caps what one call can
// make a table allocate at one row of MaxNodes entries.
const MaxNodes = 1 << 15

// Table is a dense store of per-node state N and per-link state L indexed
// by NodeID, the layout behind Network and faults.FaultableTransport: a
// lookup is two bounds checks, where a map would hash a 16-byte key. The
// node slice grows to the highest ID named so far and each node's row of
// outgoing links to the highest destination named from it, so a star of n
// nodes costs O(n) entries, not n². The zero value is an empty table;
// new state is zeroed. Pointers into the table are valid until the next
// Grow call that grows it.
type Table[N, L any] struct {
	nodes []tableNode[N, L]
}

type tableNode[N, L any] struct {
	state N
	out   []L // out[to] is the link to node to
}

// Node returns id's state, or nil when the table has not grown to id.
func (t *Table[N, L]) Node(id NodeID) *N {
	if uint(id) >= uint(len(t.nodes)) {
		return nil
	}
	return &t.nodes[id].state
}

// GrowNode is Node on a table grown to hold id. An ID outside
// [0, MaxNodes) is an ErrUnknownNode error.
func (t *Table[N, L]) GrowNode(id NodeID) (*N, error) {
	if uint(id) >= MaxNodes {
		//lint:allow noalloc-closure cold error path; every registered node's ID is in range
		return nil, fmt.Errorf("%w: %d outside [0, %d)", ErrUnknownNode, id, MaxNodes)
	}
	t.nodes = growTo(t.nodes, int(id)+1)
	return &t.nodes[id].state, nil
}

// GrowLink returns the from→to link's state on a table grown to hold both
// nodes and the link; once it has, the call is two bounds checks.
func (t *Table[N, L]) GrowLink(from, to NodeID) (*L, error) {
	if uint(from) < uint(len(t.nodes)) && uint(to) < uint(len(t.nodes[from].out)) {
		return &t.nodes[from].out[to], nil
	}
	for _, id := range [2]NodeID{from, to} {
		if _, err := t.GrowNode(id); err != nil {
			return nil, err
		}
	}
	row := &t.nodes[from]
	row.out = growTo(row.out, int(to)+1)
	return &row.out[to], nil
}

// EachLink calls fn for every link the table has grown to, in (from, to)
// order.
func (t *Table[N, L]) EachLink(fn func(from, to NodeID, l *L)) {
	for from := range t.nodes {
		out := t.nodes[from].out
		for to := range out {
			fn(NodeID(from), NodeID(to), &out[to])
		}
	}
}

// growTo extends s with zero values to at least n elements, at append's
// amortised cost.
func growTo[E any](s []E, n int) []E {
	if n <= len(s) {
		return s
	}
	//lint:allow noalloc-closure table growth on a node's or link's first mention, not steady state
	return append(s, make([]E, n-len(s))...)
}
