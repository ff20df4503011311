package conform

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/mc"
	"repro/internal/models"
)

// visEdge is one visible transition: an interned label and a target state.
type visEdge struct {
	label, to int32
}

// Spec is a variant's model LTS prepared for trace-inclusion checking:
// monitor-free, with unobservable labels hidden, in CSR adjacency form.
type Spec struct {
	Cfg models.Config
	// NumStates and NumTransitions report the size of the underlying LTS.
	NumStates, NumTransitions int

	// labels lists the visible alphabet by its compact ids; ids is the
	// inverse, over the dense index of the labels about p[0]..p[N]: -1
	// where the specification has no such label. id is the way in.
	labels []alphabet.Label
	index  alphabet.Index
	ids    []int32
	tickID int32

	visOff []int32
	vis    []visEdge
	tauOff []int32
	tauTo  []int32

	// graph holds the frontiers every checker of this specification
	// steps through (check.go).
	graph frontierGraph
}

// BuildSpec builds the conformance specification for a model
// configuration. The R1 monitors are dropped (they are observers, not
// protocol behaviour, and their clocks inflate the state space), and the
// LTS is the model's label-preserving quotient ((*models.Model).ExploreLTS),
// which has the network's weak traces. The exploration streams each
// transition into a specBuilder, so no intermediate LTS is built.
func BuildSpec(cfg models.Config, opts mc.Options) (*Spec, error) {
	cfg.NoMonitor = true
	m, err := models.Build(cfg)
	if err != nil {
		return nil, err
	}
	b := newSpecBuilder(cfg, m)
	states, err := m.ExploreLTS(opts, b.add)
	if err != nil {
		return nil, fmt.Errorf("conform: building %v LTS: %w", cfg.Variant, err)
	}
	return b.finish(states)
}

// specBuilder is the mc.Sink that compiles an LTS of a model into a Spec's
// CSR arrays in one pass. It relies on the sink's order:
// transitions grouped by source, sources ascending from the initial state
// 0. A source's offsets are written when its first transition arrives (and
// those of the states before it without one), the edges are appended to
// chunked arrays, and finish joins them.
type specBuilder struct {
	sp *Spec
	n  int // the model's N, for the error naming a stray label
	// specID maps a model label's index id to the specification's: unseen
	// until the label first arrives, then -1 for what the runtime cannot
	// observe, which become internal (tau) steps — the LTS's unlabelled
	// transitions (channel busy-drops among them) and the alphabet's hidden
	// kinds. Join deliveries are interned as the plain deliveries they are
	// on the wire. Each distinct label is classified once.
	specID []int32
	// next is the first state whose offsets are not written yet.
	next           int
	visOff, tauOff chunked[int32]
	vis            chunked[visEdge]
	tauTo          chunked[int32]
	err            error
}

const unseen = -2

// newSpecBuilder returns the builder of a Spec for model m, built from cfg.
func newSpecBuilder(cfg models.Config, m *models.Model) *specBuilder {
	b := &specBuilder{sp: &Spec{Cfg: cfg}, n: m.Cfg.N}
	sp := b.sp
	// The model's labels are about p[0]..p[N], N as Build settled it; the
	// index spans exactly those.
	sp.index.Cover(alphabet.SendBeat.Of(m.Cfg.N))
	sp.ids = make([]int32, sp.index.Len())
	b.specID = make([]int32, sp.index.Len())
	for i := range sp.ids {
		sp.ids[i], b.specID[i] = -1, unseen
	}
	sp.tickID = b.intern(tick)
	return b
}

// intern returns l's specification id, numbering it if it is new.
func (b *specBuilder) intern(l alphabet.Label) int32 {
	sp := b.sp
	id, _ := sp.index.ID(l)
	if sp.ids[id] < 0 {
		sp.ids[id] = int32(len(sp.labels))
		sp.labels = append(sp.labels, l)
	}
	return sp.ids[id]
}

// add is the sink: it files the transition from -> to labelled l.
func (b *specBuilder) add(from, to int, l alphabet.Label) {
	b.writeOffsets(from)
	id, ok := b.sp.index.ID(l)
	if !ok {
		if b.err == nil {
			b.err = fmt.Errorf("conform: %v model label %q is about a process the %d participants lack", b.sp.Cfg.Variant, l, b.n)
		}
		return
	}
	sid := b.specID[id]
	if sid == unseen {
		sid = -1
		if l.Kind.Observable() {
			sid = b.intern(alphabet.Label{Kind: l.Kind.Wire(), A: l.A})
		}
		b.specID[id] = sid
	}
	if sid >= 0 {
		b.vis.push(visEdge{label: sid, to: int32(to)})
	} else {
		b.tauTo.push(int32(to))
	}
}

// writeOffsets writes the offsets of the states from next through s: the
// edges filed so far are all of the states before s.
func (b *specBuilder) writeOffsets(s int) {
	for ; b.next <= s; b.next++ {
		b.visOff.push(int32(b.vis.n))
		b.tauOff.push(int32(b.tauTo.n))
	}
}

// finish writes the offsets up to the end of an LTS of the given number of
// states, joins the arrays and sets up the frontier graph.
func (b *specBuilder) finish(states int) (*Spec, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.writeOffsets(states)
	sp := b.sp
	sp.NumStates, sp.NumTransitions = states, b.vis.n+b.tauTo.n
	sp.visOff, sp.tauOff = b.visOff.join(), b.tauOff.join()
	sp.vis, sp.tauTo = b.vis.join(), b.tauTo.join()
	sp.initGraph()
	return sp, nil
}

// chunked is an append-only array kept in chunks that are allocated at
// full size and never copied while it grows; join copies it once into a
// slice of its exact length. Chunks double from minChunk up to maxChunk
// entries, so a small spec does not pay for a large one's chunks.
type chunked[T any] struct {
	chunks [][]T
	last   []T // the last chunk, full length
	at     int // entries used in last
	n      int // entries in all
}

const minChunk, maxChunk = 1 << 8, 1 << 14

func (c *chunked[T]) push(v T) {
	if c.at == len(c.last) {
		c.last = make([]T, min(max(c.n, minChunk), maxChunk))
		c.chunks = append(c.chunks, c.last)
		c.at = 0
	}
	c.last[c.at] = v
	c.at++
	c.n++
}

func (c *chunked[T]) join() []T {
	out := make([]T, 0, c.n)
	for _, ch := range c.chunks[:max(len(c.chunks)-1, 0)] {
		out = append(out, ch...)
	}
	return append(out, c.last[:c.at]...)
}

// id returns the specification's id of l, or -1 when l is outside its
// alphabet — which every label is whose kind or process the index does not
// span, and every runtime-only two-argument label.
func (sp *Spec) id(l alphabet.Label) int32 {
	id, ok := sp.index.ID(l)
	if !ok {
		return -1
	}
	return sp.ids[id]
}
