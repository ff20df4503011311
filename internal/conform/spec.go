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
// LTS is the model's label-preserving quotient ((*models.Model).BuildLTS),
// which has the network's weak traces.
func BuildSpec(cfg models.Config, opts mc.Options) (*Spec, error) {
	cfg.NoMonitor = true
	m, err := models.Build(cfg)
	if err != nil {
		return nil, err
	}
	lts, err := m.BuildLTS(opts)
	if err != nil {
		return nil, fmt.Errorf("conform: building %v LTS: %w", cfg.Variant, err)
	}
	return newSpec(cfg, m, lts)
}

// newSpec prepares lts, an LTS of model m built from cfg, for checking.
func newSpec(cfg models.Config, m *models.Model, lts *mc.LTS) (*Spec, error) {
	if lts.Initial != 0 {
		return nil, fmt.Errorf("conform: unexpected initial state %d", lts.Initial)
	}

	sp := &Spec{
		Cfg:            cfg,
		NumStates:      lts.NumStates,
		NumTransitions: len(lts.Transitions),
	}

	// The model's labels are about p[0]..p[N], N as Build settled it; the
	// index spans exactly those.
	sp.index.Cover(alphabet.SendBeat.Of(m.Cfg.N))
	sp.ids = make([]int32, sp.index.Len())
	for i := range sp.ids {
		sp.ids[i] = -1
	}
	intern := func(l alphabet.Label) int32 {
		id, _ := sp.index.ID(l)
		if sp.ids[id] < 0 {
			sp.ids[id] = int32(len(sp.labels))
			sp.labels = append(sp.labels, l)
		}
		return sp.ids[id]
	}
	sp.tickID = intern(tick)

	// Each distinct model label is classified once, not per transition:
	// specID maps a label's index id to the specification's, -1 for what
	// the runtime cannot observe, which become internal (tau) steps — the
	// LTS's unlabelled transitions (channel busy-drops among them) and the
	// alphabet's hidden kinds. Join deliveries are interned as the plain
	// deliveries they are on the wire. Two counting-sort passes then build
	// the CSR adjacency.
	const unseen = -2
	specID := make([]int32, sp.index.Len())
	for i := range specID {
		specID[i] = unseen
	}
	visCount := make([]int32, lts.NumStates+1)
	tauCount := make([]int32, lts.NumStates+1)
	for _, t := range lts.Transitions {
		id, ok := sp.index.ID(t.Label)
		if !ok {
			return nil, fmt.Errorf("conform: %v model label %q is about a process the %d participants lack", cfg.Variant, t.Label, m.Cfg.N)
		}
		if specID[id] == unseen {
			specID[id] = -1
			if t.Label.Kind.Observable() {
				specID[id] = intern(alphabet.Label{Kind: t.Label.Kind.Wire(), A: t.Label.A})
			}
		}
		if specID[id] >= 0 {
			visCount[t.From]++
		} else {
			tauCount[t.From]++
		}
	}
	sp.visOff = make([]int32, lts.NumStates+1)
	sp.tauOff = make([]int32, lts.NumStates+1)
	for s := 0; s < lts.NumStates; s++ {
		sp.visOff[s+1] = sp.visOff[s] + visCount[s]
		sp.tauOff[s+1] = sp.tauOff[s] + tauCount[s]
	}
	sp.vis = make([]visEdge, sp.visOff[lts.NumStates])
	sp.tauTo = make([]int32, sp.tauOff[lts.NumStates])
	visNext := append([]int32(nil), sp.visOff...)
	tauNext := append([]int32(nil), sp.tauOff...)
	for _, t := range lts.Transitions {
		id, _ := sp.index.ID(t.Label)
		if id := specID[id]; id >= 0 {
			sp.vis[visNext[t.From]] = visEdge{label: id, to: int32(t.To)}
			visNext[t.From]++
		} else {
			sp.tauTo[tauNext[t.From]] = int32(t.To)
			tauNext[t.From]++
		}
	}
	sp.initGraph()
	return sp, nil
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
