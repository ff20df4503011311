package conform

import (
	"fmt"
	"sort"

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

	// labels lists the visible alphabet by id; ids is its inverse, dense
	// over (kind, process): ids[kind*stride+A], -1 where the specification
	// has no such label. id is the bounds-checked way in.
	labels []alphabet.Label
	ids    []int32
	stride int32
	tickID int32

	visOff []int32
	vis    []visEdge
	tauOff []int32
	tauTo  []int32

	// region memoises the frontiers that follow an all-states reseed,
	// shared by every checker of this specification (region.go).
	region reseedRegion
}

// BuildSpec builds the conformance specification for a model
// configuration. The R1 monitors are dropped (they are observers, not
// protocol behaviour, and their clocks inflate the state space).
func BuildSpec(cfg models.Config, opts mc.Options) (*Spec, error) {
	cfg.NoMonitor = true
	m, err := models.Build(cfg)
	if err != nil {
		return nil, err
	}
	lts, err := mc.BuildLTS(m.Net, opts)
	if err != nil {
		return nil, fmt.Errorf("conform: building %v LTS: %w", cfg.Variant, err)
	}
	if lts.Initial != 0 {
		return nil, fmt.Errorf("conform: unexpected initial state %d", lts.Initial)
	}

	sp := &Spec{
		Cfg:            cfg,
		NumStates:      lts.NumStates,
		NumTransitions: len(lts.Transitions),
	}

	// The model's labels are about p[0]..p[N], N as Build settled it; the
	// table spans exactly those.
	sp.stride = int32(m.Cfg.N) + 1
	sp.ids = make([]int32, int(alphabet.NumKinds)*int(sp.stride))
	for i := range sp.ids {
		sp.ids[i] = -1
	}
	intern := func(l alphabet.Label) int32 {
		slot := &sp.ids[int32(l.Kind)*sp.stride+l.A]
		if *slot < 0 {
			*slot = int32(len(sp.labels))
			sp.labels = append(sp.labels, l)
		}
		return *slot
	}
	sp.tickID = intern(tick)

	// Each distinct model label is read once, not per transition: specID
	// maps the LTS's label ids to the specification's, -1 for what the
	// runtime cannot observe, which become internal (tau) steps — the LTS's
	// own unlabelled and mc.Tau transitions (channel busy-drops among them)
	// and the alphabet's hidden kinds. Join deliveries are interned as the
	// plain deliveries they are on the wire.
	ids, names := lts.InternedLabels()
	specID := make([]int32, len(names))
	for i, raw := range names {
		specID[i] = -1
		if raw == "" || raw == mc.Tau {
			continue
		}
		l, ok := alphabet.Parse(raw)
		if !ok || uint32(l.A) >= uint32(sp.stride) {
			return nil, fmt.Errorf("conform: %v model label %q is not in the alphabet of %d participants", cfg.Variant, raw, m.Cfg.N)
		}
		if l.Kind.Observable() {
			specID[i] = intern(alphabet.Label{Kind: l.Kind.Wire(), A: l.A})
		}
	}

	// Two counting-sort passes build the CSR adjacency.
	visCount := make([]int32, lts.NumStates+1)
	tauCount := make([]int32, lts.NumStates+1)
	for i, t := range lts.Transitions {
		if specID[ids[i]] >= 0 {
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
	for i, t := range lts.Transitions {
		if id := specID[ids[i]]; id >= 0 {
			sp.vis[visNext[t.From]] = visEdge{label: id, to: int32(t.To)}
			visNext[t.From]++
		} else {
			sp.tauTo[tauNext[t.From]] = int32(t.To)
			tauNext[t.From]++
		}
	}
	sp.region.init(len(sp.labels), sp.NumStates)
	return sp, nil
}

// id returns the specification's id of l, or -1 when l is outside its
// alphabet — which every label is whose kind or process the table does not
// span, and every two-argument (runtime-only) kind.
func (sp *Spec) id(l alphabet.Label) int32 {
	if l.Kind >= alphabet.NumKinds || uint32(l.A) >= uint32(sp.stride) {
		return -1
	}
	return sp.ids[int32(l.Kind)*sp.stride+l.A]
}

// Alphabet returns the sorted visible labels of the specification.
func (sp *Spec) Alphabet() []string {
	out := make([]string, len(sp.labels))
	for i, l := range sp.labels {
		out[i] = l.String()
	}
	sort.Strings(out)
	return out
}
