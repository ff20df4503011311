package conform

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mc"
	"repro/internal/models"
)

// specLabel maps a raw model-LTS label to the conformance alphabet. The
// second result is false for labels the runtime cannot observe, which
// become internal (tau) steps of the specification:
//
//   - the empty label and mc.Tau (internal model transitions, including
//     channel busy-drops),
//   - "p[0]: start" (the unrevised coordinator's silent init),
//   - every "lose …" label (loss leaves no runtime event; the checker
//     tracks lost-versus-delivered ambiguity in its frontier),
//   - "p[i] gives no reply" (an inactive responder consuming a beat on
//     the model's channel; the runtime-side delivery is recorded at the
//     node, not the channel),
//   - "p[i]: suppress duplicate join" (internal joiner bookkeeping),
//   - "error R1 …" (monitor transitions; specs are built monitor-free,
//     this is belt and braces).
//
// Join-beat deliveries to the coordinator are merged into the plain
// delivery label: on the wire a join solicitation is an ordinary beat,
// and the runtime cannot tell which model channel carried it.
func specLabel(label string) (string, bool) {
	switch {
	case label == "" || label == mc.Tau || label == "p[0]: start":
		return "", false
	case strings.HasPrefix(label, "lose "):
		return "", false
	case strings.HasSuffix(label, "gives no reply"):
		return "", false
	case strings.HasSuffix(label, "suppress duplicate join"):
		return "", false
	case strings.HasPrefix(label, "error R1"):
		return "", false
	case strings.HasPrefix(label, "deliver join beat "):
		return strings.Replace(label, "deliver join beat", "deliver beat", 1), true
	}
	return label, true
}

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

	labelIDs   map[string]int32
	labelNames []string
	tickID     int32

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
		labelIDs:       make(map[string]int32, 32),
	}
	intern := func(name string) int32 {
		id, ok := sp.labelIDs[name]
		if !ok {
			id = int32(len(sp.labelNames))
			sp.labelNames = append(sp.labelNames, name)
			sp.labelIDs[name] = id
		}
		return id
	}
	sp.tickID = intern(LabelTick)

	// specLabel runs once per distinct model label, not per transition:
	// specID maps the LTS's label ids to alphabet ids, -1 for hidden ones.
	ids, names := lts.InternedLabels()
	specID := make([]int32, len(names))
	for i, raw := range names {
		specID[i] = -1
		if name, vis := specLabel(raw); vis {
			specID[i] = intern(name)
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
	sp.region.init(len(sp.labelNames), sp.NumStates)
	return sp, nil
}

// Alphabet returns the sorted visible labels of the specification.
func (sp *Spec) Alphabet() []string {
	out := append([]string(nil), sp.labelNames...)
	sort.Strings(out)
	return out
}
