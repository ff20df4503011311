package conform

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/mc"
	"repro/internal/models"
)

// BuildSpec streams the exploration into the CSR arrays (specBuilder).
// The tests here hold it to the way specs were built before: the model's
// quotient LTS materialised first, then two counting-sort passes over it.

// quotientLTS is the LTS of m's label-preserving quotient, materialised
// from the same exploration BuildSpec streams.
func quotientLTS(m *models.Model) (*mc.LTS, error) {
	l := &mc.LTS{}
	states, err := m.ExploreLTS(mc.Options{}, func(from, to int, label alphabet.Label) {
		l.Transitions = append(l.Transitions, mc.Trans{From: from, Label: label, To: to})
	})
	l.NumStates = states
	return l, err
}

// feedSpec compiles a materialised LTS of model m, built from cfg, with the
// spec builder, transition by transition in the LTS's order.
func feedSpec(cfg models.Config, m *models.Model, lts *mc.LTS) (*Spec, error) {
	b := newSpecBuilder(cfg, m)
	for _, t := range lts.Transitions {
		b.add(t.From, t.To, t.Label)
	}
	return b.finish(lts.NumStates)
}

// twoPassSpec is how specs were compiled before they streamed: classify
// every label of the materialised LTS, count each state's visible and tau
// edges, then place them with a second pass.
func twoPassSpec(cfg models.Config, m *models.Model, lts *mc.LTS) (*Spec, error) {
	if lts.Initial != 0 {
		return nil, fmt.Errorf("unexpected initial state %d", lts.Initial)
	}
	sp := &Spec{Cfg: cfg, NumStates: lts.NumStates, NumTransitions: len(lts.Transitions)}
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
	specID := make([]int32, sp.index.Len())
	for i := range specID {
		specID[i] = unseen
	}
	visCount := make([]int32, lts.NumStates+1)
	tauCount := make([]int32, lts.NumStates+1)
	for _, t := range lts.Transitions {
		id, ok := sp.index.ID(t.Label)
		if !ok {
			return nil, fmt.Errorf("model label %q is outside the index", t.Label)
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
	visNext := slices.Clone(sp.visOff)
	tauNext := slices.Clone(sp.tauOff)
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
	return sp, nil
}

// sameArrays reports the first field in which two specs' compiled forms
// differ, or "".
func sameArrays(got, want *Spec) string {
	switch {
	case got.NumStates != want.NumStates || got.NumTransitions != want.NumTransitions:
		return fmt.Sprintf("%d states / %d transitions, want %d / %d", got.NumStates, got.NumTransitions, want.NumStates, want.NumTransitions)
	case !slices.Equal(got.labels, want.labels):
		return fmt.Sprintf("labels %v, want %v", got.labels, want.labels)
	case !slices.Equal(got.ids, want.ids) || got.tickID != want.tickID:
		return "ids differ"
	case !slices.Equal(got.visOff, want.visOff):
		return "visOff differs"
	case !slices.Equal(got.vis, want.vis):
		return "vis differs"
	case !slices.Equal(got.tauOff, want.tauOff):
		return "tauOff differs"
	case !slices.Equal(got.tauTo, want.tauTo):
		return "tauTo differs"
	}
	return ""
}

// specDifferentialConfigs are every level of the three topology campaigns
// and every variant hbconform walks, at its widest walk timing (2,4): N=1,
// static N=2 too, original and corrected.
func specDifferentialConfigs() []models.Config {
	var cfgs []models.Config
	for _, tc := range topoCampaigns {
		check := topoCheck(tc.variant, tc.n)
		for level := 0; level < topoEnvelope.Levels(); level++ {
			cfgs = append(cfgs, check.levelConfig(level))
		}
	}
	for _, v := range models.Variants {
		for _, fixed := range []bool{false, true} {
			cfgs = append(cfgs, models.Config{TMin: 2, TMax: 4, Variant: v, N: 1, Fixed: fixed})
			if v == models.Static {
				cfgs = append(cfgs, models.Config{TMin: 2, TMax: 4, Variant: v, N: 2, Fixed: fixed})
			}
		}
	}
	return cfgs
}

// TestStreamedSpecMatchesTwoPass: the spec BuildSpec streams has, array for
// array, the labels, ids, offsets, edges and counts the two-pass compiler
// gives over the materialised quotient LTS.
func TestStreamedSpecMatchesTwoPass(t *testing.T) {
	for _, cfg := range specDifferentialConfigs() {
		got, err := BuildSpec(cfg, mc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.NoMonitor = true
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lts, err := quotientLTS(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twoPassSpec(cfg, m, lts)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameArrays(got, want); diff != "" {
			t.Errorf("%+v: %s", cfg, diff)
		}
	}
}

// TestBuildSpecBytesPerTransition pins what one BuildSpec allocates per
// transition of static N=2 (2,8) corrected, the widest spec of the rack-loss
// campaign (64,881 states, 264,472 transitions): ≈46 B streamed, where the
// materialised LTS and the two counting passes took ≈79 B.
func TestBuildSpecBytesPerTransition(t *testing.T) {
	const bound = 60
	cfg := models.Config{TMin: 2, TMax: 8, Variant: models.Static, N: 2, Fixed: true}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp, err := BuildSpec(cfg, mc.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perTrans := float64(after.TotalAlloc-before.TotalAlloc) / float64(sp.NumTransitions)
	t.Logf("%d states, %d transitions: %.1f B allocated per transition", sp.NumStates, sp.NumTransitions, perTrans)
	if perTrans > bound {
		t.Errorf("BuildSpec allocates %.1f B per transition, want at most %d", perTrans, bound)
	}
}

// TestBuildSpecStateLimit: an exploration that crosses MaxStates yields
// ErrStateLimit and no Spec, whatever the sink had been handed by then.
func TestBuildSpecStateLimit(t *testing.T) {
	cfg := models.Config{TMin: 2, TMax: 4, Variant: models.Static, N: 2, Fixed: true}
	sp, err := BuildSpec(cfg, mc.Options{MaxStates: 1000})
	if !errors.Is(err, mc.ErrStateLimit) || sp != nil {
		t.Fatalf("BuildSpec past the limit: %v, %v; want no spec and ErrStateLimit", sp, err)
	}
}
