package detector

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// TestClusterAdaptiveSurvivesLossEpisode is the wire-level degradation
// check: under a loss episode heavy enough to false-confirm a fixed
// level-0 cluster, the adaptive cluster widens (EventRetuned), survives,
// and tightens back to the floor once the episode ends.
func TestClusterAdaptiveSurvivesLossEpisode(t *testing.T) {
	env := core.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 8, TMaxHi: 64}
	// A uniform 40% loss episode over [100, 500): Gilbert–Elliott pinned
	// in its lossy state. Heavy enough that the level-0 constants
	// false-confirm (round-trip miss ≈ 0.64, tolerance 2 misses), short
	// enough that widened participants ride it out on occasional beats.
	episode := &faults.GilbertElliott{PGoodBad: 1, PBadGood: 0, LossGood: 0.4, LossBad: 0.4}
	sched := &faults.Schedule{Seed: 5, Events: []faults.Event{
		{At: 100, Kind: faults.KindLoss, AllLinks: true, GE: episode},
		{At: 500, Kind: faults.KindLoss, AllLinks: true},
	}}
	cfg := ClusterConfig{
		Protocol: ProtocolStatic,
		N:        2,
		Seed:     31,
		Adaptive: &core.AdaptiveOptions{Envelope: env, Window: 4},
		Faults:   sched,
	}
	c := newCluster(t, cfg)
	c.Sim.RunUntil(4000)

	if c.Coordinator.Status() != core.StatusActive {
		t.Fatalf("adaptive coordinator inactivated under survivable loss: %v", c.Events)
	}
	var widened, tightened bool
	var last Event
	for _, e := range c.Events {
		switch e.Kind {
		case EventRetuned:
			last = e
			if e.TMax > env.TMaxLo {
				widened = true
			} else if widened {
				tightened = true
			}
		case EventInactivated:
			t.Fatalf("node %d inactivated: %v", e.Node, c.Events)
		}
	}
	if !widened {
		t.Fatalf("no widening retune under 70%% loss: %v", c.Events)
	}
	if !tightened {
		t.Fatalf("no tighten after the episode ended: %v", c.Events)
	}
	if tmin, tmax := env.Point(0); last.TMin != tmin || last.TMax != tmax {
		t.Fatalf("last retune to (%d, %d), want level 0's (%d, %d) after recovery", last.TMin, last.TMax, tmin, tmax)
	}

	// The same episode against the fixed level-0 constants tears the
	// cluster down — the contrast that motivates the adaptive variant.
	fixed := ClusterConfig{
		Protocol: ProtocolStatic,
		Core:     core.Config{TMin: 2, TMax: 8},
		N:        2,
		Seed:     31,
		Faults:   sched,
	}
	fc := newCluster(t, fixed)
	fc.Sim.RunUntil(4000)
	if fc.Coordinator.Status() == core.StatusActive {
		t.Fatal("fixed cluster survived; loss episode too mild to prove degradation")
	}
}

// TestClusterAdaptiveReplayByteIdentical extends the replay guarantee to
// the adaptive variant: same seeds, same schedule, byte-identical events
// including every retune.
func TestClusterAdaptiveReplayByteIdentical(t *testing.T) {
	run := func() []Event {
		env := core.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 8, TMaxHi: 32}
		cfg := ClusterConfig{
			Protocol: ProtocolStatic,
			N:        2,
			Seed:     13,
			Adaptive: &core.AdaptiveOptions{Envelope: env, Window: 4},
			Faults: &faults.Schedule{Seed: 77, Events: []faults.Event{
				{At: 50, Kind: faults.KindLoss, AllLinks: true,
					GE: &faults.GilbertElliott{PGoodBad: 0.3, PBadGood: 0.2, LossBad: 0.95}},
			}},
		}
		c := newCluster(t, cfg)
		c.Sim.RunUntil(3000)
		return c.Events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay diverged: %d vs %d events", len(a), len(b))
	}
	var retunes int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Kind == EventRetuned {
			retunes++
		}
	}
	if retunes == 0 {
		t.Fatal("no retunes under bursty loss; test exercises nothing")
	}
}

// TestClusterAdaptiveValidation: a broken envelope is rejected at
// assembly, not at run time.
func TestClusterAdaptiveValidation(t *testing.T) {
	_, err := NewCluster(ClusterConfig{
		Protocol: ProtocolStatic,
		N:        1,
		Adaptive: &core.AdaptiveOptions{Envelope: core.Envelope{TMinLo: 4, TMinHi: 2, TMaxLo: 8, TMaxHi: 16}},
	})
	if err == nil {
		t.Fatal("invalid envelope accepted")
	}
}
