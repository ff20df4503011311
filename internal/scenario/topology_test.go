package scenario

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/models"
)

// campaignEnvelope is the degradation envelope the topology campaigns
// run: two operating points (tmax 4 and 8) over a fixed tmin. Kept to
// two levels so the top-level specification stays around half a million
// states — the piecewise checker reseeds its frontier to all of them on
// every saturated retune.
var campaignEnvelope = models.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8}

// campaignN is the cluster size each variant's campaign runs at. Static
// LTSs stay small enough for two participants; the expanding and dynamic
// state spaces grow much faster (join phases, rejoin interleavings), so
// their campaigns run the coordinator-plus-one shape.
func campaignN(variant models.Variant) int {
	if variant == models.Static {
		return 2
	}
	return 1
}

// campaignChecks shares one CampaignCheck (and so one per-level spec
// cache) per variant across all topology tests — the specs are by far
// the most expensive part of a campaign.
var (
	campaignChecksMu sync.Mutex
	campaignChecks   = map[models.Variant]*conform.CampaignCheck{}
)

func campaignCheck(variant models.Variant) *conform.CampaignCheck {
	campaignChecksMu.Lock()
	defer campaignChecksMu.Unlock()
	if c, ok := campaignChecks[variant]; ok {
		return c
	}
	tmin, tmax := campaignEnvelope.Point(0)
	c := &conform.CampaignCheck{
		Model:    models.Config{TMin: tmin, TMax: tmax, Variant: variant, N: campaignN(variant), Fixed: true},
		Envelope: &campaignEnvelope,
	}
	campaignChecks[variant] = c
	return c
}

// adaptiveCampaign assembles an adaptive conformance campaign over one
// topology scenario: the cluster follows Conform.Model (variant, N,
// Fixed) with the coordinator retuning inside campaignEnvelope, and
// every trial's trace is checked piecewise against the per-level specs.
// The estimator reacts within one bad round (Window 2, WidenAt 0.25):
// the level-0 point has a single halving of headroom, so a slower
// estimator would let acceleration confirm a suspect before the first
// widen.
func adaptiveCampaign(variant models.Variant, sc TopologyScenario, trials, workers int) CampaignConfig {
	return CampaignConfig{
		Cluster: detector.ClusterConfig{
			Adaptive: &core.AdaptiveOptions{
				Envelope: campaignEnvelope.Core(),
				Window:   2, WidenAt: 0.25, TightenAt: 0.1, HoldRounds: 4,
			},
			AllowRejoin: variant == models.Dynamic,
		},
		Schedule: sc.Schedule,
		Horizon:  1200,
		Trials:   trials,
		Seed:     101,
		Conform:  campaignCheck(variant),
		Workers:  workers,
	}
}

// divergences lists a campaign's unconfirmed-divergence incidents.
func divergences(res *CampaignResult) []*conform.Incident {
	var out []*conform.Incident
	for _, inc := range res.Incidents {
		if inc.Kind == conform.IncidentDivergence {
			out = append(out, inc)
		}
	}
	return out
}

// requireNoUnconfirmed runs the campaign and fails on any unconfirmed
// divergence, rendering the first one.
func requireNoUnconfirmed(t *testing.T, cfg CampaignConfig) *CampaignResult {
	t.Helper()
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if divs := divergences(res); len(divs) != 0 {
		var b strings.Builder
		if err := divs[0].Render(&b, "unconfirmed divergence"); err != nil {
			t.Fatalf("render: %v", err)
		}
		t.Fatalf("%d unconfirmed divergences; first:\n%s", len(divs), b.String())
	}
	return res
}

// TestCampaignRejectsUnfixedEnvelope: a model envelope whose tmin varies
// describes participants the runtime never deploys, so the campaign
// refuses it before any trial runs, even when the cluster runs the same
// envelope.
func TestCampaignRejectsUnfixedEnvelope(t *testing.T) {
	sc, err := RackLossScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	env := models.Envelope{TMinLo: 1, TMinHi: 2, TMaxLo: 2, TMaxHi: 4}
	cfg := adaptiveCampaign(models.Static, sc, 1, 1)
	cfg.Cluster.Adaptive.Envelope = env.Core()
	cfg.Conform = &conform.CampaignCheck{
		Model:    models.Config{TMin: 1, TMax: 2, Variant: models.Static, N: 1, Fixed: true},
		Envelope: &env,
	}
	if _, err := RunCampaign(cfg); !errors.Is(err, models.ErrConfig) {
		t.Fatalf("RunCampaign = %v, want models.ErrConfig", err)
	}
}

func TestTopologyCampaignRackLoss(t *testing.T) {
	sc, err := RackLossScenario(campaignN(models.Static))
	if err != nil {
		t.Fatal(err)
	}
	res := requireNoUnconfirmed(t, adaptiveCampaign(models.Static, sc, 70, 4))
	// The correlated burst must actually drive the adaptive path: rounds
	// widen under the rack's loss and tighten back after it clears, and
	// every one of those transitions was confirmed against the envelope.
	if res.Retunes == 0 {
		t.Fatal("rack-loss campaign produced no retunes — the adaptive path was never exercised")
	}
	if res.Faults.DroppedLoss == 0 {
		t.Fatal("rack-loss campaign dropped nothing — the schedule missed the links")
	}
	// Sustained bursty loss must also drive some trial all the way to the
	// envelope ceiling: saturation, the verified degradation endpoint.
	if res.Saturations == 0 {
		t.Fatal("rack-loss campaign never saturated — degraded mode was not exercised")
	}
}

func TestTopologyCampaignWANDelay(t *testing.T) {
	sc, err := WANDelayScenario(campaignN(models.Static))
	if err != nil {
		t.Fatal(err)
	}
	res := requireNoUnconfirmed(t, adaptiveCampaign(models.Static, sc, 70, 4))
	if res.Faults.Slowed == 0 {
		t.Fatal("wan-delay campaign slowed nothing — the schedule missed the links")
	}
}

func TestTopologyCampaignChurnStorm(t *testing.T) {
	sc, err := ChurnStormScenario(campaignN(models.Dynamic))
	if err != nil {
		t.Fatal(err)
	}
	res := requireNoUnconfirmed(t, adaptiveCampaign(models.Dynamic, sc, 70, 4))
	// The storm's leave/rejoin handshakes are outside the model's scope by
	// design; the piecewise checker must classify them, not fail on them.
	if res.ConfirmedDivergences == 0 {
		t.Fatal("churn campaign confirmed no divergences — the storm never fired")
	}
}

// TestTopologyCampaignWorkerDeterminism pins the acceptance requirement
// that a campaign's result is identical at any worker count.
func TestTopologyCampaignWorkerDeterminism(t *testing.T) {
	sc, err := RackLossScenario(campaignN(models.Static))
	if err != nil {
		t.Fatal(err)
	}
	seq := requireNoUnconfirmed(t, adaptiveCampaign(models.Static, sc, 20, 1))
	par := requireNoUnconfirmed(t, adaptiveCampaign(models.Static, sc, 20, 8))
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("worker count changed the campaign result:\n  1 worker: %+v\n  8 workers: %+v", seq, par)
	}
}

// TestChaosSmoke is the CI chaos gate: one seeded topology campaign per
// variant with conformance on, gated on zero unconfirmed divergences.
// Kept small so it stays fast under -race.
func TestChaosSmoke(t *testing.T) {
	for _, tc := range []struct {
		variant  models.Variant
		scenario func(int) (TopologyScenario, error)
	}{
		{models.Static, RackLossScenario},
		{models.Expanding, WANDelayScenario},
		{models.Dynamic, ChurnStormScenario},
	} {
		sc, err := tc.scenario(campaignN(tc.variant))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(tc.variant.String()+"/"+sc.Name, func(t *testing.T) {
			requireNoUnconfirmed(t, adaptiveCampaign(tc.variant, sc, 10, 2))
		})
	}
}
