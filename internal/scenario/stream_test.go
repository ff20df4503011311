package scenario

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/conform"
	"repro/internal/detector"
	"repro/internal/faults"
	"repro/internal/models"
)

// TestStreamCampaignWorkerDeterminism: online checking preserves the
// campaign determinism guarantee at any worker count, with a supervisor
// bound to every trial's checker as well.
func TestStreamCampaignWorkerDeterminism(t *testing.T) {
	sc, err := RackLossScenario(campaignN(models.Static))
	if err != nil {
		t.Fatal(err)
	}
	healed := func(workers int) CampaignConfig {
		cfg := adaptiveCampaign(models.Static, sc, 20, workers)
		cfg.Heal = &detector.SupervisorConfig{}
		return cfg
	}
	seq := requireNoUnconfirmed(t, healed(1))
	par := requireNoUnconfirmed(t, healed(8))
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("worker count changed the streaming campaign result:\n  1 worker: %+v\n  8 workers: %+v", seq, par)
	}
}

// TestStreamCampaignComposesWithHeal: adaptive conformance is the one
// mode that runs under a supervisor — restarts surface as by-design
// labels the piecewise checker confirms, not as failures.
func TestStreamCampaignComposesWithHeal(t *testing.T) {
	sc, err := RackLossScenario(campaignN(models.Static))
	if err != nil {
		t.Fatal(err)
	}
	cfg := adaptiveCampaign(models.Static, sc, 10, 2)
	cfg.Heal = &detector.SupervisorConfig{}
	res := requireNoUnconfirmed(t, cfg)
	if res.Restarts.N() != 10 {
		t.Fatalf("restart samples = %d, want one per trial", res.Restarts.N())
	}
}

// TestStreamCampaignValidation pins the configuration errors.
func TestStreamCampaignValidation(t *testing.T) {
	sc, err := RackLossScenario(2)
	if err != nil {
		t.Fatal(err)
	}
	base := CampaignConfig{Schedule: sc.Schedule, Horizon: 100, Trials: 1}

	// Heal cannot combine with a check that has no envelope (restarts
	// would be unconfirmed divergences, not by-design ones).
	plainHeal := base
	plainHeal.Heal = &detector.SupervisorConfig{}
	plainHeal.Conform = &conform.CampaignCheck{
		Model: models.Config{TMin: 2, TMax: 4, Variant: models.Static, N: 2, Fixed: true},
	}
	if _, err := RunCampaign(plainHeal); !errors.Is(err, ErrScenario) {
		t.Fatalf("plain Conform+Heal: err = %v, want ErrScenario", err)
	}
}

// TestStreamMutantIncidentReachesSupervisor wires the full grading path:
// a defective detector (participant watchdog one tick late) under a
// supervisor with the stream checker attached must produce a structured
// divergence incident, count it in the supervisor's metrics, and emit it
// as an EventIncident carrying the one-line summary.
func TestStreamMutantIncidentReachesSupervisor(t *testing.T) {
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	check := &conform.CampaignCheck{Model: model}
	sc, err := conform.NewStreamChecker(conform.StreamConfig{Check: check, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	wrap, err := conform.Mutation("expiry+1")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := conform.ClusterFor(model)
	if err != nil {
		t.Fatal(err)
	}
	cc.Seed = 3
	cc.Faults = &faults.Schedule{Events: []faults.Event{
		{At: 9, Kind: faults.KindCrash, Node: 0},
	}}
	cc.WrapMachine = wrap
	cc.Observe = sc
	cc.Heal = &detector.SupervisorConfig{}
	c, err := detector.NewCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	sc.BindSupervisor(c.Supervisor)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.Sim.RunUntil(30)
	c.Stop()
	res, err := sc.Finish(0)
	if err != nil {
		t.Fatal(err)
	}

	if res.Unconfirmed == nil {
		t.Fatal("mutant expiry+1 produced no divergence incident")
	}
	if got := c.Supervisor.Metrics().Incidents; got < 1 {
		t.Fatalf("supervisor Incidents = %d, want >= 1", got)
	}
	found := false
	for _, e := range c.Events {
		if e.Kind == detector.EventIncident && e.Detail == res.Unconfirmed.String() {
			found = true
		}
	}
	if !found {
		t.Fatalf("no EventIncident with detail %q in cluster events", res.Unconfirmed.String())
	}
}

// TestStreamFleetScale is the fleet stress: thousands of independent
// 2-endpoint clusters under the rack-loss chaos schedule, each checked
// online. 10k monitored endpoints at full size (5000 trials x 2
// participants); shortened under -short.
func TestStreamFleetScale(t *testing.T) {
	trials := 5000
	if testing.Short() {
		trials = 250
	}
	sc, err := RackLossScenario(campaignN(models.Static))
	if err != nil {
		t.Fatal(err)
	}
	cfg := adaptiveCampaign(models.Static, sc, trials, 8)
	res := requireNoUnconfirmed(t, cfg)
	if got := res.Survived.Trials; got != trials {
		t.Fatalf("observed %d trials, want %d", got, trials)
	}
	if res.Retunes == 0 || res.Saturations == 0 {
		t.Fatalf("fleet campaign never exercised the envelope: retunes=%d saturations=%d",
			res.Retunes, res.Saturations)
	}
}

// BenchmarkCampaignStream times a 10-trial rack-loss chaos campaign with
// a StreamChecker riding each trial's cluster.
func BenchmarkCampaignStream(b *testing.B) {
	sc, err := RackLossScenario(campaignN(models.Static))
	if err != nil {
		b.Fatal(err)
	}
	cfg := adaptiveCampaign(models.Static, sc, 10, 1)
	// Warm the shared per-level spec cache so the one-off LTS builds are
	// not timed.
	if _, err := RunCampaign(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCampaign(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
