package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faults"
	"repro/internal/models"
)

// campaignPin is what TestCampaignRecordedDigests records of one campaign
// trial.
type campaignPin struct {
	retunes, saturations, schedErrs int
	faults                          faults.Stats
	events, restarts                int
	incidents                       []string
}

// goString renders p as the Go literal the recorded table holds, so a
// mismatch prints the row to compare against.
func (p campaignPin) goString() string {
	s := p.faults
	inc := "nil"
	if len(p.incidents) > 0 {
		q := make([]string, len(p.incidents))
		for i, x := range p.incidents {
			q[i] = fmt.Sprintf("%q", x)
		}
		inc = "[]string{" + strings.Join(q, ", ") + "}"
	}
	var fs []string
	for _, f := range []struct {
		name string
		v    uint64
	}{
		{"Intercepted", s.Intercepted}, {"DroppedMuted", s.DroppedMuted},
		{"DroppedPartition", s.DroppedPartition}, {"DroppedLoss", s.DroppedLoss},
		{"Duplicated", s.Duplicated}, {"Delayed", s.Delayed},
		{"Slowed", s.Slowed}, {"SendErrors", s.SendErrors},
	} {
		if f.v != 0 {
			fs = append(fs, fmt.Sprintf("%s: %d", f.name, f.v))
		}
	}
	return fmt.Sprintf("{%d, %d, %d, faults.Stats{%s}, %d, %d, %s}",
		p.retunes, p.saturations, p.schedErrs, strings.Join(fs, ", "),
		p.events, p.restarts, inc)
}

// mustSchedule parses a fault schedule or fails the test.
func mustSchedule(t *testing.T, text string) *faults.Schedule {
	t.Helper()
	s, err := faults.ParseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCampaignRecordedDigests pins, trial by trial, what fault campaigns
// produce: retunes, saturations, schedule errors, the fault layer's
// counters, the conformance incidents, the liveness-event count and the
// supervisor's restarts. The values were recorded before node steps shared
// one clock reading and before the fault stream was seeded lazily, so they
// hold every later change to the step, the drifting clock and the fault
// layer to the same trials. The schedules cover drift (3/2, 2/3, and 5/5
// with a skew jump), Gilbert–Elliott loss first drawn mid-run, duplication
// with reordering and a delay range, a schedule that never draws, a
// schedule event that fails, supervisor restarts, and a defective machine
// whose divergences are reported as incidents.
func TestCampaignRecordedDigests(t *testing.T) {
	static := detector.ClusterConfig{
		Protocol: detector.ProtocolStatic,
		Core:     core.Config{TMin: 2, TMax: 16},
		N:        2,
	}
	for _, tc := range []struct {
		name string
		cfg  func(*testing.T) CampaignConfig
		want []campaignPin
	}{
		{"drift 3/2, 2/3, 5/5+skew", func(t *testing.T) CampaignConfig {
			return CampaignConfig{
				Cluster: static,
				Schedule: mustSchedule(t, "drift t=0 node=1 rate=3/2; drift t=40 node=2 rate=2/3 skew=3;"+
					"drift t=90 node=0 rate=5/5 skew=2; loss t=0 all pgb=0.05 pbg=0.5 lb=0.9; crash t=300 node=2"),
				Horizon: 600,
			}
		}, []campaignPin{
			{0, 0, 0, faults.Stats{Intercepted: 101, DroppedLoss: 8}, 4, 0, nil},
			{0, 0, 0, faults.Stats{Intercepted: 28, DroppedLoss: 4}, 4, 0, nil},
			{0, 0, 0, faults.Stats{Intercepted: 97, DroppedLoss: 7}, 4, 0, nil},
		}},
		{"gilbert-elliott from t=200", func(t *testing.T) CampaignConfig {
			sc, err := RackLossScenario(campaignN(models.Static))
			if err != nil {
				t.Fatal(err)
			}
			return adaptiveCampaign(models.Static, sc, 1, 1)
		}, []campaignPin{
			{125, 124, 0, faults.Stats{Intercepted: 576, DroppedLoss: 58}, 126, 0, []string{"R1 violated at t=219 by p[2] (event 413)"}},
			{124, 123, 0, faults.Stats{Intercepted: 580, DroppedLoss: 59}, 125, 0, []string{"R1 violated at t=227 by p[2] (event 427)"}},
			{124, 123, 0, faults.Stats{Intercepted: 575, DroppedLoss: 59}, 125, 0, []string{"R1 violated at t=227 by p[2] (event 419)"}},
		}},
		{"dup, reorder, delay range", func(t *testing.T) CampaignConfig {
			return CampaignConfig{
				Cluster: static,
				Schedule: mustSchedule(t, "dup t=0 prob=0.1; reorder t=0 prob=0.2 maxdelay=3;"+
					"delay t=100 from=0 to=1 mindelay=1 maxdelay=3; delay t=100 all mindelay=0 maxdelay=1;"+
					"crash t=500 node=9"),
				Horizon: 600,
			}
		}, []campaignPin{
			{0, 0, 1, faults.Stats{Intercepted: 155, Duplicated: 18, Delayed: 30, Slowed: 93}, 0, 0, nil},
			{0, 0, 1, faults.Stats{Intercepted: 153, Duplicated: 12, Delayed: 40, Slowed: 88}, 0, 0, nil},
			{0, 0, 1, faults.Stats{Intercepted: 153, Duplicated: 10, Delayed: 42, Slowed: 91}, 0, 0, nil},
		}},
		{"churn storm, never draws", func(t *testing.T) CampaignConfig {
			sc, err := ChurnStormScenario(campaignN(models.Dynamic))
			if err != nil {
				t.Fatal(err)
			}
			return adaptiveCampaign(models.Dynamic, sc, 1, 1)
		}, []campaignPin{
			{0, 0, 0, faults.Stats{Intercepted: 567}, 3, 0, nil},
			{0, 0, 0, faults.Stats{Intercepted: 567}, 3, 0, nil},
			{0, 0, 0, faults.Stats{Intercepted: 567}, 3, 0, nil},
		}},
		{"healed crash under loss and drift", func(t *testing.T) CampaignConfig {
			return CampaignConfig{
				Cluster: detector.ClusterConfig{
					Protocol:    detector.ProtocolDynamic,
					Core:        core.Config{TMin: 2, TMax: 16},
					N:           2,
					AllowRejoin: true,
				},
				Schedule: mustSchedule(t, "loss t=0 all pgb=0.02 pbg=0.4 lb=0.8; drift t=0 node=1 rate=3/2;"+
					"crash t=200 node=1; restart t=800 node=1"),
				Heal:    &detector.SupervisorConfig{CheckEvery: 8, Backoff: detector.Backoff{Base: 2, Max: 32}},
				Horizon: 1500,
			}
		}, []campaignPin{
			{0, 0, 0, faults.Stats{Intercepted: 373, DroppedLoss: 26}, 21, 5, nil},
			{0, 0, 0, faults.Stats{Intercepted: 332, DroppedLoss: 5}, 14, 3, nil},
			{0, 0, 0, faults.Stats{Intercepted: 342, DroppedLoss: 10}, 11, 2, nil},
		}},
		{"defective machine incidents", func(t *testing.T) CampaignConfig {
			wrap, err := conform.Mutation("expiry+1")
			if err != nil {
				t.Fatal(err)
			}
			return CampaignConfig{
				Cluster:  detector.ClusterConfig{WrapMachine: wrap},
				Schedule: mustSchedule(t, "loss t=0 all pgb=0.1 pbg=0.5 lb=0.5; crash t=9 node=0"),
				Horizon:  30,
				Conform: &conform.CampaignCheck{
					Model: models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true},
				},
			}
		}, []campaignPin{
			{0, 0, 0, faults.Stats{Intercepted: 4}, 2, 0, []string{"divergence at t=16: model forces one of [crash p[1], inactivate nv p[1]], runtime produced nothing"}},
			{0, 0, 0, faults.Stats{Intercepted: 4}, 2, 0, []string{"divergence at t=16: model forces one of [crash p[1], inactivate nv p[1]], runtime produced nothing"}},
			{0, 0, 0, faults.Stats{Intercepted: 4}, 2, 0, []string{"divergence at t=16: model forces one of [crash p[1], inactivate nv p[1]], runtime produced nothing"}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rows []string
			for trial := 0; trial < 3; trial++ {
				cfg := tc.cfg(t)
				cfg.Trials, cfg.Workers = 1, 1
				cfg.Seed = 101 + int64(trial)
				res, err := RunCampaign(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := campaignPin{
					retunes:     res.Retunes,
					saturations: res.Saturations,
					schedErrs:   res.ScheduleErrors,
					faults:      res.Faults,
					events:      int(res.Events.Sum()),
					restarts:    int(res.Restarts.Sum()),
				}
				for _, inc := range res.Incidents {
					got.incidents = append(got.incidents, inc.String())
				}
				rows = append(rows, got.goString())
				if trial < len(tc.want) && !reflect.DeepEqual(got, tc.want[trial]) {
					t.Errorf("trial %d (seed %d):\n got %s\nwant %s", trial, cfg.Seed, got.goString(), tc.want[trial].goString())
				}
			}
			if len(tc.want) != len(rows) {
				t.Errorf("recorded %d trials, ran %d:\n%s", len(tc.want), len(rows), strings.Join(rows, ",\n"))
			}
		})
	}
}
