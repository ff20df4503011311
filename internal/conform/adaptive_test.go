package conform

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/models"
)

// adaptiveCheck builds a CampaignCheck for the smallest adaptive shape:
// a static coordinator-plus-one cluster over a two-level envelope.
func adaptiveCheck(t *testing.T) *CampaignCheck {
	t.Helper()
	env := models.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8}
	return &CampaignCheck{
		Model:    models.Config{TMin: 2, TMax: 4, Variant: models.Static, N: 1, Fixed: true},
		Envelope: &env,
	}
}

func TestCheckTraceAdaptiveNeedsEnvelope(t *testing.T) {
	c := adaptiveCheck(t)
	c.Envelope = nil
	if _, err := c.CheckTraceAdaptive(nil, 0); err == nil {
		t.Fatal("CheckTraceAdaptive without an envelope succeeded")
	}
}

func TestCheckTraceAdaptiveRetuneOutsideEnvelope(t *testing.T) {
	c := adaptiveCheck(t)
	events := []Event{{Time: 0, Label: labelRetune(3, 5)}}
	res, err := c.CheckTraceAdaptive(events, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconfirmed == nil {
		t.Fatal("retune to a point outside the envelope was confirmed")
	}
	if res.Unconfirmed.Label != labelRetune(3, 5) {
		t.Fatalf("divergence label = %q", res.Unconfirmed.Label)
	}
}

func TestCheckTraceAdaptiveUnknownLabelUnconfirmed(t *testing.T) {
	c := adaptiveCheck(t)
	events := []Event{{Time: 0, Label: "p[1]: frobnicate"}}
	res, err := c.CheckTraceAdaptive(events, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconfirmed == nil {
		t.Fatal("an unexplained label outside degraded mode was not reported")
	}
}

func TestCheckTraceAdaptiveByDesignConfirmed(t *testing.T) {
	c := adaptiveCheck(t)
	events := []Event{{Time: 0, Label: "p[1]: restart"}}
	res, err := c.CheckTraceAdaptive(events, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconfirmed != nil {
		t.Fatalf("by-design restart reported unconfirmed: %s", res.Unconfirmed.Label)
	}
	if res.Confirmed != 1 {
		t.Fatalf("Confirmed = %d, want 1", res.Confirmed)
	}
}

// TestCheckTraceAdaptiveSaturation drives the checker into degraded mode
// with a retune that re-holds the level-0 point: unexplained events are
// then tolerated (and counted), and time passes unchecked.
func TestCheckTraceAdaptiveSaturation(t *testing.T) {
	c := adaptiveCheck(t)
	events := []Event{
		{Time: 0, Label: labelRetune(2, 4)},
		{Time: 0, Label: "p[1]: frobnicate"},
	}
	res, err := c.CheckTraceAdaptive(events, 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconfirmed != nil {
		t.Fatalf("degraded mode reported unconfirmed: %s", res.Unconfirmed.Label)
	}
	if res.Retunes != 1 || res.Saturations != 1 || res.Degraded != 1 {
		t.Fatalf("Retunes/Saturations/Degraded = %d/%d/%d, want 1/1/1",
			res.Retunes, res.Saturations, res.Degraded)
	}
}

// TestCheckTraceAdaptiveLevelChangeResumes pins that a level-changing
// retune ends degraded mode: checking resumes at the new level, so the
// same unexplained label that degraded mode tolerated is a divergence
// again.
func TestCheckTraceAdaptiveLevelChangeResumes(t *testing.T) {
	c := adaptiveCheck(t)
	events := []Event{
		{Time: 0, Label: labelRetune(2, 4)},
		{Time: 0, Label: "p[1]: frobnicate"},
		{Time: 0, Label: labelRetune(2, 8)},
		{Time: 0, Label: "p[1]: frobnicate"},
	}
	res, err := c.CheckTraceAdaptive(events, 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconfirmed == nil {
		t.Fatal("checking did not resume after the level change")
	}
	if res.Retunes != 2 || res.FinalLevel != 1 || res.Degraded != 1 {
		t.Fatalf("Retunes/FinalLevel/Degraded = %d/%d/%d, want 2/1/1",
			res.Retunes, res.FinalLevel, res.Degraded)
	}
}

func TestParseRetuneRoundTrip(t *testing.T) {
	tmin, tmax, ok := parseRetune(labelRetune(2, 8))
	if !ok || tmin != 2 || tmax != 8 {
		t.Fatalf("parseRetune(labelRetune(2,8)) = %d, %d, %v", tmin, tmax, ok)
	}
	// Negative points are renderable, so they parse (and then fail the
	// envelope lookup); the extremes of int32 round-trip.
	for _, pt := range [][2]int32{{-2, 4}, {0, 0}, {math.MinInt32, math.MaxInt32}} {
		tmin, tmax, ok := parseRetune(labelRetune(core.Tick(pt[0]), core.Tick(pt[1])))
		if !ok || tmin != pt[0] || tmax != pt[1] {
			t.Fatalf("parseRetune(labelRetune(%d,%d)) = %d, %d, %v", pt[0], pt[1], tmin, tmax, ok)
		}
	}
	for _, label := range []string{
		"deliver beat to p[0] from p[1]",
		"p[0]: retune to (2,4)x", "p[0]: retune to (2,4", "p[0]: retune to (2,4))",
		"p[0]: retune to (2)", "p[0]: retune to (2,4,8)", "p[0]: retune to (,4)", "p[0]: retune to (2,)",
		"p[0]: retune to (+2,4)", "p[0]: retune to (02,4)", "p[0]: retune to (2, 4)", "p[0]: retune to (2,0x4)",
		"p[0]: retune to (2,2147483648)", "p[0]: retune to (1_0,4)",
	} {
		if tmin, tmax, ok := parseRetune(label); ok {
			t.Errorf("parseRetune(%q) accepted it as (%d,%d)", label, tmin, tmax)
		}
	}
}

func TestConfirmedByDesign(t *testing.T) {
	for _, label := range []string{
		"p[1]: decide leave", "p[1]: send leave beat",
		"deliver leave ack to p[1]", "p[0]: send leave ack to p[1]",
		"p[1]: restart", "p[1]: rejoin",
		"deliver stray beat to p[1] from p[2]",
	} {
		if !confirmedByDesign(label) {
			t.Errorf("confirmedByDesign(%q) = false", label)
		}
	}
	for _, label := range []string{
		"deliver beat to p[0] from p[1]", "p[1]: send beat",
		"timeout p[0]", "tick", "crash p[1]",
	} {
		if confirmedByDesign(label) {
			t.Errorf("confirmedByDesign(%q) = true", label)
		}
	}
}

// TestCheckScheduleAdmitsTopologyKinds pins that latency, leave and
// rejoin events pass the schedule gate: delays ride the model's
// nondeterministic transit, leaves and rejoins carry honest non-model
// labels for the piecewise checker to classify.
func TestCheckScheduleAdmitsTopologyKinds(t *testing.T) {
	sched, err := faults.ParseSchedule(
		"topo racks=0:0,1:1 zones=1:1\n" +
			"zonedelay t=10 from=0 to=1 mindelay=1 maxdelay=1\n" +
			"churn t=50 stagger=10 down=40 nodes=1\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSchedule(sched); err != nil {
		t.Fatal(err)
	}
}
