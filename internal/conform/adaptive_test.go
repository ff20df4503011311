package conform

import (
	"testing"

	"repro/internal/alphabet"
	"repro/internal/faults"
	"repro/internal/models"
)

// garbage is a label of no kind — what a text that is not in the alphabet
// becomes on its way to a checker (parseFuzzLabel).
var garbage = alphabet.Label{Kind: alphabet.NumKinds + 1, A: 1}

func retune(tmin, tmax int32) alphabet.Label {
	return alphabet.Label{Kind: alphabet.Retune, A: tmin, B: tmax}
}

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
	events := []Event{{Time: 0, Label: retune(3, 5)}}
	res, err := c.CheckTraceAdaptive(events, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconfirmed == nil {
		t.Fatal("retune to a point outside the envelope was confirmed")
	}
	if res.Unconfirmed.Label != "p[0]: retune to (3,5)" {
		t.Fatalf("divergence label = %q", res.Unconfirmed.Label)
	}
}

func TestCheckTraceAdaptiveUnknownLabelUnconfirmed(t *testing.T) {
	c := adaptiveCheck(t)
	events := []Event{{Time: 0, Label: garbage}}
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
	events := []Event{{Time: 0, Label: alphabet.Restart.Of(1)}}
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
		{Time: 0, Label: retune(2, 4)},
		{Time: 0, Label: garbage},
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
		{Time: 0, Label: retune(2, 4)},
		{Time: 0, Label: garbage},
		{Time: 0, Label: retune(2, 8)},
		{Time: 0, Label: garbage},
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

// TestParseRetuneRoundTrip: a retune reaches the piecewise checker as its
// operating point, and a text that only resembles one never does — it
// parses to no label, so it cannot be confirmed as an envelope transition
// and reseed the frontier (the trailing-junk bug FuzzStreamChecker found
// in the first, Sscanf-based parser).
func TestParseRetuneRoundTrip(t *testing.T) {
	c := adaptiveCheck(t)
	for _, tc := range []struct {
		text    string
		retunes int
	}{
		{"p[0]: retune to (2,8)", 1},
		{"p[0]: retune to (2,4)", 1},
		// Renderable, so they parse — and then fail the envelope lookup.
		{"p[0]: retune to (-2,4)", 0}, {"p[0]: retune to (0,0)", 0},
		{"p[0]: retune to (-2147483648,2147483647)", 0},
		{"deliver beat to p[0] from p[1]", 0},
		{"p[0]: retune to (2,4)x", 0}, {"p[0]: retune to (2,4", 0}, {"p[0]: retune to (2,4))", 0},
		{"p[0]: retune to (2)", 0}, {"p[0]: retune to (2,4,8)", 0}, {"p[0]: retune to (,4)", 0}, {"p[0]: retune to (2,)", 0},
		{"p[0]: retune to (+2,4)", 0}, {"p[0]: retune to (02,4)", 0}, {"p[0]: retune to (2, 4)", 0}, {"p[0]: retune to (2,0x4)", 0},
		{"p[0]: retune to (2,2147483648)", 0}, {"p[0]: retune to (1_0,4)", 0},
	} {
		res, err := c.CheckTraceAdaptive([]Event{{Time: 0, Label: parseFuzzLabel(tc.text)}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Retunes != tc.retunes || (res.Unconfirmed == nil) != (tc.retunes == 1) {
			t.Errorf("%q: Retunes = %d, unconfirmed = %v; want %d retunes", tc.text, res.Retunes, res.Unconfirmed, tc.retunes)
		}
	}
}

// TestConfirmedByDesign: the by-design events are confirmed wherever they
// fall, and nothing else is.
func TestConfirmedByDesign(t *testing.T) {
	c := adaptiveCheck(t)
	confirmed := func(text string) int {
		l, ok := alphabet.Parse(text)
		if !ok {
			t.Fatalf("%q is not in the alphabet", text)
		}
		res, err := c.CheckTraceAdaptive([]Event{{Time: 0, Label: l}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Confirmed == 1) == (res.Unconfirmed != nil) {
			t.Fatalf("%q: Confirmed = %d with unconfirmed = %v", text, res.Confirmed, res.Unconfirmed)
		}
		return res.Confirmed
	}
	for _, text := range []string{
		"p[1]: decide leave", "p[1]: send leave beat", "deliver leave beat to p[0] from p[1]",
		"deliver leave ack to p[1]", "p[0]: send leave ack to p[1]",
		"p[1]: restart", "p[1]: rejoin",
		"deliver stray beat to p[1] from p[2]",
	} {
		if confirmed(text) != 1 {
			t.Errorf("%q was not confirmed by design", text)
		}
	}
	// None of these is enabled in the initial state, so each is a
	// divergence no rule explains.
	for _, text := range []string{
		"deliver beat to p[0] from p[1]", "p[1]: send beat",
		"timeout p[0]", "inactivate nv p[1]", "deliver join beat to p[0] from p[1]",
	} {
		if confirmed(text) != 0 {
			t.Errorf("%q was confirmed by design", text)
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
