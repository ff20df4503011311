package conform

import (
	"errors"
	"math"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/faults"
	"repro/internal/models"
)

// garbage is a label of no kind, as a corrupted event would carry.
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

// TestStreamCheckerRejectsUnfixedEnvelope: the piecewise engine checks
// the envelope it is given, since levels of an envelope whose tmin varies
// are not what the runtime deploys.
func TestStreamCheckerRejectsUnfixedEnvelope(t *testing.T) {
	c := adaptiveCheck(t)
	c.Envelope = &models.Envelope{TMinLo: 1, TMinHi: 2, TMaxLo: 2, TMaxHi: 4}
	if _, err := NewStreamChecker(StreamConfig{Check: c}); !errors.Is(err, models.ErrConfig) {
		t.Fatalf("NewStreamChecker = %v, want models.ErrConfig", err)
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

// TestCheckTraceAdaptiveAssumesLoss: with no loss count to go on,
// CheckTraceAdaptive never takes R2/R3's no-loss premise for granted, so
// p[0]'s inactivation with its participant alive is no R3 violation there,
// and is one for a stream finished as loss-free.
func TestCheckTraceAdaptiveAssumesLoss(t *testing.T) {
	c := adaptiveCheck(t)
	events := []Event{{Time: 1, Label: alphabet.Inactivate.Of(0)}}
	res, err := c.CheckTraceAdaptive(events, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdicts.LossFree || len(res.Verdicts.Violations) != 0 {
		t.Fatalf("verdicts = %+v, want no loss-free premise and no violation", res.Verdicts)
	}
	sc, err := NewStreamChecker(StreamConfig{Check: c, Horizon: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc.Feed(events[0])
	lossFree, err := sc.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	if r3 := lossFree.Verdicts.ByProp(models.R3); len(r3) != 1 {
		t.Fatalf("loss-free verdicts = %+v, want one R3 violation", lossFree.Verdicts)
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

// TestParseRetuneRoundTrip: a retune decoded from FuzzStreamChecker's
// fields is the label it spells and reaches the piecewise checker as its
// operating point — confirmed on an envelope level, a divergence off the
// levels or with a negative bound — and a label of any other kind with the
// same arguments is never confirmed as an envelope transition.
func TestParseRetuneRoundTrip(t *testing.T) {
	c := adaptiveCheck(t)
	for _, tc := range []struct {
		label   alphabet.Label
		retunes int
	}{
		{retune(2, 8), 1}, {retune(2, 4), 1},
		{retune(-2, 4), 0}, {retune(2, -4), 0}, {retune(0, 0), 0}, {retune(3, 5), 0}, {retune(2, 5), 0},
		{retune(math.MinInt32, math.MaxInt32), 0},
		{alphabet.Label{Kind: alphabet.DeliverBeatP0, A: 2, B: 8}, 0},
		{alphabet.Label{Kind: alphabet.NumKinds, A: 2, B: 8}, 0},
		{alphabet.Label{Kind: 255, A: 2, B: 8}, 0},
	} {
		events := parseFuzzTrace(fuzzEvent(0, tc.label.Kind, int64(tc.label.A), int64(tc.label.B)))
		if len(events) != 1 || events[0].Label != tc.label {
			t.Fatalf("%+v decodes as %+v", tc.label, events)
		}
		res, err := c.CheckTraceAdaptive(events, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Retunes != tc.retunes || (res.Unconfirmed == nil) != (tc.retunes == 1) {
			t.Errorf("%v: Retunes = %d, unconfirmed = %v; want %d retunes", tc.label, res.Retunes, res.Unconfirmed, tc.retunes)
		}
	}
}

// TestConfirmedByDesign: the by-design events are confirmed wherever they
// fall, and nothing else is.
func TestConfirmedByDesign(t *testing.T) {
	c := adaptiveCheck(t)
	confirmed := func(l alphabet.Label) int {
		res, err := c.CheckTraceAdaptive([]Event{{Time: 0, Label: l}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Confirmed == 1) == (res.Unconfirmed != nil) {
			t.Fatalf("%v: Confirmed = %d with unconfirmed = %v", l, res.Confirmed, res.Unconfirmed)
		}
		return res.Confirmed
	}
	for _, l := range []alphabet.Label{
		alphabet.DecideLeave.Of(1), alphabet.SendLeave.Of(1), alphabet.DeliverLeaveP0.Of(1),
		alphabet.DeliverLeaveAck.Of(1), alphabet.SendLeaveAck.Of(1),
		alphabet.Restart.Of(1), alphabet.Rejoin.Of(1),
		{Kind: alphabet.DeliverStray, A: 1, B: 2},
	} {
		if confirmed(l) != 1 {
			t.Errorf("%v was not confirmed by design", l)
		}
	}
	// None of these is enabled in the initial state, so each is a
	// divergence no rule explains.
	for _, l := range []alphabet.Label{
		alphabet.DeliverBeatP0.Of(1), alphabet.SendBeat.Of(1),
		alphabet.Timeout.Of(0), alphabet.Inactivate.Of(1), alphabet.DeliverJoinP0.Of(1),
	} {
		if confirmed(l) != 0 {
			t.Errorf("%v was confirmed by design", l)
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
