package conform

import (
	"math"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/sim"
)

// runChecked executes one run with a stream checker of its model attached
// and returns the first divergence, if any.
func runChecked(t *testing.T, rc RunConfig) *Incident {
	t.Helper()
	res, err := RunStream(rc, StreamConfig{Check: &CampaignCheck{Model: rc.Model}})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	return res.Unconfirmed
}

// checkRun executes one run and requires conformance, dumping the
// divergence report on failure.
func checkRun(t *testing.T, rc RunConfig) {
	t.Helper()
	if d := runChecked(t, rc); d != nil {
		var b strings.Builder
		if err := d.Render(&b, "divergence"); err != nil {
			t.Fatalf("render: %v", err)
		}
		t.Fatalf("divergence:\n%s", b.String())
	}
}

func TestConformCleanBinary(t *testing.T) {
	for _, fixed := range []bool{false, true} {
		rc := RunConfig{
			Model:   models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: fixed},
			Seed:    1,
			Horizon: 24,
		}
		checkRun(t, rc)
	}
}

func TestConformCleanAllVariantsSmoke(t *testing.T) {
	for _, v := range []models.Variant{
		models.Binary, models.RevisedBinary, models.TwoPhase,
		models.Static, models.Expanding, models.Dynamic,
	} {
		n := 1
		if v == models.Static {
			n = 2
		}
		rc := RunConfig{
			Model:   models.Config{TMin: 1, TMax: 2, Variant: v, N: n, Fixed: true},
			Seed:    7,
			Horizon: 15,
		}
		checkRun(t, rc)
	}
}

func TestConformCrashScheduleBinary(t *testing.T) {
	rc := RunConfig{
		Model: models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true},
		Seed:  3,
		Schedule: &faults.Schedule{Events: []faults.Event{
			{At: 9, Kind: faults.KindCrash, Node: 0},
		}},
		Horizon: 30,
	}
	checkRun(t, rc)
}

// TestConformMutantExpiryCaught pins the mutation-testing acceptance
// criterion: a detector whose participant watchdog fires one tick late is
// caught by trace inclusion as a stuck-time divergence — the model forces
// "inactivate nv p[1]" at the bound, the mutant stays silent.
func TestConformMutantExpiryCaught(t *testing.T) {
	wrap, err := Mutation("expiry+1")
	if err != nil {
		t.Fatal(err)
	}
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	rc := RunConfig{
		Model: model,
		Seed:  3,
		Schedule: &faults.Schedule{Events: []faults.Event{
			{At: 9, Kind: faults.KindCrash, Node: 0},
		}},
		Horizon: 30,
		Wrap:    wrap,
	}
	d := runChecked(t, rc)
	if d == nil {
		t.Fatal("mutant expiry+1 not caught")
	}
	if d.Label != LabelTick {
		t.Fatalf("expected stuck-time divergence, got label %q", d.Label)
	}
	found := false
	for _, e := range d.Expected {
		if e == "inactivate nv p[1]" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected the model to force inactivate nv p[1]; allows %v", d.Expected)
	}
}

// TestConformMutantRoundEarlyCaught: a coordinator that times out one
// tick early produces a "timeout p[0]" the model's guard forbids.
func TestConformMutantRoundEarlyCaught(t *testing.T) {
	wrap, err := Mutation("round-1")
	if err != nil {
		t.Fatal(err)
	}
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	rc := RunConfig{Model: model, Seed: 3, Horizon: 20, Wrap: wrap}
	if runChecked(t, rc) == nil {
		t.Fatal("mutant round-1 not caught")
	}
}

func TestCheckScheduleRejectsUnsupported(t *testing.T) {
	s := &faults.Schedule{Events: []faults.Event{
		{At: 1, Kind: faults.KindDrift, Node: 1, Num: 2, Den: 1},
	}}
	if err := CheckSchedule(s); err == nil {
		t.Fatal("drift schedule accepted")
	}
	rc := RunConfig{
		Model:    models.Config{TMin: 1, TMax: 2, Variant: models.Binary, N: 1, Fixed: true},
		Schedule: s, Horizon: 10,
	}
	if _, err := Run(rc); err == nil {
		t.Fatal("Run accepted a drift schedule")
	}
}

// verdictsOf feeds a trace through a stream checker of cfg and returns
// its R1–R3 verdicts.
func verdictsOf(t *testing.T, cfg models.Config, events []Event, lost uint64, horizon core.Tick) TraceVerdicts {
	t.Helper()
	sc, err := NewStreamChecker(StreamConfig{Check: &CampaignCheck{Model: cfg}, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		sc.Feed(ev)
	}
	res, err := sc.Finish(lost)
	if err != nil {
		t.Fatal(err)
	}
	return res.Verdicts
}

func TestEvaluateTraceR1(t *testing.T) {
	cfg := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	bound := core.Tick(cfg.DetectionBound()) // 8
	// p[1] delivers once at t=2, then goes silent; p[0] stays active
	// beyond the bound.
	events := []Event{
		{Time: 2, Label: alphabet.DeliverBeatP0.Of(1)},
	}
	tv := verdictsOf(t, cfg, events, 0, 2+bound+4)
	if len(tv.ByProp(models.R1)) != 1 {
		t.Fatalf("want one R1 violation, got %+v", tv.Violations)
	}
	if got := tv.ByProp(models.R1)[0].Time; got != 2+bound+1 {
		t.Fatalf("R1 violation at t=%d, want %d", got, 2+bound+1)
	}
	// Same trace, but p[0] inactivates within the bound: clean.
	events2 := append(events, Event{Time: 2 + bound, Label: alphabet.Inactivate.Of(0)})
	tv2 := verdictsOf(t, cfg, events2, 0, 2+bound+4)
	if len(tv2.ByProp(models.R1)) != 0 {
		t.Fatalf("unexpected R1 violation: %+v", tv2.Violations)
	}
	// And an R3 violation: p[0] nv-inactivated while p[1] fine... but
	// p[1] was silent, so only when p[1] is still OK. Here p[1] never
	// crashed, so the R3 premise holds on a loss-free run.
	if len(tv2.ByProp(models.R3)) != 1 {
		t.Fatalf("want one R3 violation, got %+v", tv2.Violations)
	}
	// Lossy run: R3 vacuous.
	tv3 := verdictsOf(t, cfg, events2, 1, 2+bound+4)
	if len(tv3.ByProp(models.R3)) != 0 {
		t.Fatalf("R3 must be vacuous under loss: %+v", tv3.Violations)
	}
	// A beat so late that its deadline would overflow: the silence before
	// it violates R1, and the interval it opens ends past the horizon.
	late := []Event{{Time: math.MaxInt64 - 1, Label: alphabet.DeliverBeatP0.Of(1)}}
	tv4 := verdictsOf(t, cfg, late, 0, 2+bound+4)
	if r1 := tv4.ByProp(models.R1); len(r1) != 1 || r1[0].Time != bound+1 {
		t.Fatalf("want one R1 violation at t=%d, got %+v", bound+1, tv4.Violations)
	}
}

func TestRecorderResetAndEvents(t *testing.T) {
	rc := RunConfig{
		Model:   models.Config{TMin: 1, TMax: 2, Variant: models.Binary, N: 1, Fixed: true},
		Seed:    1,
		Horizon: 8,
	}
	out, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Events) == 0 {
		t.Fatal("no events recorded")
	}
	var last core.Tick
	for _, ev := range out.Events {
		if ev.Time < last {
			t.Fatalf("events out of order: %+v", out.Events)
		}
		last = ev.Time
	}
	if out.Lost != 0 {
		t.Fatalf("unexpected losses: %d", out.Lost)
	}
	_ = sim.Time(0) // keep the import honest if assertions above change
}
