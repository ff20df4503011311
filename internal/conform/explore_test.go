package conform

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faults"
	"repro/internal/mc"
	"repro/internal/models"
)

// TestExploreSmallCampaign runs a miniature walk campaign end to end and
// checks the books balance: every walk is either clean or a failure, and
// the campaign is deterministic in its seed.
func TestExploreSmallCampaign(t *testing.T) {
	ec := ExploreConfig{Variant: models.Binary, Walks: 6, Seed: 2, Shrink: true}
	res, err := ec.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Walks != 6 || res.Clean+len(res.Failures) != 6 {
		t.Fatalf("books don't balance: %+v", res)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("healthy detector failed a walk: %+v", res.Failures[0])
	}
	if res.Events == 0 {
		t.Fatal("no events recorded across the campaign")
	}
	again, err := ec.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if again.Clean != res.Clean || again.Events != res.Events ||
		again.ConsistentViolations != res.ConsistentViolations {
		t.Fatalf("campaign not deterministic: %+v vs %+v", res, again)
	}
}

// TestExploreWorkersDeterminism pins the campaign contract: any Workers
// count produces the same campaign result as a sequential run.
func TestExploreWorkersDeterminism(t *testing.T) {
	base := ExploreConfig{Variant: models.Binary, Walks: 8, Seed: 5, Shrink: true, Workers: 1}
	want, err := base.Explore()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		ec := base
		ec.Workers = workers
		got, err := ec.Explore()
		if err != nil {
			t.Fatalf("Explore(workers=%d): %v", workers, err)
		}
		if got.Walks != want.Walks || got.Clean != want.Clean ||
			got.Events != want.Events ||
			got.ConsistentViolations != want.ConsistentViolations ||
			len(got.Failures) != len(want.Failures) {
			t.Fatalf("workers=%d diverged: %+v vs %+v", workers, got, want)
		}
	}
}

// TestShrinkRunMinimisesMutant shrinks the expiry+1 repro: the padded
// link-failure event is irrelevant and must be dropped, the crash is
// load-bearing and must survive, and the horizon is trimmed to just past
// the divergence.
func TestShrinkRunMinimisesMutant(t *testing.T) {
	wrap, err := Mutation("expiry+1")
	if err != nil {
		t.Fatal(err)
	}
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	rc := RunConfig{
		Model: model,
		Seed:  3,
		Schedule: &faults.Schedule{Events: []faults.Event{
			{At: 25, Kind: faults.KindLinkDown, From: 1, To: 0},
			{At: 9, Kind: faults.KindCrash, Node: 0},
			{At: 27, Kind: faults.KindLinkUp, From: 1, To: 0},
		}},
		Horizon: 40,
		Wrap:    wrap,
	}
	sp, err := BuildSpec(model, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shrunk, div, err := ShrinkRun(rc, sp)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("shrunk run no longer diverges")
	}
	if n := len(shrunk.Schedule.Events); n != 1 || shrunk.Schedule.Events[0].Kind != faults.KindCrash {
		t.Fatalf("shrink kept %d events: %+v", n, shrunk.Schedule.Events)
	}
	if shrunk.Horizon != div.Time+1 {
		t.Fatalf("horizon %d not trimmed to %d", shrunk.Horizon, div.Time+1)
	}

	// The report surface: Error() names the stuck time, Render draws the
	// MSC prefix plus the model's allowed set.
	if msg := div.Error(); !strings.Contains(msg, "stuck") && !strings.Contains(msg, "diverge") {
		t.Fatalf("unhelpful divergence error: %q", msg)
	}
	var b strings.Builder
	if err := div.Render(&b, "shrunk divergence"); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"shrunk divergence", "model allows", "inactivate nv p[1]"} {
		if !strings.Contains(b.String(), frag) {
			t.Fatalf("render missing %q:\n%s", frag, b.String())
		}
	}

	// A healthy run refuses to shrink.
	if _, _, err := ShrinkRun(RunConfig{Model: model, Seed: 3, Horizon: 20}, sp); err == nil {
		t.Fatal("ShrinkRun accepted a conforming run")
	}
}

func TestDiffVerdicts(t *testing.T) {
	cfg := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	tv := TraceVerdicts{LossFree: true, Violations: []ReqViolation{
		{Prop: models.R1, Proc: 1, Time: 11},
	}}
	calls := 0
	fake := func(satisfied bool) VerifyFunc {
		return func(models.Config, models.Property) (models.Verdict, error) {
			calls++
			return models.Verdict{Satisfied: satisfied}, nil
		}
	}
	diffs, err := DiffVerdicts(cfg, tv, fake(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || !diffs[0].Mismatch || diffs[0].Prop != models.R1 {
		t.Fatalf("diffs = %+v", diffs)
	}
	diffs, err = DiffVerdicts(cfg, tv, fake(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || diffs[0].Mismatch {
		t.Fatalf("consistent violation flagged as mismatch: %+v", diffs)
	}
	// Properties without runtime violations are never model-checked.
	if calls != 2 {
		t.Fatalf("verify called %d times, want 2", calls)
	}
}

func TestSpecAlphabetAndCampaignCheck(t *testing.T) {
	check := &CampaignCheck{Model: models.Config{TMin: 1, TMax: 2, Variant: models.Binary, N: 1, Fixed: true}}
	sp, err := check.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if sp2, _ := check.Spec(); sp2 != sp {
		t.Fatal("CampaignCheck rebuilt the spec")
	}
	alpha := sp.Alphabet()
	for _, want := range []string{LabelTick, "timeout p[0]", "p[0]: send beat",
		"deliver beat to p[1]", "deliver beat to p[0] from p[1]", "inactivate nv p[1]"} {
		found := false
		for _, a := range alpha {
			if a == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("alphabet missing %q: %v", want, alpha)
		}
	}
	if _, err := ClusterFor(models.Config{TMin: 1, TMax: 2, Variant: models.Binary, N: 1, FixBounds: true}); err == nil {
		t.Fatal("ablation config accepted")
	}
}

// TestLabelConstructors pins the event vocabulary against its parser: the
// verdict monitor relies on procIndex inverting every constructor it
// dispatches on, and on nothing else parsing as one of them.
func TestLabelConstructors(t *testing.T) {
	for _, tc := range []struct {
		label, prefix string
		proc          int
	}{
		{labelDeliverToP0(3), prefDeliverBeatP0, 3},
		{labelDeliverLeaveToP0(2), prefDeliverLeaveP0, 2},
		{labelInactivate(7), prefInactivate, 7},
		{labelInactivate(0), prefInactivate, 0},
		{labelCrash(8), prefCrash, 8},
		{labelCrash(120), prefCrash, 120},
	} {
		if proc, ok := procIndex(tc.label, tc.prefix); !ok || proc != tc.proc {
			t.Fatalf("procIndex(%q, %q) = %d, %v, want %d", tc.label, tc.prefix, proc, ok, tc.proc)
		}
	}
	for _, tc := range []struct{ label, prefix string }{
		{labelSendBeat(1), prefCrash},                          // wrong shape
		{labelDeliverLeaveToP0(1), prefDeliverBeatP0},          // a different constructor's label
		{"crash p[01]", prefCrash},                             // leading zero
		{"inactivate nv p[007]", prefInactivate},               // leading zeros
		{"deliver beat to p[0] from p[00]", prefDeliverBeatP0}, // zero, twice
		{"crash p[]", prefCrash},                               // no digits
		{"crash p[+1]", prefCrash},                             // sign
		{"crash p[1] ", prefCrash},                             // trailing junk
		{"crash p[1]]", prefCrash},                             // trailing junk
		{"crash p[99999999]", prefCrash},                       // out of range
	} {
		if proc, ok := procIndex(tc.label, tc.prefix); ok {
			t.Fatalf("procIndex(%q, %q) accepted it as p[%d]", tc.label, tc.prefix, proc)
		}
	}
	// The tabulated labels are the constructors' renderings, cached or not.
	for _, i := range []int{0, 1, cachedProcs - 1, cachedProcs, 1000} {
		if got, want := *procLabels(i), newProcLabelSet(i); got != want {
			t.Fatalf("procLabels(%d) = %+v, want %+v", i, got, want)
		}
	}
	if got := procLabels(3).deliverLeaveAck + "|" + procLabels(3).sendLeaveAck + "|" + labelDeliverStray(2, 10); got !=
		"deliver leave ack to p[3]|p[0]: send leave ack to p[3]|deliver stray beat to p[2] from p[10]" {
		t.Fatalf("non-model labels render as %q", got)
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder()
	r.ObserveStep(1, 3, detector.Trigger{Kind: detector.TriggerCrash},
		[]core.Action{core.Inactivate(true)})
	if ev := r.Events(); len(ev) != 1 || ev[0].Label != labelCrash(1) || ev[0].Time != 3 {
		t.Fatalf("events = %v", ev)
	}
	r.Reset()
	if len(r.Events()) != 0 {
		t.Fatal("reset did not clear events")
	}
}

// TestSkewMachineClamp: the mutation wrapper clamps skewed delays to one
// tick so a mutant cannot busy-loop the simulator, and passes everything
// else through.
func TestSkewMachineClamp(t *testing.T) {
	inner := fakeMachine{actions: []core.Action{
		core.SetTimer(core.TimerExpiry, 1),
		core.SetTimer(core.TimerRound, 5),
	}}
	sk := &skewMachine{inner: inner, timer: core.TimerExpiry, delta: -3}
	for _, acts := range [][]core.Action{
		sk.Start(0), sk.OnTimer(core.TimerExpiry, 1), sk.OnBeat(core.Beat{}, 2), sk.Crash(3),
	} {
		if acts[0].Delay != 1 {
			t.Fatalf("clamped delay = %d, want 1", acts[0].Delay)
		}
		if acts[1].Delay != 5 {
			t.Fatalf("other timer skewed: %d", acts[1].Delay)
		}
	}
	if sk.Status() != core.StatusActive {
		t.Fatalf("status = %v", sk.Status())
	}
}

type fakeMachine struct{ actions []core.Action }

func (f fakeMachine) Start(core.Tick) []core.Action { return append([]core.Action(nil), f.actions...) }
func (f fakeMachine) OnTimer(core.TimerID, core.Tick) []core.Action {
	return append([]core.Action(nil), f.actions...)
}
func (f fakeMachine) OnBeat(core.Beat, core.Tick) []core.Action {
	return append([]core.Action(nil), f.actions...)
}
func (f fakeMachine) Crash(core.Tick) []core.Action { return append([]core.Action(nil), f.actions...) }
func (f fakeMachine) Status() core.Status           { return core.StatusActive }
