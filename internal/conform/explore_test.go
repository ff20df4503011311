package conform

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/netem"
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
	check := &CampaignCheck{Model: model}
	shrunk, div, err := ShrinkRun(rc, check)
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

	// The report surface: String() names the divergence, Render draws the
	// MSC prefix plus the model's allowed set.
	if msg := div.String(); !strings.Contains(msg, "divergence") || !strings.Contains(msg, "inactivate nv p[1]") {
		t.Fatalf("unhelpful divergence summary: %q", msg)
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
	if _, _, err := ShrinkRun(RunConfig{Model: model, Seed: 3, Horizon: 20}, check); err == nil {
		t.Fatal("ShrinkRun accepted a conforming run")
	}
}

// TestDiffVerdicts: a runtime violation is cross-checked against the model
// checker as it fires — a mismatch when the model proves the property
// satisfied, a consistent violation when the model admits it — and
// properties the trace did not violate are never model-checked.
func TestDiffVerdicts(t *testing.T) {
	cfg := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	// p[1]'s only beat arrives at t=2 and p[0] stays active past the bound:
	// one R1 violation, observable the tick after it.
	events := []Event{{Time: 2, Label: alphabet.DeliverBeatP0.Of(1)}}
	observable := 2 + core.Tick(cfg.DetectionBound()) + 1
	calls := 0
	fake := func(satisfied bool) VerifyFunc {
		return func(models.Config, models.Property) (models.Verdict, error) {
			calls++
			return models.Verdict{Satisfied: satisfied}, nil
		}
	}
	violations := func(verify VerifyFunc) []*Incident {
		t.Helper()
		sc, err := NewStreamChecker(StreamConfig{Check: &CampaignCheck{Model: cfg}, Horizon: observable + 4, Verify: verify})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			sc.Feed(ev)
		}
		res, err := sc.Finish(1) // lossy: R2/R3 vacuous
		if err != nil {
			t.Fatal(err)
		}
		var out []*Incident
		for _, inc := range res.Incidents {
			if inc.Kind == IncidentViolation {
				out = append(out, inc)
			}
		}
		return out
	}
	diffs := violations(fake(true))
	if len(diffs) != 1 || !diffs[0].Verified || diffs[0].ModelAgrees || diffs[0].Prop != models.R1 || diffs[0].Time != observable {
		t.Fatalf("diffs = %+v", diffs)
	}
	diffs = violations(fake(false))
	if len(diffs) != 1 || !diffs[0].Verified || !diffs[0].ModelAgrees {
		t.Fatalf("consistent violation flagged as mismatch: %+v", diffs)
	}
	// Properties without runtime violations are never model-checked.
	if calls != 2 {
		t.Fatalf("verify called %d times, want 2", calls)
	}
}

// TestExploreFailsWhenVerifyErrors: a model-checking backend that fails
// fails the campaign, naming the walk — a runtime violation is never
// counted as consistent (or clean) on a verdict nobody computed.
func TestExploreFailsWhenVerifyErrors(t *testing.T) {
	errBackend := errors.New("backend down")
	ec := ExploreConfig{
		Variant: models.Binary, Walks: 6, Seed: 2,
		Verify: func(models.Config, models.Property) (models.Verdict, error) {
			return models.Verdict{}, errBackend
		},
	}
	// The same campaign with a backend that admits every violation sees
	// an R1 violation.
	var asked []models.Property
	ok := ec
	ok.Verify = func(_ models.Config, p models.Property) (models.Verdict, error) {
		asked = append(asked, p)
		return models.Verdict{}, nil
	}
	res, err := ok.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if res.ConsistentViolations == 0 || !slices.Contains(asked, models.R1) {
		t.Fatalf("no walk violated R1 (asked about %v): %+v", asked, res)
	}
	for _, workers := range []int{1, 4} {
		ec.Workers = workers
		_, err := ec.Explore()
		if !errors.Is(err, errBackend) || !strings.Contains(err.Error(), "conform: walk ") {
			t.Fatalf("workers=%d: Explore error = %v, want the backend's error wrapped with its walk", workers, err)
		}
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

// TestLabelConstructors pins the abstraction as the reports spell it: one
// machine step of each shape through the Recorder, at process ids small
// and large, renders the texts the model LTS is labelled with (or the
// honest non-model ones).
func TestLabelConstructors(t *testing.T) {
	beat := func(from core.ProcID, stay bool) detector.Trigger {
		return detector.Trigger{Kind: detector.TriggerBeat, Beat: core.Beat{From: from, Stay: stay}}
	}
	timer := detector.Trigger{Kind: detector.TriggerTimer, Timer: core.TimerRound}
	for _, tc := range []struct {
		id      netem.NodeID
		tr      detector.Trigger
		actions []core.Action
		want    []string
	}{
		{0, beat(3, true), nil, []string{"deliver beat to p[0] from p[3]"}},
		{0, beat(2, false), []core.Action{core.SendBeat(2, core.Beat{})},
			[]string{"deliver leave beat to p[0] from p[2]", "p[0]: send leave ack to p[2]"}},
		{7, beat(0, true), []core.Action{core.SendBeat(0, core.Beat{Stay: true})},
			[]string{"deliver beat to p[7]", "p[7]: send beat"}},
		{3, beat(0, false), nil, []string{"deliver leave ack to p[3]"}},
		{2, beat(10, true), nil, []string{"deliver stray beat to p[2] from p[10]"}},
		{0, timer, []core.Action{core.SetTimer(core.TimerRound, 4), core.RetuneAction(2, 8)},
			[]string{"timeout p[0]", "p[0]: send beat", "p[0]: retune to (2,8)"}},
		{0, timer, []core.Action{core.Inactivate(false)}, []string{"timeout p[0]", "inactivate nv p[0]"}},
		{0, timer, []core.Action{core.RetuneAction(1<<40, -1<<40)},
			[]string{"timeout p[0]", "p[0]: retune to (2147483647,-2147483648)"}},
		{120, detector.Trigger{Kind: detector.TriggerTimer, Timer: core.TimerExpiry}, []core.Action{core.Inactivate(false)},
			[]string{"inactivate nv p[120]"}},
		{1000, detector.Trigger{Kind: detector.TriggerCrash}, []core.Action{core.Inactivate(true)}, []string{"crash p[1000]"}},
		{1, detector.Trigger{Kind: detector.TriggerStart}, []core.Action{core.SendBeat(0, core.Beat{Stay: true})},
			[]string{"p[1]: send join beat"}},
		{1, detector.Trigger{Kind: detector.TriggerLeave}, []core.Action{core.SendBeat(0, core.Beat{})},
			[]string{"p[1]: decide leave", "p[1]: send leave beat"}},
		{4, detector.Trigger{Kind: detector.TriggerRejoin}, nil, []string{"p[4]: rejoin"}},
		{4, detector.Trigger{Kind: detector.TriggerRestart}, nil, []string{"p[4]: restart"}},
	} {
		r := NewRecorder()
		r.ObserveStep(tc.id, 1, tc.tr, tc.actions)
		var got []string
		for _, ev := range r.Events() {
			got = append(got, ev.Label.String())
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("node %d, trigger %+v: recorded %q, want %q", tc.id, tc.tr, got, tc.want)
		}
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder()
	r.ObserveStep(1, 3, detector.Trigger{Kind: detector.TriggerCrash},
		[]core.Action{core.Inactivate(true)})
	if ev := r.Events(); len(ev) != 1 || ev[0].Label != alphabet.Crash.Of(1) || ev[0].Time != 3 {
		t.Fatalf("events = %v", ev)
	}
	r.Reset()
	if len(r.Events()) != 0 {
		t.Fatal("reset did not clear events")
	}
}

// Reset clears the recorded trace.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = r.events[:0]
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
