package conform

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"math/rand"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/netem"
	"repro/internal/sim"
)

// feedAll feeds a trace through a fresh StreamChecker one event at a time
// and finishes it, mirroring what a live cluster's observer does.
func feedAll(cfg StreamConfig, events []Event, lost uint64) (*StreamResult, error) {
	sc, err := NewStreamChecker(cfg)
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		sc.Feed(ev)
	}
	return sc.Finish(lost)
}

// streamAll is feedAll on the test goroutine: an error fails the test.
func streamAll(t *testing.T, cfg StreamConfig, events []Event, lost uint64) *StreamResult {
	t.Helper()
	res, err := feedAll(cfg, events, lost)
	if err != nil {
		t.Fatalf("feed: %v", err)
	}
	return res
}

// walkDiff is one walk's comparison summary; identical across worker
// counts by the determinism contract.
type walkDiff struct {
	variant  models.Variant
	walk     int
	events   int
	diverged bool
}

// TestStreamDifferential is the corpus differential: every variant's
// random-walk corpus is checked by the StreamChecker live (RunStream, as
// Explore does) and fed from the recorded trace. The two must agree, and
// the outcome must be the references' — the network reference checker's
// for inclusion, refVerdicts' for R1–R3 — at 1 worker and at 8.
func TestStreamDifferential(t *testing.T) {
	const walksPerVariant = 6
	// One CampaignCheck per model config: live and fed checking share the
	// same cached spec, and concurrent walks share one build.
	var (
		checksMu sync.Mutex
		checks   = map[models.Config]*CampaignCheck{}
	)
	checkFor := func(m models.Config) *CampaignCheck {
		checksMu.Lock()
		defer checksMu.Unlock()
		c, ok := checks[m]
		if !ok {
			c = &CampaignCheck{Model: m}
			checks[m] = c
		}
		return c
	}

	// walk is one walk's run, checked from its recorded trace and live.
	type walk struct {
		variant   models.Variant
		index     int
		rc        RunConfig
		check     *CampaignCheck
		out       *recordedRun
		fed, live *StreamResult
		err       error
	}
	runWalk := func(variant models.Variant, w int) walk {
		wk := walk{variant: variant, index: w}
		rng := rand.New(rand.NewSource(23 + int64(w)*0x9e3779b97f4a7c))
		wk.rc = walkRun(variant, rng)
		wk.check = checkFor(wk.rc.Model)
		if wk.out, wk.err = recordRun(wk.rc); wk.err != nil {
			return wk
		}
		if wk.fed, wk.err = feedAll(StreamConfig{Check: wk.check, Horizon: wk.rc.Horizon}, wk.out.Events, wk.out.Lost); wk.err != nil {
			return wk
		}
		wk.live, wk.err = RunStream(wk.rc, StreamConfig{Check: wk.check})
		return wk
	}

	// corpus runs the walks on workers goroutines, then checks them on the
	// test goroutine.
	corpus := func(workers int) []walkDiff {
		type job struct {
			variant models.Variant
			walk    int
		}
		var jobs []job
		for _, v := range models.Variants {
			for w := 0; w < walksPerVariant; w++ {
				jobs = append(jobs, job{v, w})
			}
		}
		walks := make([]walk, len(jobs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					walks[i] = runWalk(jobs[i].variant, jobs[i].walk)
				}
			}()
		}
		wg.Wait()
		outs := make([]walkDiff, len(walks))
		for i, wk := range walks {
			if wk.err != nil {
				t.Fatalf("%v walk %d: %v", wk.variant, wk.index, wk.err)
			}
			if wk.fed.Events != len(wk.out.Events) {
				t.Fatalf("%v walk %d: stream consumed %d events, trace has %d", wk.variant, wk.index, wk.fed.Events, len(wk.out.Events))
			}
			if !reflect.DeepEqual(wk.live, wk.fed) {
				t.Fatalf("%v walk %d: live and fed checking differ:\n  live: %+v\n  fed:  %+v", wk.variant, wk.index, wk.live, wk.fed)
			}
			requireAgainstReference(t, wk.check, wk.out.Events, wk.out.Lost, wk.rc.Horizon, wk.fed)
			outs[i] = walkDiff{variant: wk.variant, walk: wk.index, events: len(wk.out.Events), diverged: wk.fed.Unconfirmed != nil}
		}
		return outs
	}

	seq := corpus(1)
	par := corpus(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("worker count changed the corpus outcome:\n  1: %+v\n  8: %+v", seq, par)
	}
	total := 0
	for _, d := range seq {
		total += d.events
		if d.diverged {
			t.Fatalf("healthy walk diverged: %+v", d)
		}
	}
	if total == 0 {
		t.Fatal("corpus recorded no events")
	}
}

// adaptiveClusterTrace records one real adaptive cluster run (Gilbert-
// Elliott loss driving the coordinator through its envelope) and returns
// the trace and its loss count.
func adaptiveClusterTrace(t *testing.T, check *CampaignCheck, seed int64, horizon core.Tick) ([]Event, uint64) {
	t.Helper()
	return recordAdaptive(t, check, &faults.Schedule{
		Seed: seed,
		Events: []faults.Event{
			{At: 100, Kind: faults.KindLoss, AllLinks: true, GE: &faults.GilbertElliott{
				PGoodBad: 0.3, PBadGood: 0.4, LossGood: 0, LossBad: 0.9,
			}},
		},
	}, seed, horizon)
}

// TestStreamAdaptiveDifferential: real adaptive runs — retunes included —
// checked piecewise must match the reference checker counter for counter,
// and the R1–R3 verdicts must match refVerdicts at the envelope ceiling
// (the StreamChecker's monitor configuration).
func TestStreamAdaptiveDifferential(t *testing.T) {
	env := models.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8}
	check := &CampaignCheck{
		Model:    models.Config{TMin: 2, TMax: 4, Variant: models.Static, N: 2, Fixed: true},
		Envelope: &env,
	}
	const horizon = core.Tick(1200)

	totalRetunes := 0
	for seed := int64(1); seed <= 6; seed++ {
		events, lost := adaptiveClusterTrace(t, check, seed, horizon)
		sres := streamAll(t, StreamConfig{Check: check, Horizon: horizon}, events, lost)
		if sres.Unconfirmed != nil {
			t.Fatalf("seed %d: healthy adaptive run diverged: %v", seed, sres.Unconfirmed)
		}
		requireAgainstReference(t, check, events, lost, horizon, sres)
		totalRetunes += sres.Retunes
	}
	if totalRetunes == 0 {
		t.Fatal("no seed drove the coordinator through a retune — the piecewise path was never exercised")
	}
}

// TestRunStreamMatchesFeed: attaching the checker as a live observer
// (abstracting machine steps as they happen) is equivalent to feeding the
// recorded trace of the same run.
func TestRunStreamMatchesFeed(t *testing.T) {
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	check := &CampaignCheck{Model: model}
	rc := RunConfig{
		Model: model,
		Seed:  3,
		Schedule: &faults.Schedule{Events: []faults.Event{
			{At: 9, Kind: faults.KindCrash, Node: 1},
		}},
		Horizon: 30,
	}
	out, err := recordRun(rc)
	if err != nil {
		t.Fatal(err)
	}
	fed := streamAll(t, StreamConfig{Check: check, Horizon: rc.Horizon}, out.Events, out.Lost)

	// RunStream takes the horizon from the run, whatever the config says.
	lres, err := RunStream(rc, StreamConfig{Check: check, Horizon: rc.Horizon + 100})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lres, fed) {
		t.Fatalf("live observation and replay differ:\n  live: %+v\n  fed:  %+v", lres, fed)
	}
	if lres.Events != len(out.Events) {
		t.Fatalf("live stream saw %d events, recorder saw %d", lres.Events, len(out.Events))
	}
}

// streamEarliest replays a mutant trace one event at a time and returns
// the feed index at which the first divergence incident fired: the index
// of the event after which the checker's incidents first hold one, or
// len(events) when Finish emits it.
func streamEarliest(t *testing.T, check *CampaignCheck, events []Event, horizon core.Tick) (*Incident, int) {
	t.Helper()
	sc, err := NewStreamChecker(StreamConfig{Check: check, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	diverged := func() bool {
		return slices.ContainsFunc(sc.incidents, func(inc *Incident) bool { return inc.Kind == IncidentDivergence })
	}
	firedAt := len(events)
	for i, ev := range events {
		sc.Feed(ev)
		if firedAt == len(events) && diverged() {
			firedAt = i
		}
	}
	res, err := sc.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconfirmed == nil {
		t.Fatal("mutant not caught by the stream checker")
	}
	return res.Unconfirmed, firedAt
}

// requireEarliest checks a mutant's divergence incident against the
// reference checker's on the same trace: it fired while the event the
// reference diverges at was fed, and reports the same location, label and
// allowed set.
func requireEarliest(t *testing.T, check *CampaignCheck, events []Event, horizon core.Tick) outcome {
	t.Helper()
	want := refCheck(t, check, events, horizon)
	if !want.Diverged {
		t.Fatal("the reference checker missed the mutant")
	}
	inc, firedAt := streamEarliest(t, check, events, horizon)
	if firedAt != want.Index {
		t.Fatalf("incident fired while feeding event %d, earliest possible is %d", firedAt, want.Index)
	}
	if inc.Kind != IncidentDivergence || inc.Seq != want.Index || inc.Time != want.Time ||
		inc.Label != want.Label || !reflect.DeepEqual(inc.Expected, want.Expected) {
		t.Fatalf("incident (seq=%d t=%d %q %v) != reference (index=%d t=%d %q %v)",
			inc.Seq, inc.Time, inc.Label, inc.Expected, want.Index, want.Time, want.Label, want.Expected)
	}
	return want
}

// TestStreamMutantExpiryEarliest: the expiry+1 mutation's stuck-time
// divergence must fire at the earliest possible event — exactly where the
// reference checker locates it — not at teardown.
func TestStreamMutantExpiryEarliest(t *testing.T) {
	wrap, err := Mutation("expiry+1")
	if err != nil {
		t.Fatal(err)
	}
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	check := &CampaignCheck{Model: model}
	rc := RunConfig{
		Model: model,
		Seed:  3,
		Schedule: &faults.Schedule{Events: []faults.Event{
			{At: 9, Kind: faults.KindCrash, Node: 0},
		}},
		Horizon: 30,
		Wrap:    wrap,
	}
	out, err := recordRun(rc)
	if err != nil {
		t.Fatal(err)
	}
	if d := requireEarliest(t, check, out.Events, rc.Horizon); d.Label != LabelTick {
		t.Fatalf("expected a stuck-time divergence, got %q", d.Label)
	}
}

// TestStreamMutantRoundEarliest: the round-1 mutation's forbidden
// "timeout p[0]" is flagged the moment that event streams in.
func TestStreamMutantRoundEarliest(t *testing.T) {
	wrap, err := Mutation("round-1")
	if err != nil {
		t.Fatal(err)
	}
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	check := &CampaignCheck{Model: model}
	rc := RunConfig{Model: model, Seed: 3, Horizon: 20, Wrap: wrap}
	out, err := recordRun(rc)
	if err != nil {
		t.Fatal(err)
	}
	if d := requireEarliest(t, check, out.Events, rc.Horizon); d.Label != "timeout p[0]" {
		t.Fatalf("expected the forbidden timeout, got %q", d.Label)
	}
}

// TestLongQuietGap: once p[0] has crashed and p[1] has inactivated,
// nothing happens for the rest of the run, and a tick soon leaves the
// frontier as it was; the checker then skips the rest of the gap. At a
// 5,000-tick horizon it must match the reference, which steps every tick
// at that gap; at a 2^40-tick horizon it must still finish, and match the
// reference's own skip. Cut before p[1] inactivates, the same trace leaves
// the model a forced action inside the gap: the skip must not jump over
// it. Every row runs twice: as shipped, and with the spec's graph budget
// at 0, where the frontier past the initial node is unpublished and the
// skip fires on set equality instead of node identity.
func TestLongQuietGap(t *testing.T) {
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	check, spent := &CampaignCheck{Model: model}, &CampaignCheck{Model: model}
	sp, err := spent.Spec()
	if err != nil {
		t.Fatal(err)
	}
	sp.graph.budget = 0
	rc := RunConfig{
		Model: model,
		Seed:  3,
		Schedule: &faults.Schedule{Events: []faults.Event{
			{At: 9, Kind: faults.KindCrash, Node: 0},
		}},
		Horizon: 5000,
	}
	out, err := recordRun(rc)
	if err != nil {
		t.Fatal(err)
	}
	crash := slices.IndexFunc(out.Events, func(ev Event) bool { return ev.Label == alphabet.Crash.Of(0) })
	if crash < 0 {
		t.Fatalf("no crash of p[0] in %v", out.Events)
	}
	for _, tc := range []struct {
		events  []Event
		diverge bool
	}{
		{out.Events, false},
		{out.Events[:crash+1], true},
	} {
		for _, horizon := range []core.Tick{rc.Horizon, 1 << 40} {
			for _, check := range []*CampaignCheck{check, spent} {
				res := streamAll(t, StreamConfig{Check: check, Horizon: horizon}, tc.events, out.Lost)
				if (res.Unconfirmed != nil) != tc.diverge {
					t.Fatalf("%d events, horizon %d, spent budget %v: divergence %v, want one: %v",
						len(tc.events), horizon, check == spent, res.Unconfirmed, tc.diverge)
				}
				requireAgainstReference(t, check, tc.events, out.Lost, horizon, res)
			}
		}
	}
	if initial := len(sp.graph.initial.set); sp.graph.used != initial {
		t.Fatalf("a graph with no budget published %d states beside the %d of its initial node", sp.graph.used-initial, initial)
	}
}

// TestStreamMillionEventAllocFree pins bounded memory the hard way: one
// million generated events through a saturated (degraded) piecewise
// checker, with the incident tail ring and the R1–R3 monitor live and a
// by-design reseed every 1024 events, must allocate nothing per event in
// steady state — the checker's footprint does not grow with the stream,
// and a reseed is a pointer move, not two NumStates-long arrays.
func TestStreamMillionEventAllocFree(t *testing.T) {
	env := models.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8}
	check := &CampaignCheck{
		Model:    models.Config{TMin: 2, TMax: 4, Variant: models.Static, N: 1, Fixed: true},
		Envelope: &env,
	}
	sc, err := NewStreamChecker(StreamConfig{Check: check, Horizon: core.Tick(1) << 40})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate: a retune re-holding the level-0 point enters degraded
	// mode, the sampled-observer regime whose per-event cost must be flat.
	sc.Feed(Event{Time: 0, Label: retune(2, 4)})

	const (
		events      = 1 << 20
		reseedEvery = 1 << 10
	)
	now := core.Tick(0)
	beat, restart := alphabet.DeliverBeatP0.Of(1), alphabet.Restart.Of(1)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < events; i++ {
			now++
			label := garbage
			switch {
			case i%reseedEvery == 0:
				label = restart
			case i%2 == 0:
				label = beat
			}
			sc.Feed(Event{Time: now, Label: label})
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state feed allocates %v per 2^20 events, want 0", allocs)
	}
	res, err := sc.Finish(1) // lossy: R2/R3 vacuous
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconfirmed != nil {
		t.Fatalf("degraded stream diverged: %v", res.Unconfirmed)
	}
	if res.Events < 2*events {
		t.Fatalf("stream consumed %d events, want >= %d", res.Events, 2*events)
	}
	if want := 2 * events / reseedEvery; res.Confirmed != want {
		t.Fatalf("stream reseeded %d times, want %d", res.Confirmed, want)
	}
	if res.MaxFrontierSeen == 0 {
		t.Fatal("frontier high water was never tracked")
	}
}

// stepLog is a detector.Observer that keeps the machine steps themselves,
// so a test can replay them into another observer.
type stepLog struct {
	steps []loggedStep
}

type loggedStep struct {
	id      netem.NodeID
	now     core.Tick
	tr      detector.Trigger
	actions []core.Action
}

func (l *stepLog) ObserveStep(id netem.NodeID, now core.Tick, tr detector.Trigger, actions []core.Action) {
	l.steps = append(l.steps, loggedStep{id, now, tr, append([]core.Action(nil), actions...)})
}

// TestObserveStepAllocFree replays the machine steps of a healthy cluster
// into a live StreamChecker's ObserveStep, with a supervisor-restart step
// (a by-design reseed) spliced in every 64 steps: past warm-up, abstracting
// a model-alphabet step, looking its labels up, stepping the frontier —
// through the shared graph, from its root after each reseed — and feeding
// the monitor must allocate nothing.
func TestObserveStepAllocFree(t *testing.T) {
	check := adaptiveCheck(t)
	cc, err := ClusterFor(check.Model)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = core.Tick(4000)
	log := &stepLog{}
	cc.Seed = 1
	cc.Observe = log
	cl, err := detector.NewCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	cl.Sim.RunUntil(sim.Time(horizon))
	cl.Stop()

	sc, err := NewStreamChecker(StreamConfig{Check: check, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	const reseedEvery = 64
	half := len(log.steps) / 2
	if half < 16*reseedEvery {
		t.Fatalf("only %d steps recorded", len(log.steps))
	}
	// AllocsPerRun runs its function twice — warm-up, then measured — so
	// each call replays the next half of the log.
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		for end := next + half; next < end; next++ {
			st := log.steps[next]
			if next%reseedEvery == 0 {
				sc.ObserveStep(1, st.now, detector.Trigger{Kind: detector.TriggerRestart}, nil)
			}
			sc.ObserveStep(st.id, st.now, st.tr, st.actions)
		}
	})
	if allocs != 0 {
		t.Fatalf("ObserveStep allocates %v per %d steps in steady state, want 0", allocs, half)
	}
	res, err := sc.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconfirmed != nil {
		t.Fatalf("healthy run diverged: %v", res.Unconfirmed)
	}
	if want := (2*half + reseedEvery - 1) / reseedEvery; res.Confirmed != want {
		t.Fatalf("stream reseeded %d times, want %d", res.Confirmed, want)
	}
	if res.Events < 2*half {
		t.Fatalf("stream saw %d events from %d steps", res.Events, 2*half)
	}
	sp, err := check.SpecAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if !rootStepped(sp) {
		t.Fatal("no reseed stepped through the shared graph")
	}
}

// TestStreamSharedRegionConcurrent: checkers of one CampaignCheck share
// its specs' frontier graphs. Eight goroutines streaming different traces
// against one check, growing the graphs as they go, must return exactly
// what the same traces return one after the other against a check of
// their own. Run under -race.
func TestStreamSharedRegionConcurrent(t *testing.T) {
	const (
		horizon = core.Tick(1200)
		streams = 8
	)
	tc := topoCampaigns[2] // churn storm: by-design reseeds in every trial
	sched, err := faults.ParseSchedule(tc.schedule)
	if err != nil {
		t.Fatal(err)
	}
	serial, shared := topoCheck(tc.variant, tc.n), topoCheck(tc.variant, tc.n)
	type trace struct {
		events []Event
		lost   uint64
	}
	traces := make([]trace, streams)
	want := make([]*StreamResult, streams)
	for i := range traces {
		// Odd streams add bursty loss once the churn is over, so some
		// retune across levels too.
		s := *sched
		if i%2 == 1 {
			s.Events = append(append([]faults.Event(nil), s.Events...), faults.Event{
				At: 400, Kind: faults.KindLoss, AllLinks: true,
				GE: &faults.GilbertElliott{PGoodBad: 0.3, PBadGood: 0.4, LossGood: 0, LossBad: 0.9},
			})
		}
		traces[i].events, traces[i].lost = recordAdaptive(t, serial, &s, int64(i+1), horizon)
		want[i] = streamAll(t, StreamConfig{Check: serial, Horizon: horizon}, traces[i].events, traces[i].lost)
	}
	// Build the specs up front, as RunCampaign does; the graphs stay cold.
	for level := 0; level < topoEnvelope.Levels(); level++ {
		if _, err := shared.SpecAt(level); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*StreamResult, streams)
	var wg sync.WaitGroup
	for i := range traces {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Twice: the second round steps through warm graphs.
			for round := 0; round < 2; round++ {
				sc, err := NewStreamChecker(StreamConfig{Check: shared, Horizon: horizon})
				if err != nil {
					t.Errorf("stream %d: NewStreamChecker: %v", i, err)
					return
				}
				for _, ev := range traces[i].events {
					sc.Feed(ev)
				}
				if got[i], err = sc.Finish(traces[i].lost); err != nil {
					t.Errorf("stream %d: Finish: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	confirmed, levelChanges := 0, 0
	for i := range traces {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("stream %d: concurrent result differs from serial:\n  concurrent: %+v\n  serial:     %+v", i, got[i], want[i])
		}
		confirmed += want[i].Confirmed
		levelChanges += want[i].Retunes - want[i].Saturations
	}
	if confirmed == 0 || levelChanges == 0 {
		t.Fatalf("traces made %d by-design reseeds and %d level changes: both paths must run", confirmed, levelChanges)
	}
}

// TestOutOfRangeEventsDiverge: what falls outside the specification's
// dense label index — a beat whose sender decoded negative
// (core.UnmarshalBeat sign-extends the 16-bit field), a process the model
// does not have, a label of no kind — renders, diverges as an
// out-of-alphabet label and indexes nothing out of bounds, on every way
// in: StreamChecker.Feed, the StreamChecker as an observer, and the
// Recorder's trace fed back in, plain and piecewise.
func TestOutOfRangeEventsDiverge(t *testing.T) {
	crash := detector.Trigger{Kind: detector.TriggerCrash}
	for _, tc := range []struct {
		want  string
		label alphabet.Label
		// The machine step that abstracts to label; nil when only Feed can
		// carry it (the abstraction emits enumerated kinds only).
		step *loggedStep
	}{
		{"deliver beat to p[0] from p[-3]", alphabet.DeliverBeatP0.Of(-3), &loggedStep{id: 0,
			tr: detector.Trigger{Kind: detector.TriggerBeat, Beat: core.Beat{From: -3, Stay: true}}}},
		{"deliver beat to p[0] from p[-32768]", alphabet.DeliverBeatP0.Of(-32768), &loggedStep{id: 0,
			tr: detector.Trigger{Kind: detector.TriggerBeat, Beat: core.Beat{From: -32768, Stay: true}}}},
		{"crash p[2]", alphabet.Crash.Of(2), &loggedStep{id: 2, tr: crash, actions: []core.Action{core.Inactivate(true)}}},
		{"crash p[2147483647]", alphabet.Crash.Of(math.MaxInt32),
			&loggedStep{id: math.MaxInt32, tr: crash, actions: []core.Action{core.Inactivate(true)}}},
		{"inactivate nv p[-1]", alphabet.Inactivate.Of(-1), &loggedStep{id: -1,
			tr: detector.Trigger{Kind: detector.TriggerTimer, Timer: core.TimerExpiry}, actions: []core.Action{core.Inactivate(false)}}},
		{"unknown kind 33 (0,0)", alphabet.Label{Kind: alphabet.NumKinds}, nil},
		{"unknown kind 255 (-7,9)", alphabet.Label{Kind: 255, A: -7, B: 9}, nil},
	} {
		for _, check := range []*CampaignCheck{adaptiveCheck(t), {Model: adaptiveCheck(t).Model}} {
			cfg := StreamConfig{Check: check, Horizon: 4}
			requireDiverged := func(how string, inc *Incident) {
				t.Helper()
				if inc == nil || inc.Seq != 0 || inc.Label != tc.want {
					t.Fatalf("%s (envelope %v): %q did not diverge at event 0: %+v", how, check.Envelope != nil, tc.want, inc)
				}
			}
			fed, err := NewStreamChecker(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fed.Feed(Event{Time: 0, Label: tc.label})
			res, err := fed.Finish(0)
			if err != nil {
				t.Fatal(err)
			}
			requireDiverged("Feed", res.Unconfirmed)
			if tc.step == nil {
				continue
			}

			observed, err := NewStreamChecker(cfg)
			if err != nil {
				t.Fatal(err)
			}
			observed.ObserveStep(tc.step.id, 0, tc.step.tr, tc.step.actions)
			if res, err = observed.Finish(0); err != nil {
				t.Fatal(err)
			}
			requireDiverged("StreamChecker.ObserveStep", res.Unconfirmed)

			rec := NewRecorder()
			rec.ObserveStep(tc.step.id, 0, tc.step.tr, tc.step.actions)
			events := rec.Events()
			if len(events) != 1 || events[0].Label != tc.label {
				t.Fatalf("recorded %+v, want one %+v", events, tc.label)
			}
			if replayed := streamAll(t, cfg, events, 0); !reflect.DeepEqual(replayed.Unconfirmed, res.Unconfirmed) {
				t.Fatalf("recorded trace diverges as %+v, the observed step as %+v", replayed.Unconfirmed, res.Unconfirmed)
			}
		}
	}
}
