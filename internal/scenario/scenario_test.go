package scenario

import (
	"errors"
	"testing"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/netem"
	"repro/internal/sim"
)

func binaryCluster() detector.ClusterConfig {
	return detector.ClusterConfig{
		Protocol: detector.ProtocolBinary,
		Core:     core.Config{TMin: 2, TMax: 16},
	}
}

func TestMeasureDetectionWithinBound(t *testing.T) {
	res, err := MeasureDetection(DetectionConfig{
		Cluster: binaryCluster(),
		CrashAt: 100,
		Horizon: 400,
		Trials:  20,
		Seed:    1,
	})
	if err != nil {
		t.Fatalf("MeasureDetection: %v", err)
	}
	if res.Missed != 0 {
		t.Fatalf("missed %d detections", res.Missed)
	}
	maxDelay, err := res.Delays.Max()
	if err != nil {
		t.Fatal(err)
	}
	if maxDelay > float64(res.Bound) {
		t.Fatalf("max delay %v exceeds bound %d", maxDelay, res.Bound)
	}
	if minDelay, _ := res.Delays.Min(); minDelay <= 0 {
		t.Fatalf("min delay %v not positive", minDelay)
	}
}

func TestMeasureDetectionValidation(t *testing.T) {
	if _, err := MeasureDetection(DetectionConfig{Cluster: binaryCluster(), Trials: 0, Horizon: 10, CrashAt: 1}); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := MeasureDetection(DetectionConfig{Cluster: binaryCluster(), Trials: 1, Horizon: 5, CrashAt: 10}); err == nil {
		t.Fatal("horizon before crash accepted")
	}
}

func TestMeasureOverheadAcceleratedVsPlain(t *testing.T) {
	// Accelerated: one exchange (2 messages) per tmax in steady state.
	res, err := MeasureOverhead(OverheadConfig{
		Cluster:  binaryCluster(),
		Duration: 4000,
	})
	if err != nil {
		t.Fatalf("MeasureOverhead: %v", err)
	}
	if res.FalselyInactivated {
		t.Fatal("fault-free run inactivated")
	}
	want := 2.0 / 16
	if res.MessagesPerTick < want*0.9 || res.MessagesPerTick > want*1.1 {
		t.Fatalf("accelerated rate %v, want about %v", res.MessagesPerTick, want)
	}
	// A plain protocol matching the accelerated detection bound (about
	// 3·tmax − tmin = 46 ticks) with MissLimit 2 needs period ~15, i.e.
	// roughly the same rate; matching the accelerated protocol's
	// worst-case loss tolerance (3 consecutive losses) at that detection
	// bound needs period ~11, i.e. more traffic.
	plain := PlainOverhead(1, 11)
	if plain <= res.MessagesPerTick {
		t.Fatalf("plain rate %v should exceed accelerated %v at equal tolerance", plain, res.MessagesPerTick)
	}
}

func TestMeasureReliabilityMonotoneInLoss(t *testing.T) {
	base := ReliabilityConfig{
		Cluster: binaryCluster(),
		Horizon: 2000,
		Trials:  40,
		Seed:    7,
	}
	low := base
	low.LossProb = 0.02
	high := base
	high.LossProb = 0.45
	resLow, err := MeasureReliability(low)
	if err != nil {
		t.Fatal(err)
	}
	resHigh, err := MeasureReliability(high)
	if err != nil {
		t.Fatal(err)
	}
	pLow, _ := resLow.FalseDetection.Value()
	pHigh, _ := resHigh.FalseDetection.Value()
	if pHigh <= pLow {
		t.Fatalf("false detection not increasing in loss: %v (2%%) vs %v (45%%)", pLow, pHigh)
	}
	if pHigh < 0.5 {
		t.Fatalf("45%% loss should usually break the protocol, got %v", pHigh)
	}
}

// plainCluster is the baseline as one more detector.ClusterConfig.
func plainCluster(period core.Tick, missLimit, n int) detector.ClusterConfig {
	return detector.ClusterConfig{
		Protocol: detector.ProtocolPlain,
		Plain:    core.PlainConfig{Period: period, MissLimit: missLimit},
		N:        n,
	}
}

func TestPlainClusterRunsAndDetects(t *testing.T) {
	res, err := MeasureDetection(DetectionConfig{
		Cluster: plainCluster(8, 3, 2), CrashAt: 100, Horizon: 400, Trials: 10, Seed: 3,
	})
	if err != nil {
		t.Fatalf("MeasureDetection: %v", err)
	}
	if res.Missed != 0 {
		t.Fatalf("missed %d", res.Missed)
	}
	maxDelay, _ := res.Delays.Max()
	if maxDelay > float64(res.Bound)+8 {
		t.Fatalf("delay %v beyond bound %d", maxDelay, res.Bound)
	}
}

func TestPlainMoreFragileAtEqualRate(t *testing.T) {
	// At roughly equal steady-state rates, the plain protocol with
	// MissLimit 1 breaks far more often than the accelerated one, whose
	// effective miss budget is log2(tmax/tmin) consecutive rounds.
	loss := 0.15
	horizon := 3000
	acc, err := MeasureReliability(ReliabilityConfig{
		Cluster:  binaryCluster(), // tmax=16 → 2/16 msgs/tick
		LossProb: loss,
		Horizon:  3000,
		Trials:   60,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := MeasureReliability(ReliabilityConfig{
		Cluster:  plainCluster(16, 1, 1), // 2/16 msgs/tick
		LossProb: loss,
		Horizon:  3000,
		Trials:   60,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	pAcc, _ := acc.FalseDetection.Value()
	pPlain, _ := plain.FalseDetection.Value()
	if pPlain <= pAcc {
		t.Fatalf("plain %v should be more fragile than accelerated %v at equal rate (horizon %d)",
			pPlain, pAcc, horizon)
	}
}

func TestPlainClusterValidation(t *testing.T) {
	if _, err := detector.NewCluster(plainCluster(8, 1, 0)); err == nil {
		t.Fatal("zero participants accepted")
	}
	if _, err := MeasureReliability(ReliabilityConfig{Cluster: plainCluster(8, 1, 1), LossProb: 0.1, Horizon: 0, Trials: 1, Seed: 1}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := MeasureDetection(DetectionConfig{Cluster: plainCluster(8, 1, 1), CrashAt: 10, Horizon: 5, Trials: 1, Seed: 1}); err == nil {
		t.Fatal("bad horizon accepted")
	}
}

// TestPlainThroughOneAssemblerMatchesRecorded pins the baseline assembled
// by detector.NewCluster to what the deleted scenario.PlainCluster /
// MeasurePlainReliability / MeasurePlainDetection produced, recorded from
// the last commit that had them: same seeds, same draws, same numbers.
func TestPlainThroughOneAssemblerMatchesRecorded(t *testing.T) {
	for _, tc := range []struct {
		cluster          detector.ClusterConfig
		crashAt, horizon int
		trials           int
		seed             int64
		n                int
		sum              float64
		bound            core.Tick
	}{
		{plainCluster(8, 3, 2), 100, 400, 10, 3, 10, 280, 33},
		{plainCluster(8, 1, 1), 10, 100, 5, 1, 5, 70, 17},
	} {
		res, err := MeasureDetection(DetectionConfig{
			Cluster: tc.cluster, CrashAt: sim.Time(tc.crashAt), Horizon: sim.Time(tc.horizon),
			Trials: tc.trials, Seed: tc.seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Missed != 0 || res.Delays.N() != tc.n || res.Delays.Sum() != tc.sum || res.Bound != tc.bound {
			t.Errorf("detection %+v: missed %d, n %d, sum %v, bound %d; recorded 0, %d, %v, %d",
				tc.cluster.Plain, res.Missed, res.Delays.N(), res.Delays.Sum(), res.Bound, tc.n, tc.sum, tc.bound)
		}
	}
	for _, tc := range []struct {
		cluster detector.ClusterConfig
		loss    float64
		horizon int
		trials  int
		seed    int64
		failed  int
		sum     float64
	}{
		{plainCluster(16, 1, 1), 0.15, 3000, 60, 11, 60, 4336},
		{plainCluster(16, 1, 1), 0.02, 1000, 40, 7, 33, 10864},
		{plainCluster(8, 1, 1), 0.02, 1000, 40, 7, 40, 9736},
		{plainCluster(8, 3, 2), 0.2, 1000, 40, 7, 40, 5704},
	} {
		res, err := MeasureReliability(ReliabilityConfig{
			Cluster: tc.cluster, LossProb: tc.loss, Horizon: sim.Time(tc.horizon),
			Trials: tc.trials, Seed: tc.seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FalseDetection.Successes != tc.failed || res.FalseDetection.Trials != tc.trials ||
			res.TimeToFalse.N() != tc.failed || res.TimeToFalse.Sum() != tc.sum {
			t.Errorf("reliability %+v loss %v: %+v, time-to-false n %d sum %v; recorded %d/%d, sum %v",
				tc.cluster.Plain, tc.loss, res.FalseDetection, res.TimeToFalse.N(), res.TimeToFalse.Sum(),
				tc.failed, tc.trials, tc.sum)
		}
	}
}

// TestPlainClusterUnderFaultSchedule is what the old assembler could not
// express: the baseline under a scripted crash from a faults.Schedule, with
// an observer attached, detects within its own configured bound.
func TestPlainClusterUnderFaultSchedule(t *testing.T) {
	const crashAt = 203
	cc := plainCluster(8, 3, 2)
	sched, err := faults.ParseSchedule("crash t=203 node=1")
	if err != nil {
		t.Fatal(err)
	}
	rec := conform.NewRecorder()
	cc.Faults, cc.Observe = sched, rec
	c, err := detector.NewCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.Sim.RunUntil(600)
	c.Stop()
	if errs := c.FaultErrors(); len(errs) != 0 {
		t.Fatalf("schedule errors: %v", errs)
	}
	ev, ok := c.FirstEvent(netem.NodeID(core.CoordinatorID), detector.EventSuspect)
	if !ok || ev.Proc != 1 {
		t.Fatalf("coordinator never suspected p[1]: %+v (events %v)", ev, c.Events)
	}
	if delay, bound := ev.Time-crashAt, cc.Plain.DetectionBound(); delay <= 0 || delay > bound {
		t.Fatalf("suspected %d ticks after the crash, want within (0, %d]", delay, bound)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("observer saw no machine steps")
	}
}

func TestReliabilityValidation(t *testing.T) {
	if _, err := MeasureReliability(ReliabilityConfig{Cluster: binaryCluster(), Trials: 0, Horizon: 10}); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := MeasureOverhead(OverheadConfig{Cluster: binaryCluster(), Duration: 0}); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestMeasureDetectionStaticVictims(t *testing.T) {
	cfg := DetectionConfig{
		Cluster: detector.ClusterConfig{
			Protocol: detector.ProtocolStatic,
			Core:     core.Config{TMin: 2, TMax: 16},
			N:        3,
			Link:     netem.LinkConfig{MaxDelay: 1},
		},
		CrashAt: 200,
		Victim:  2,
		Horizon: 600,
		Trials:  10,
		Seed:    5,
	}
	res, err := MeasureDetection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed != 0 {
		t.Fatalf("missed %d", res.Missed)
	}
}

func TestRunCampaignSelfHealing(t *testing.T) {
	sched := &faults.Schedule{Events: []faults.Event{
		{At: 0, Kind: faults.KindLoss, AllLinks: true,
			GE: &faults.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.4, LossBad: 0.8}},
		{At: 200, Kind: faults.KindCrash, Node: 1},
		{At: 800, Kind: faults.KindRestart, Node: 1},
	}}
	cluster := detector.ClusterConfig{
		Protocol:    detector.ProtocolDynamic,
		Core:        core.Config{TMin: 2, TMax: 16},
		N:           2,
		AllowRejoin: true,
	}
	heal := &detector.SupervisorConfig{CheckEvery: 8, Backoff: detector.Backoff{Base: 2, Max: 32}}
	res, err := RunCampaign(CampaignConfig{
		Cluster:  cluster,
		Schedule: sched,
		Heal:     heal,
		Horizon:  4000,
		Trials:   10,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	surv, err := res.Survived.Value()
	if err != nil {
		t.Fatal(err)
	}
	if surv < 0.5 {
		t.Fatalf("self-healing survival %v, want >= 0.5", surv)
	}
	if mean, _ := res.Restarts.Mean(); mean <= 0 {
		t.Fatalf("no restarts recorded (mean %v); supervisor idle?", mean)
	}
	if res.Faults.DroppedLoss == 0 {
		t.Fatal("GE loss never dropped anything")
	}
	// Without healing, the scripted crash winds the network down for good.
	bare, err := RunCampaign(CampaignConfig{
		Cluster:  cluster,
		Schedule: sched,
		Horizon:  4000,
		Trials:   10,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	bareSurv, err := bare.Survived.Value()
	if err != nil {
		t.Fatal(err)
	}
	if bareSurv >= surv {
		t.Fatalf("healing did not help: healed %v vs bare %v", surv, bareSurv)
	}
}

// TestCampaignWorkersDeterminism pins the parallel-trials contract: a
// campaign aggregates to the same result at any worker count, because
// each trial is seeded independently and outcomes are folded in trial
// order.
func TestCampaignWorkersDeterminism(t *testing.T) {
	sched := &faults.Schedule{Events: []faults.Event{
		{At: 50, Kind: faults.KindCrash, Node: 1},
	}}
	base := CampaignConfig{
		Cluster: detector.ClusterConfig{
			Protocol: detector.ProtocolStatic,
			Core:     core.Config{TMin: 2, TMax: 16},
			N:        2,
		},
		Schedule: sched,
		Horizon:  400,
		Trials:   8,
		Seed:     11,
		Workers:  1,
	}
	want, err := RunCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg := base
		cfg.Workers = workers
		got, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Survived != want.Survived ||
			got.Events.N() != want.Events.N() || got.Events.Sum() != want.Events.Sum() ||
			got.Faults != want.Faults ||
			got.ScheduleErrors != want.ScheduleErrors ||
			len(got.Incidents) != len(want.Incidents) {
			t.Fatalf("workers=%d diverged:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

func TestRunCampaignValidation(t *testing.T) {
	if _, err := RunCampaign(CampaignConfig{Cluster: binaryCluster(), Horizon: 10, Trials: 1}); err == nil {
		t.Fatal("campaign without a schedule accepted")
	}
	if _, err := RunCampaign(CampaignConfig{
		Cluster: binaryCluster(), Schedule: &faults.Schedule{}, Horizon: 0, Trials: 1,
	}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	// The binary family has one participant; a model of three would be
	// checked as a model of one.
	if _, err := RunCampaign(CampaignConfig{
		Schedule: &faults.Schedule{}, Horizon: 10, Trials: 1,
		Conform: &conform.CampaignCheck{Model: models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 3}},
	}); !errors.Is(err, conform.ErrUnsupported) {
		t.Fatalf("binary conformance at n=3: err = %v, want ErrUnsupported", err)
	}
}

// TestRunCampaignConformance attaches the model conformance checker to a
// crash campaign: the healthy detector conforms in every trial, and a
// deliberately defective one (late participant watchdog) is reported as a
// divergence — wiring proof that campaigns catch runtime/model drift.
func TestRunCampaignConformance(t *testing.T) {
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	sched := &faults.Schedule{Events: []faults.Event{
		{At: 9, Kind: faults.KindCrash, Node: 0},
	}}
	check := &conform.CampaignCheck{Model: model}
	res, err := RunCampaign(CampaignConfig{
		Cluster:  detector.ClusterConfig{}, // shape comes from the model
		Schedule: sched,
		Horizon:  30,
		Trials:   5,
		Seed:     3,
		Conform:  check,
	})
	if err != nil {
		t.Fatal(err)
	}
	if divs := divergences(res); len(divs) != 0 {
		t.Fatalf("healthy detector diverged: %v", divs[0])
	}

	wrap, err := conform.Mutation("expiry+1")
	if err != nil {
		t.Fatal(err)
	}
	res, err = RunCampaign(CampaignConfig{
		Cluster:  detector.ClusterConfig{WrapMachine: wrap},
		Schedule: sched,
		Horizon:  30,
		Trials:   5,
		Seed:     3,
		Conform:  check,
	})
	if err != nil {
		t.Fatal(err)
	}
	if divs := divergences(res); len(divs) != 5 {
		t.Fatalf("mutant divergences = %d, want one per trial", len(divs))
	}

	// Guard rails: supervisors and non-model faults are rejected.
	if _, err := RunCampaign(CampaignConfig{
		Schedule: sched, Horizon: 30, Trials: 1, Conform: check,
		Heal: &detector.SupervisorConfig{},
	}); err == nil {
		t.Fatal("conformance with a supervisor accepted")
	}
	if _, err := RunCampaign(CampaignConfig{
		Schedule: &faults.Schedule{Events: []faults.Event{
			{At: 1, Kind: faults.KindDrift, Node: 1, Num: 2, Den: 1},
		}},
		Horizon: 30, Trials: 1, Conform: check,
	}); err == nil {
		t.Fatal("conformance with a drift schedule accepted")
	}
}
