// Package scenario runs Monte-Carlo experiments on simulated heartbeat
// clusters: detection latency under crash injection, steady-state message
// overhead, and false-detection probability under message loss. These
// regenerate the quantitative trade-off the ICDCS'98 paper argues for —
// acceleration keeps the plain protocol's detection latency at a fraction
// of its message rate, and tolerates bursts of ~log2(tmax/tmin) losses
// where the plain protocol tolerates MissLimit.
package scenario

import (
	"errors"
	"fmt"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ErrScenario reports an invalid experiment configuration.
var ErrScenario = errors.New("scenario: invalid configuration")

// DetectionConfig parameterises a crash-detection latency experiment.
type DetectionConfig struct {
	// Cluster is the deployment under test (its Seed is re-derived per
	// trial).
	Cluster detector.ClusterConfig
	// CrashAt is the virtual time the victim crashes.
	CrashAt sim.Time
	// CrashJitter, when positive, offsets each trial's crash time by a
	// per-trial uniform draw from [0, CrashJitter), decorrelating the
	// crash from the protocol's round phase.
	CrashJitter sim.Time
	// Victim is the participant to crash (defaults to 1).
	Victim core.ProcID
	// Horizon bounds each trial.
	Horizon sim.Time
	// Trials is the number of independent runs.
	Trials int
	// Seed derives per-trial seeds.
	Seed int64
}

// DetectionResult summarises a detection experiment.
type DetectionResult struct {
	// Delays are crash-to-suspicion latencies in ticks, one per trial
	// that detected.
	Delays stats.Sample
	// Missed counts trials with no detection before the horizon.
	Missed int
	// Bound is the protocol's worst-case detection bound (plus one
	// round-trip for the crash-to-missed-beat offset).
	Bound core.Tick
}

// MeasureDetection crashes the victim in each trial and measures the time
// until the coordinator suspects it.
func MeasureDetection(cfg DetectionConfig) (*DetectionResult, error) {
	if cfg.Trials < 1 || cfg.Horizon <= cfg.CrashAt {
		return nil, fmt.Errorf("%w: need trials >= 1 and horizon > crash time", ErrScenario)
	}
	if cfg.Victim == 0 {
		cfg.Victim = 1
	}
	out := &DetectionResult{Bound: detectionBound(cfg.Cluster)}
	for trial := 0; trial < cfg.Trials; trial++ {
		cc := cfg.Cluster
		cc.Seed = cfg.Seed + int64(trial)
		c, err := detector.NewCluster(cc)
		if err != nil {
			return nil, err
		}
		if err := c.Start(); err != nil {
			return nil, err
		}
		crashAt := cfg.CrashAt
		if cfg.CrashJitter > 0 {
			crashAt += sim.Time(c.Net.Rand().Int63n(int64(cfg.CrashJitter)))
		}
		c.Sim.RunUntil(crashAt)
		victim, ok := c.Participants[cfg.Victim]
		if !ok {
			return nil, fmt.Errorf("%w: no participant %d", ErrScenario, cfg.Victim)
		}
		victim.Crash()
		c.Sim.RunUntil(cfg.Horizon)
		if ev, found := c.FirstEvent(netem.NodeID(core.CoordinatorID), detector.EventSuspect); found {
			out.Delays.Add(float64(ev.Time - core.Tick(crashAt)))
		} else {
			out.Missed++
		}
	}
	return out, nil
}

// detectionBound is the configured protocol's worst-case crash-to-suspicion
// latency: the coordinator's detection bound from the last beat it received,
// plus the offset from that beat to the crash (at most one tmin round trip;
// one tick for the plain baseline's zero-delay exchange).
func detectionBound(cc detector.ClusterConfig) core.Tick {
	if cc.Protocol == detector.ProtocolPlain {
		return cc.Plain.DetectionBound() + 1
	}
	return cc.Core.CoordinatorDetectionBound() + cc.Core.TMin
}

// OverheadConfig parameterises a steady-state message-rate experiment.
type OverheadConfig struct {
	Cluster detector.ClusterConfig
	// Duration is the fault-free observation window.
	Duration sim.Time
}

// OverheadResult summarises steady-state traffic.
type OverheadResult struct {
	// MessagesPerTick is the total send rate across all links.
	MessagesPerTick float64
	// Sent is the raw message count.
	Sent uint64
	// FalselyInactivated reports a protocol breakdown during the
	// fault-free window (should never happen without loss).
	FalselyInactivated bool
}

// MeasureOverhead runs the cluster fault-free and reports the message
// rate.
func MeasureOverhead(cfg OverheadConfig) (*OverheadResult, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("%w: need a positive duration", ErrScenario)
	}
	c, err := detector.NewCluster(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	c.Sim.RunUntil(cfg.Duration)
	st := c.Net.Stats()
	_, inactivated := c.FirstEvent(netem.NodeID(core.CoordinatorID), detector.EventInactivated)
	return &OverheadResult{
		MessagesPerTick:    float64(st.Total.Sent) / float64(cfg.Duration),
		Sent:               st.Total.Sent,
		FalselyInactivated: inactivated,
	}, nil
}

// PlainOverhead computes the baseline's message rate analytically for
// comparison: 2·n beats per period (each member exchange is a beat and a
// reply).
func PlainOverhead(n int, period core.Tick) float64 {
	return 2 * float64(n) / float64(period)
}

// ReliabilityConfig parameterises a false-detection experiment: the
// cluster runs fault-free but with lossy links; any non-voluntary
// inactivation is a false detection.
type ReliabilityConfig struct {
	Cluster detector.ClusterConfig
	// LossProb is the per-message loss probability applied to all links.
	LossProb float64
	// Horizon bounds each trial.
	Horizon sim.Time
	// Trials is the number of independent runs.
	Trials int
	// Seed derives per-trial seeds.
	Seed int64
}

// ReliabilityResult summarises false-detection frequency.
type ReliabilityResult struct {
	// FalseDetection counts trials where some process non-voluntarily
	// inactivated despite no crash.
	FalseDetection stats.Ratio
	// TimeToFalse samples the inactivation times of failing trials.
	TimeToFalse stats.Sample
}

// MeasureReliability runs fault-free trials under loss and counts
// breakdowns.
func MeasureReliability(cfg ReliabilityConfig) (*ReliabilityResult, error) {
	if cfg.Trials < 1 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("%w: need trials >= 1 and a positive horizon", ErrScenario)
	}
	out := &ReliabilityResult{}
	for trial := 0; trial < cfg.Trials; trial++ {
		cc := cfg.Cluster
		cc.Seed = cfg.Seed + int64(trial)
		cc.Link.LossProb = cfg.LossProb
		c, err := detector.NewCluster(cc)
		if err != nil {
			return nil, err
		}
		if err := c.Start(); err != nil {
			return nil, err
		}
		c.Sim.RunUntil(cfg.Horizon)
		failed := false
		for _, e := range c.Events {
			if e.Kind == detector.EventInactivated && !e.Voluntary {
				failed = true
				out.TimeToFalse.Add(float64(e.Time))
				break
			}
		}
		out.FalseDetection.Observe(failed)
	}
	return out, nil
}

// CampaignConfig parameterises a fault-campaign experiment: the cluster
// runs under a scripted fault schedule — optionally with a self-healing
// supervisor — and the outcome of each trial is recorded.
type CampaignConfig struct {
	// Cluster is the deployment under test (its Seed is re-derived per
	// trial; Faults and Heal are overridden by the fields below).
	Cluster detector.ClusterConfig
	// Schedule is the fault script applied to every trial.
	Schedule *faults.Schedule
	// Heal, if non-nil, runs each trial under a supervisor.
	Heal *detector.SupervisorConfig
	// Horizon bounds each trial.
	Horizon sim.Time
	// Trials is the number of independent runs.
	Trials int
	// Seed derives per-trial seeds.
	Seed int64
	// Conform, if non-nil, checks every trial online for inclusion in the
	// named model's LTS: a conform.StreamChecker rides the cluster as its
	// observer and advances the model frontier event by event, so a defect
	// surfaces the moment it happens, with bounded memory, not at trial
	// teardown. Unconfirmed divergences and R1–R3 violations land as
	// structured incidents in CampaignResult.Incidents, and — when Heal is
	// set — in the trial's events through its supervisor
	// (detector.EventIncident). The cluster's protocol shape (variant,
	// timing constants, N) is derived from Conform.Model, overriding the
	// corresponding Cluster fields, so runtime and model cannot drift
	// apart; the Cluster's Link and Seed knobs still apply. Requires a
	// model-expressible Schedule (conform.CheckSchedule).
	//
	// When Conform.Envelope is set the campaign is adaptive: the Cluster
	// must carry matching core.AdaptiveOptions (the envelopes are compared
	// field by field), traces are checked piecewise across the envelope's
	// per-level specifications, and confirmed divergences (envelope
	// retunes, by-design leave, rejoin and restart events) are tallied in
	// Retunes and ConfirmedDivergences, not reported as incidents. Heal
	// needs an Envelope: only the piecewise checker classifies supervisor
	// restarts as by-design.
	Conform *conform.CampaignCheck
	// Stream is ignored; it stays declared only until bench/ stops setting it.
	//
	//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
	Stream bool
	// Workers is the number of concurrent trials; values below 2 run on
	// the calling goroutine. Each trial owns its simulator and cluster and
	// derives its seed from Seed and the trial index alone, so the result
	// is identical at any worker count.
	//
	//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
	Workers int
}

// CampaignResult summarises a fault campaign.
type CampaignResult struct {
	// Survived counts trials whose coordinator is still active at the
	// horizon.
	Survived stats.Ratio
	// Restarts samples supervisor restarts per trial (all nodes summed).
	Restarts stats.Sample
	// Events samples liveness events per trial.
	Events stats.Sample
	// Faults aggregates the fault layer's counters across all trials.
	Faults faults.Stats
	// ScheduleErrors counts schedule events that failed at fire time
	// across all trials (see detector.Cluster.FaultErrors); nonzero
	// means part of the schedule never took effect.
	ScheduleErrors int
	// ConfirmedDivergences counts by-design divergences across all trials
	// of an adaptive campaign (leave handshakes, rejoins, stray beats).
	ConfirmedDivergences int
	// DegradedDivergences counts divergences tolerated while degraded:
	// after a saturated retune the runtime intentionally runs as a plain
	// heartbeat, off the accelerated model, until the next level change.
	DegradedDivergences int
	// Retunes counts model-confirmed envelope transitions across all
	// trials of an adaptive campaign.
	Retunes int
	// Saturations counts retunes that re-held the envelope ceiling — the
	// entries into degraded (plain-heartbeat) operation.
	Saturations int
	// Incidents aggregates the structured incidents of conformance-checked
	// trials (Conform set), in trial order: unconfirmed model divergences
	// (at most one per trial) and R1–R3 trace-monitor violations, each with
	// its event tail and blamed process.
	Incidents []*conform.Incident
}

// RunCampaign replays the schedule over Trials independent clusters.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.Trials < 1 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("%w: need trials >= 1 and a positive horizon", ErrScenario)
	}
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("%w: campaign needs a fault schedule", ErrScenario)
	}
	if cfg.Conform != nil {
		if cfg.Heal != nil && cfg.Conform.Envelope == nil {
			return nil, fmt.Errorf("%w: conformance checking without an envelope cannot model supervisor restarts", ErrScenario)
		}
		if err := conform.CheckSchedule(cfg.Schedule); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrScenario, err)
		}
		base, err := conform.ClusterFor(cfg.Conform.Model)
		if err != nil {
			return nil, err
		}
		cfg.Cluster.Protocol = base.Protocol
		cfg.Cluster.Core = base.Core
		cfg.Cluster.N = base.N
		if env := cfg.Conform.Envelope; env != nil {
			if err := env.Validate(); err != nil {
				return nil, err
			}
			ad := cfg.Cluster.Adaptive
			if ad == nil {
				return nil, fmt.Errorf("%w: envelope conformance needs an adaptive cluster", ErrScenario)
			}
			if ad.Envelope != env.Core() {
				return nil, fmt.Errorf("%w: cluster envelope %+v does not match model envelope %+v",
					ErrScenario, ad.Envelope, *env)
			}
			// A level that cannot be built fails the campaign before any
			// trial runs, not at the first retune that reaches it.
			for level := 0; level < env.Levels(); level++ {
				if _, err := cfg.Conform.SpecAt(level); err != nil {
					return nil, err
				}
			}
		} else if cfg.Cluster.Adaptive != nil {
			return nil, fmt.Errorf("%w: adaptive cluster needs Conform.Envelope", ErrScenario)
		}
	}
	type trialOutcome struct {
		survived    bool
		hasRestarts bool
		restarts    float64
		events      float64
		faults      faults.Stats
		schedErrs   int
		incidents   []*conform.Incident
		confirmed   int
		degraded    int
		retunes     int
		saturations int
	}
	// Trials write per-trial slots and are folded in trial order below, so
	// the result is the sequential loop's at any worker count (par.Do).
	outs := make([]trialOutcome, cfg.Trials)
	runTrial := func(_, trial int) error {
		cc := cfg.Cluster
		cc.Seed = cfg.Seed + int64(trial)
		// Vary the fault layer across trials while keeping the campaign
		// as a whole deterministic: trial 0 replays the schedule's own
		// seed exactly; later trials offset it. A zero schedule seed
		// already falls back to the per-trial cluster seed.
		sched := *cfg.Schedule
		if sched.Seed != 0 {
			sched.Seed += int64(trial)
		}
		cc.Faults = &sched
		cc.Heal = cfg.Heal
		var sc *conform.StreamChecker
		if cfg.Conform != nil {
			var err error
			sc, err = conform.NewStreamChecker(conform.StreamConfig{
				Check:   cfg.Conform,
				Horizon: core.Tick(cfg.Horizon),
			})
			if err != nil {
				return err
			}
			cc.Observe = sc
		}
		c, err := detector.NewCluster(cc)
		if err != nil {
			return err
		}
		if sc != nil && c.Supervisor != nil {
			sc.BindSupervisor(c.Supervisor)
		}
		if err := c.Start(); err != nil {
			return err
		}
		c.Sim.RunUntil(cfg.Horizon)
		c.Stop()
		o := &outs[trial]
		if sc != nil {
			sres, err := sc.Finish(c.Lost())
			if err != nil {
				return err
			}
			o.incidents = sres.Incidents
			o.confirmed = sres.Confirmed
			o.degraded = sres.Degraded
			o.retunes = sres.Retunes
			o.saturations = sres.Saturations
		}
		o.survived = c.Coordinator.Status() == core.StatusActive
		if c.Supervisor != nil {
			restarts := c.Supervisor.Restarts(c.Coordinator.ID())
			for _, n := range c.Participants {
				restarts += c.Supervisor.Restarts(n.ID())
			}
			o.hasRestarts, o.restarts = true, float64(restarts)
		}
		o.events = float64(len(c.Events))
		o.faults = c.Faults.Stats()
		o.schedErrs = len(c.FaultErrors())
		return nil
	}

	if _, err := par.Do(cfg.Trials, cfg.Workers, runTrial); err != nil {
		return nil, err
	}

	out := &CampaignResult{}
	for _, o := range outs {
		out.Incidents = append(out.Incidents, o.incidents...)
		out.Survived.Observe(o.survived)
		if o.hasRestarts {
			out.Restarts.Add(o.restarts)
		}
		out.Events.Add(o.events)
		out.Faults.Intercepted += o.faults.Intercepted
		out.Faults.DroppedMuted += o.faults.DroppedMuted
		out.Faults.DroppedPartition += o.faults.DroppedPartition
		out.Faults.DroppedLoss += o.faults.DroppedLoss
		out.Faults.Duplicated += o.faults.Duplicated
		out.Faults.Delayed += o.faults.Delayed
		out.Faults.Slowed += o.faults.Slowed
		out.Faults.SendErrors += o.faults.SendErrors
		out.ScheduleErrors += o.schedErrs
		out.ConfirmedDivergences += o.confirmed
		out.DegradedDivergences += o.degraded
		out.Retunes += o.retunes
		out.Saturations += o.saturations
	}
	return out, nil
}
