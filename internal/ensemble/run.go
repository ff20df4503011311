package ensemble

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/netem"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Protocol aliases detector.Protocol: the ensemble covers the same
// variant family the cluster assembler does.
type Protocol = detector.Protocol

// Protocol variants, re-exported for callers that only import ensemble.
const (
	ProtocolBinary    = detector.ProtocolBinary
	ProtocolStatic    = detector.ProtocolStatic
	ProtocolExpanding = detector.ProtocolExpanding
	ProtocolDynamic   = detector.ProtocolDynamic
)

// Config describes one Monte-Carlo campaign: Trials independent runs of
// one protocol configuration under one link model, with an optional
// crash injection (the Q2 detection workload) on top of the always-on
// false-detection bookkeeping (the Q3 reliability workload).
type Config struct {
	// Protocol selects the variant; ProtocolBinary forces N to 1.
	Protocol Protocol
	// Core carries tmin/tmax and the TwoPhase/Revised/Fixed variant flags.
	Core core.Config
	// N is the number of members (participants for joining protocols).
	N int
	// Link is the loss/delay model. MaxDelay must stay below TMin so
	// per-link in-flight traffic stays bounded (the papers' timing analyses
	// assume 2·delay < tmin anyway).
	Link netem.LinkConfig
	// Trials is the number of independent trials.
	Trials int
	// Seed is the campaign base seed; trial i uses Seed + i, matching
	// scenario.RunCampaign's per-trial seeding.
	Seed int64
	// Horizon is the per-trial simulated duration in ticks.
	Horizon sim.Time
	// Victim, when non-zero, is the member crashed at CrashAt plus a
	// uniform [0, CrashJitter) draw — scenario.MeasureDetection's shape.
	Victim      core.ProcID
	CrashAt     sim.Time
	CrashJitter sim.Time
	// Exact selects per-trial math/rand streams, verdict-identical to
	// the detector/scenario path (differential testing); the default
	// fast mode uses allocation-free splitmix64 counter streams.
	//
	//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
	Exact bool
	// Workers shards the trial space by contiguous blocks; results are
	// byte-identical at any worker count. 0 means 1.
	Workers int
	// Block is the trials-per-block claim unit (default 4096).
	Block int
	// Record keeps per-trial Outcomes (costs 40B/trial; differential
	// tests and small campaigns only).
	//
	//lint:allow unused-export oracle: the differential against scenario compares recorded per-trial values (differential_test.go)
	Record bool
}

// Outcome is one trial's verdict set.
type Outcome struct {
	// Suspected reports p[0] suspecting a member; SuspectAt is the tick
	// of the first suspicion.
	Suspected bool
	SuspectAt core.Tick
	// CrashedAt is the resolved crash tick (base + jitter); -1 when the
	// trial had no crash injection.
	CrashedAt core.Tick
	// False reports a non-voluntary inactivation anywhere; FalseAt is
	// the first one's tick.
	False   bool
	FalseAt core.Tick
	// Sent is the trial's total message count.
	Sent uint64
}

// Result aggregates a campaign. All aggregates are byte-identical for a
// given (Config minus Workers): block partials merge in block order and
// sketch merges are exact integer adds.
type Result struct {
	Trials int
	// Rounds is the total number of coordinator rounds processed — the
	// work unit behind the per-round throughput numbers.
	Rounds uint64
	// Sent is the total message count across trials.
	Sent uint64

	// Detection workload (Victim set): Detected counts trials whose
	// coordinator suspected after the crash was injected; Delay holds
	// suspicion_tick - crash_tick for those trials, with DelayQ the
	// unit-bucket quantile sketch over the same values.
	Detected int
	Missed   int
	Delay    stats.Welford
	DelayQ   *stats.QuantileSketch

	// Reliability workload: FalseTrials counts trials with any
	// non-voluntary inactivation; TimeToFalse/TimeToFalseQ aggregate the
	// first such tick.
	FalseTrials  int
	TimeToFalse  stats.Welford
	TimeToFalseQ *stats.QuantileSketch

	// CoordInactivated counts trials where p[0] itself inactivated —
	// MeasureOverhead's FalselyInactivated flag, per trial.
	CoordInactivated int

	// Outcomes holds per-trial verdicts when Config.Record is set.
	Outcomes []Outcome
}

// Validate checks cfg and returns the resolved copy (defaults applied).
func (cfg Config) validate() (Config, error) {
	switch cfg.Protocol {
	case ProtocolBinary:
		cfg.N = 1
	case ProtocolStatic, ProtocolExpanding, ProtocolDynamic:
	default:
		return cfg, fmt.Errorf("ensemble: unknown protocol %v", cfg.Protocol)
	}
	if err := cfg.Core.Validate(); err != nil {
		return cfg, err
	}
	if cfg.N < 1 {
		return cfg, fmt.Errorf("ensemble: n %d < 1", cfg.N)
	}
	if cfg.Link.LossProb < 0 || cfg.Link.LossProb > 1 {
		return cfg, fmt.Errorf("ensemble: loss probability %v out of [0,1]", cfg.Link.LossProb)
	}
	if cfg.Link.MinDelay < 0 || cfg.Link.MaxDelay < cfg.Link.MinDelay {
		return cfg, fmt.Errorf("ensemble: bad delay range [%d,%d]", cfg.Link.MinDelay, cfg.Link.MaxDelay)
	}
	if int64(cfg.Link.MaxDelay) >= int64(cfg.Core.TMin) {
		return cfg, fmt.Errorf("ensemble: MaxDelay %d must stay below TMin %d (bounded in-flight slots)",
			cfg.Link.MaxDelay, cfg.Core.TMin)
	}
	if cfg.Trials < 1 {
		return cfg, fmt.Errorf("ensemble: trials %d < 1", cfg.Trials)
	}
	if cfg.Horizon < 1 {
		return cfg, fmt.Errorf("ensemble: horizon %d < 1", cfg.Horizon)
	}
	if int64(cfg.Horizon) >= maxTick || int64(cfg.CrashAt)+int64(cfg.CrashJitter) >= maxTick {
		return cfg, fmt.Errorf("ensemble: ticks beyond %d overflow the packed event keys", maxTick)
	}
	if cfg.Victim != 0 {
		if cfg.Victim < 1 || int(cfg.Victim) > cfg.N {
			return cfg, fmt.Errorf("ensemble: victim %d out of members [1,%d]", cfg.Victim, cfg.N)
		}
		if cfg.CrashAt < 0 || cfg.CrashJitter < 0 {
			return cfg, fmt.Errorf("ensemble: negative crash time or jitter")
		}
	} else if cfg.CrashAt != 0 || cfg.CrashJitter != 0 {
		return cfg, fmt.Errorf("ensemble: crash time without a victim")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Block < 1 {
		cfg.Block = 4096
	}
	return cfg, nil
}

// blockResult is one contiguous trial block's partial aggregate. Floats
// (Welford partials) merge in block order; everything else is integer.
type blockResult struct {
	detected, missed int
	falsec           int
	coordInact       int
	sent             uint64
	rounds           uint64
	delay            stats.Welford
	ttf              stats.Welford
}

// sketchCap bounds per-worker sketch memory; wider ranges coarsen the
// buckets instead of growing them.
const sketchCap = 1 << 16

// newSketches builds the per-worker (delay, time-to-false) sketch pair
// for cfg. Unit-width buckets — exact integer quantiles — whenever the
// range fits sketchCap.
func newSketches(cfg Config) (delay, ttf *stats.QuantileSketch) {
	delayHi := int64(cfg.Core.CoordinatorDetectionBound()) + int64(cfg.Core.TMax) + 2*int64(cfg.Link.MaxDelay) + 2
	delay, _ = stats.NewQuantileSketch(0, float64(delayHi), int(min(delayHi, sketchCap)))
	ttfHi := int64(cfg.Horizon) + 1
	ttf, _ = stats.NewQuantileSketch(0, float64(ttfHi), int(min(ttfHi, sketchCap)))
	return delay, ttf
}

// collect folds the finished block into out and the worker's sketches,
// in ascending trial order.
func (e *engine) collect(out *blockResult, delayQ, ttfQ *stats.QuantileSketch, outcomes []Outcome) {
	for t := 0; t < e.trials; t++ {
		out.sent += e.sent[t]
		out.rounds += e.rounds[t]
		if e.tflags[t]&tfCoordInactive != 0 {
			out.coordInact++
		}
		suspected := e.suspectAt[t] != inert
		if e.crashTick[t] != inert {
			if suspected {
				out.detected++
				d := float64(e.suspectAt[t] - e.crashTick[t])
				out.delay.Add(d)
				delayQ.Add(d)
			} else {
				out.missed++
			}
		}
		failed := e.falseAt[t] != inert
		if failed {
			out.falsec++
			v := float64(e.falseAt[t])
			out.ttf.Add(v)
			ttfQ.Add(v)
		}
		if outcomes != nil {
			outcomes[e.first+t] = Outcome{
				Suspected: suspected,
				SuspectAt: core.Tick(e.suspectAt[t]),
				CrashedAt: core.Tick(e.crashTick[t]),
				False:     failed,
				FalseAt:   core.Tick(e.falseAt[t]),
				Sent:      e.sent[t],
			}
		}
	}
}

// Run executes the campaign: par.Do fans contiguous trial blocks out over
// the workers, each of which runs its blocks' trials to their horizon on a
// private engine (built on its first block) and parks partial aggregates
// in per-block slots; afterwards the partials merge in block order. The
// aggregate is byte-identical at any worker count.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	nBlocks := (cfg.Trials + cfg.Block - 1) / cfg.Block
	blocks := make([]blockResult, nBlocks)
	// Per-worker state, indexed by par.Do's worker id and so never shared.
	type worker struct {
		eng          *engine
		delayQ, ttfQ *stats.QuantileSketch
	}
	ws := make([]worker, min(cfg.Workers, nBlocks))
	var outcomes []Outcome
	if cfg.Record {
		outcomes = make([]Outcome, cfg.Trials)
	}
	// A block fails only when a trial outruns the per-trial event limit.
	_, err = par.Do(nBlocks, len(ws), func(w, b int) (err error) {
		defer func() {
			if r := recover(); r == errSeqOverflow {
				err = errSeqOverflow
			} else if r != nil {
				panic(r)
			}
		}()
		wk := &ws[w]
		if wk.eng == nil {
			// No block holds more than Trials trials.
			wk.eng = newEngine(cfg, min(cfg.Block, cfg.Trials))
			wk.delayQ, wk.ttfQ = newSketches(cfg)
		}
		lo := b * cfg.Block
		hi := min(lo+cfg.Block, cfg.Trials)
		wk.eng.runBlock(lo, hi-lo)
		wk.eng.collect(&blocks[b], wk.delayQ, wk.ttfQ, outcomes)
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Trials: cfg.Trials, Outcomes: outcomes}
	res.DelayQ, res.TimeToFalseQ = newSketches(cfg)
	for b := range blocks {
		res.Sent += blocks[b].sent
		res.Rounds += blocks[b].rounds
		res.Detected += blocks[b].detected
		res.Missed += blocks[b].missed
		res.FalseTrials += blocks[b].falsec
		res.CoordInactivated += blocks[b].coordInact
		res.Delay.Merge(blocks[b].delay)
		res.TimeToFalse.Merge(blocks[b].ttf)
	}
	// A worker that never won a block has nil sketches, which merge as empty.
	for _, wk := range ws {
		if err := res.DelayQ.Merge(wk.delayQ); err != nil {
			return nil, err
		}
		if err := res.TimeToFalseQ.Merge(wk.ttfQ); err != nil {
			return nil, err
		}
	}
	return res, nil
}
