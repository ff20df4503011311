package conform

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/netem"
	"repro/internal/par"
	"repro/internal/sim"
)

// ExploreConfig drives a seeded random-walk conformance campaign for one
// variant: many short deterministic runs with randomised timing
// constants, node counts, link delays and fault schedules, each checked
// online for trace inclusion plus R1–R3 verdict consistency.
type ExploreConfig struct {
	Variant models.Variant
	// Walks is the number of runs (default 100).
	Walks int
	// Seed makes the whole campaign deterministic: walk w derives its
	// parameters from Seed and w alone.
	Seed int64
	// MaxStates bounds each specification LTS (0: mc's default).
	MaxStates int
	// Shrink minimises failing runs (drop schedule events, trim horizon,
	// zero link delay) before reporting.
	Shrink bool
	// Verify overrides the model-checking backend that cross-checks each
	// runtime violation; nil uses models.Verify, cached per (config,
	// property). With Workers above one, a custom Verify is serialised
	// behind a mutex. An error from it fails the campaign.
	//
	//lint:allow unused-export test fake: explore_test.go stands in a failing backend to prove a model-check error fails the campaign
	Verify VerifyFunc
	// Workers is the number of concurrent walks; values below 2 run the
	// campaign on the calling goroutine. The result is identical at any
	// worker count: each walk derives its parameters from Seed and its
	// index alone, and outcomes are aggregated in walk order.
	Workers int
}

// WalkFailure is one non-conforming walk.
type WalkFailure struct {
	Walk int
	Run  RunConfig
	// Div is the trace divergence (nil for pure verdict mismatches). When
	// shrinking was on and succeeded, Div.Shrunk is the minimised
	// reproduction and Div.ShrunkDiv its divergence.
	Div *Incident
	// Mismatches are the violation incidents of properties the model
	// checker proves satisfied, in R1, R2, R3 order, then trace order.
	Mismatches []*Incident
}

// ExploreResult summarises a campaign.
type ExploreResult struct {
	Variant models.Variant
	Walks   int
	// Clean counts fully conforming walks.
	Clean int
	// Events counts checked events across all walks.
	Events int
	// ConsistentViolations counts runtime requirement violations that the
	// model checker confirms are possible in the model too — expected for
	// unfixed configurations, and evidence the verdict monitors fire.
	ConsistentViolations int
	Failures             []WalkFailure
}

// walkOutcome is one walk's contribution to the campaign result.
type walkOutcome struct {
	clean      bool
	events     int
	consistent int
	fail       *WalkFailure
}

// Explore runs the campaign. It returns an error only for infrastructure
// failures (spec construction, broken schedules); non-conformance lands
// in the result's Failures.
func (ec ExploreConfig) Explore() (*ExploreResult, error) {
	walks := ec.Walks
	if walks <= 0 {
		walks = 100
	}
	opts := mc.Options{MaxStates: ec.MaxStates}
	// Walks share one CampaignCheck (so one Spec) per model config and one
	// model-checking run per (config, property), whichever walk asks first.
	var checks par.Memo[models.Config, *CampaignCheck]
	newCheck := func(cfg models.Config) (*CampaignCheck, error) {
		return &CampaignCheck{Model: cfg, Opts: opts}, nil
	}
	verify := ec.Verify
	switch {
	case verify == nil:
		type vkey struct {
			cfg  models.Config
			prop models.Property
		}
		var verdicts par.Memo[vkey, models.Verdict]
		verify = func(cfg models.Config, p models.Property) (models.Verdict, error) {
			return verdicts.Get(vkey{cfg, p}, func(k vkey) (models.Verdict, error) {
				return models.Verify(k.cfg, k.prop, opts)
			})
		}
	case ec.Workers > 1:
		// A caller-supplied backend makes no thread-safety promise.
		var mu sync.Mutex
		inner := verify
		verify = func(cfg models.Config, p models.Property) (models.Verdict, error) {
			mu.Lock()
			defer mu.Unlock()
			return inner(cfg, p)
		}
	}

	// Walks write per-walk slots and are folded in walk order below, so the
	// result is the sequential loop's at any worker count (par.Do).
	outs := make([]walkOutcome, walks)
	runWalk := func(_, w int) error {
		rng := rand.New(rand.NewSource(ec.Seed + int64(w)*0x9e3779b97f4a7c))
		rc := walkRun(ec.Variant, rng)
		check, _ := checks.Get(rc.Model, newCheck) // newCheck cannot fail
		// The checker keeps a violation it could not verify as an
		// unverified incident; a campaign fails on the first such error.
		var verifyErr error
		res, err := RunStream(rc, StreamConfig{
			Check: check,
			Verify: func(cfg models.Config, p models.Property) (models.Verdict, error) {
				v, err := verify(cfg, p)
				if err != nil && verifyErr == nil {
					verifyErr = err
				}
				return v, err
			},
		})
		if err == nil {
			err = verifyErr
		}
		if err != nil {
			return fmt.Errorf("conform: walk %d: %w", w, err)
		}
		o := &outs[w]
		o.events = res.Events
		var mismatches []*Incident
		for _, inc := range res.Incidents {
			switch {
			case inc.Kind != IncidentViolation:
			case inc.ModelAgrees:
				o.consistent++
			default:
				mismatches = append(mismatches, inc)
			}
		}
		div := res.Unconfirmed
		if div == nil && len(mismatches) == 0 {
			o.clean = true
			return nil
		}
		slices.SortStableFunc(mismatches, func(a, b *Incident) int { return int(a.Prop) - int(b.Prop) })
		o.fail = &WalkFailure{Walk: w, Run: rc, Div: div, Mismatches: mismatches}
		if ec.Shrink && div != nil {
			if shrunk, sdiv, err := ShrinkRun(rc, check); err == nil {
				div.Shrunk, div.ShrunkDiv = &shrunk, sdiv
			}
		}
		return nil
	}
	if _, err := par.Do(walks, ec.Workers, runWalk); err != nil {
		return nil, err
	}

	res := &ExploreResult{Variant: ec.Variant, Walks: walks}
	for _, o := range outs {
		res.Events += o.events
		res.ConsistentViolations += o.consistent
		if o.clean {
			res.Clean++
		}
		if o.fail != nil {
			res.Failures = append(res.Failures, *o.fail)
		}
	}
	return res, nil
}

// walkTimings are the (tmin, tmax) pairs walks draw from: small enough to
// keep specification LTSes cheap, varied enough to exercise the timing
// boundaries.
var walkTimings = [...][2]int32{{1, 1}, {1, 2}, {1, 3}, {2, 2}, {2, 3}, {2, 4}}

// walkRun derives one run's parameters from the walk's rng.
func walkRun(variant models.Variant, rng *rand.Rand) RunConfig {
	tm := walkTimings[rng.Intn(len(walkTimings))]
	n := 1
	// Two participants only for the static variant: its N=2 spec stays
	// around 3·10^4 states at (2,4) (1.6·10^5 in the network), while the
	// expanding/dynamic join machinery pushes the N=2 network into the
	// tens of millions.
	// Static N=2 covers multi-participant interleaving; the join protocol
	// is exercised at N=1.
	if variant == models.Static {
		n = 1 + rng.Intn(2)
	}
	fixed := rng.Intn(2) == 0
	// Random link delay only under the fixed semantics: there both the
	// runtime (timer requeue) and the model (receive priority) order
	// same-instant deliveries before timeouts. Unfixed, FIFO scheduling
	// can resolve that race differently than the model's busy-dropping
	// capacity-one channel — a known modelling gap, not a detector bug.
	var maxDelay core.Tick
	if fixed && tm[0] >= 2 && rng.Intn(2) == 0 {
		maxDelay = core.Tick(tm[0] / 2)
	}
	horizon := core.Tick(6*int(tm[1]) + rng.Intn(8))
	return RunConfig{
		Model: models.Config{
			TMin: tm[0], TMax: tm[1],
			Variant: variant, N: n, Fixed: fixed,
		},
		Seed:     rng.Int63(),
		Horizon:  horizon,
		MaxDelay: maxDelay,
		Schedule: walkSchedule(rng, n, horizon),
	}
}

// walkSchedule draws 0–2 model-compatible fault events.
func walkSchedule(rng *rand.Rand, n int, horizon core.Tick) *faults.Schedule {
	num := rng.Intn(3)
	if num == 0 {
		return nil
	}
	s := &faults.Schedule{Seed: rng.Int63()}
	for k := 0; k < num; k++ {
		at := sim.Time(rng.Intn(int(horizon)))
		switch rng.Intn(4) {
		case 0:
			s.Events = append(s.Events, faults.Event{
				At: at, Kind: faults.KindCrash, Node: netem.NodeID(rng.Intn(n + 1)),
			})
		case 1:
			ge := faults.GilbertElliott{
				PGoodBad: 0.2 + 0.3*rng.Float64(),
				PBadGood: 0.3 + 0.5*rng.Float64(),
				LossGood: 0,
				LossBad:  0.5 + 0.5*rng.Float64(),
			}
			s.Events = append(s.Events, faults.Event{
				At: at, Kind: faults.KindLoss, AllLinks: true, GE: &ge,
			})
		case 2:
			p := netem.NodeID(1 + rng.Intn(n))
			from, to := netem.NodeID(0), p
			if rng.Intn(2) == 0 {
				from, to = p, netem.NodeID(0)
			}
			s.Events = append(s.Events,
				faults.Event{At: at, Kind: faults.KindLinkDown, From: from, To: to},
				faults.Event{At: at + sim.Time(1+rng.Intn(6)), Kind: faults.KindLinkUp, From: from, To: to},
			)
		default:
			node := netem.NodeID(rng.Intn(n + 1))
			s.Events = append(s.Events,
				faults.Event{At: at, Kind: faults.KindPartition, Node: node},
				faults.Event{At: at + sim.Time(1+rng.Intn(6)), Kind: faults.KindHeal, Node: node},
			)
		}
	}
	return s
}

// ShrinkRun minimises a failing run while it keeps diverging from check's
// specification: greedily drop schedule events, then trim the horizon to
// just past the divergence, then zero the link delay. Runs are
// deterministic, so every candidate is simply re-run through RunStream.
func ShrinkRun(rc RunConfig, check *CampaignCheck) (RunConfig, *Incident, error) {
	fails := func(c RunConfig) *Incident {
		res, err := RunStream(c, StreamConfig{Check: check})
		if err != nil {
			return nil
		}
		return res.Unconfirmed
	}
	best := rc
	div := fails(best)
	if div == nil {
		return rc, nil, fmt.Errorf("conform: shrink: run no longer diverges")
	}
	for changed := true; changed; {
		changed = false
		if best.Schedule == nil {
			break
		}
		for i := range best.Schedule.Events {
			cand := best
			if len(best.Schedule.Events) == 1 {
				cand.Schedule = nil
			} else {
				sched := *best.Schedule
				sched.Events = slices.Delete(slices.Clone(best.Schedule.Events), i, i+1)
				cand.Schedule = &sched
			}
			if d := fails(cand); d != nil {
				best, div, changed = cand, d, true
				break
			}
		}
	}
	if div.Time+1 < best.Horizon {
		cand := best
		cand.Horizon = div.Time + 1
		if d := fails(cand); d != nil {
			best, div = cand, d
		}
	}
	if best.MaxDelay > 0 {
		cand := best
		cand.MaxDelay = 0
		if d := fails(cand); d != nil {
			best, div = cand, d
		}
	}
	return best, div, nil
}
