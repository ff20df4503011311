// Package fleet runs thousands of independent accelerated-heartbeat
// clusters in one process.
//
// A detector.Cluster wires a handful of nodes 1:1 to goroutines and
// transports; a Fleet splits machine identity from transport endpoint and
// keeps every monitored endpoint as a row in a struct-of-arrays store,
// sharded across independent event loops, each driven by a calendar ring:
// one slot per tick, since every delay a shard schedules is bounded
// (sim.Calendar, the ring the Simulator's queue runs on too). Liveness
// rolls up a tree: leaf clusters report per-epoch summaries to aggregator
// subtrees hosted on other shards through a batched wire codec, and
// aggregators merge into a fleet-wide root summary at every barrier.
//
// Determinism: each shard owns a private RNG and calendar, consumed in
// the shard's own event order; cross-shard traffic moves only at epoch
// barriers, in per-(source, destination) buffers ingested in source
// order. Worker goroutines claim whole shards, so the worker count
// changes nothing — Digest() is byte-identical at any Workers value
// (pinned by TestFleetDigestIdenticalAcrossWorkers).
package fleet

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/par"
	"repro/internal/sim"
)

// Config sizes and parameterises a fleet.
type Config struct {
	// Clusters is the number of leaf heartbeat clusters.
	Clusters int
	// ClusterSize is the number of monitored endpoints (members) per
	// cluster; total endpoints = Clusters * ClusterSize.
	ClusterSize int
	// Shards is the number of independent event loops (default 64;
	// clamped to Clusters). The shard count is part of the deterministic
	// result — change it and traces legitimately change, unlike Workers.
	Shards int
	// Workers is the number of goroutines driving shards (default 1).
	// Results are byte-identical at any value.
	Workers int
	// Core carries tmin/tmax and the protocol variant switches.
	Core core.Config
	// LinkDelay is the one-way beat/reply latency in ticks (default 1).
	// Together with Core.TMax it sizes the detection-latency histogram,
	// which is capped at MaxLatencyBuckets.
	LinkDelay sim.Time
	// LossProb is the independent per-message loss probability, in [0, 1].
	LossProb float64
	// KillEvery, if positive, crashes one random live endpoint per shard
	// every KillEvery ticks — the detection-latency workload. At most
	// faults.MaxTicks, like every scheduled time.
	KillEvery sim.Time
	// Epoch is the rollup barrier period in ticks (default 2*TMax; at most
	// faults.MaxTicks).
	Epoch sim.Time
	// AggFanout is the number of leaf clusters per aggregator subtree
	// (default 64).
	AggFanout int
	// Seed derives every shard's RNG stream.
	Seed int64
}

// Fleet is a running multiplexed detector fleet.
type Fleet struct {
	cfg     Config
	shards  []*shard
	numAggs int
	epoch   uint32
	clock   sim.Time
	root    core.Summary
	// stepShard and ingestShard are the two halves of an epoch as par.Do
	// units over the shard index, reading the epoch in progress from the
	// fields above. They are built once, in New, so that an epoch creates
	// no closure (TestFleetSteadyStateAllocFree).
	stepShard, ingestShard func(worker, i int) error
}

// MaxLatencyBuckets caps the per-shard detection-latency histogram, which
// has one bucket per tick up to the worst-case detection latency (a few
// TMax plus the wire): 2^16 buckets are 256 KiB a shard. Every waiting
// time — at most TMax — therefore also fits the int32 rows with room to
// spare.
const MaxLatencyBuckets = 1 << 16

// New builds a fleet at virtual time 0; defaults are filled in place. Zero
// selects a field's documented default; values outside a field's range are
// errors, never read as "unset".
func New(cfg Config) (*Fleet, error) {
	if cfg.Clusters <= 0 || cfg.ClusterSize <= 0 {
		return nil, fmt.Errorf("fleet: need positive Clusters and ClusterSize")
	}
	// Written positively so that NaN, which compares false, is rejected.
	if !(cfg.LossProb >= 0 && cfg.LossProb <= 1) {
		return nil, fmt.Errorf("fleet: loss probability %v out of [0,1]", cfg.LossProb)
	}
	for _, t := range []struct {
		name string
		v    sim.Time
	}{{"KillEvery", cfg.KillEvery}, {"LinkDelay", cfg.LinkDelay}, {"Epoch", cfg.Epoch}} {
		if t.v < 0 || t.v > faults.MaxTicks {
			return nil, fmt.Errorf("fleet: %s %d outside [0, %d] ticks", t.name, t.v, int64(faults.MaxTicks))
		}
	}
	if cfg.Core.TMax == 0 {
		cfg.Core = core.Config{TMin: 2, TMax: 16}
	}
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	cfg.Shards = min(cfg.Shards, cfg.Clusters)
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.LinkDelay == 0 {
		cfg.LinkDelay = 1
	}
	// Detection latency cannot exceed the corrected coordinator bound
	// plus one round and the wire; everything past that is an overflow
	// bucket (asserted empty under loss-free runs). The terms are checked
	// one by one first, so the sum cannot overflow.
	latCap := MaxLatencyBuckets + 1
	if cfg.Core.TMax <= MaxLatencyBuckets && cfg.LinkDelay <= MaxLatencyBuckets {
		latCap = int(cfg.Core.CoordinatorDetectionBound()) + int(cfg.Core.TMax) + 2*int(cfg.LinkDelay) + 1
	}
	if latCap > MaxLatencyBuckets {
		return nil, fmt.Errorf("fleet: tmax %d with link delay %d needs more than %d latency buckets",
			cfg.Core.TMax, cfg.LinkDelay, MaxLatencyBuckets)
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 2 * sim.Time(cfg.Core.TMax)
	}
	if cfg.AggFanout <= 0 {
		cfg.AggFanout = 64
	}
	if cfg.Clusters > 1<<20 || cfg.ClusterSize > 1<<16 {
		return nil, fmt.Errorf("fleet: %d x %d exceeds supported scale", cfg.Clusters, cfg.ClusterSize)
	}

	numAggs := (cfg.Clusters + cfg.AggFanout - 1) / cfg.AggFanout
	f := &Fleet{cfg: cfg, numAggs: numAggs}
	perShard := (cfg.Clusters + cfg.Shards - 1) / cfg.Shards
	respBound := sim.Time(cfg.Core.ResponderBound())
	tmax := sim.Time(cfg.Core.TMax)
	// The longest delay New or a round schedules is a watchdog's: the
	// initial stagger (< tmax), the wire and the responder bound.
	maxDelay := tmax - 1 + cfg.LinkDelay + respBound

	for id := 0; id < cfg.Shards; id++ {
		lo := min(id*perShard, cfg.Clusters)
		hi := min(lo+perShard, cfg.Clusters)
		nCl := hi - lo
		nEp := nCl * cfg.ClusterSize
		s := &shard{
			id:          id,
			numShards:   cfg.Shards,
			aggFanout:   uint32(cfg.AggFanout),
			cal:         sim.NewCalendar(maxDelay),
			rng:         rand.New(rand.NewSource(cfg.Seed + int64(id)*0x9E3779B9)),
			cfg:         cfg.Core,
			respBound:   respBound,
			linkDelay:   cfg.LinkDelay,
			lossProb:    cfg.LossProb,
			killEvery:   cfg.KillEvery,
			clusterSize: int32(cfg.ClusterSize),
			clusterLo:   int32(lo),
			wait:        make([]int32, nEp),
			flags:       make([]uint8, nEp),
			watch:       make([]int32, nEp),
			killAt:      make([]int64, nEp),
			clAlive:     make([]int32, nCl),
			clDet:       make([]uint32, nCl),
			heard:       make([]uint32, cfg.Shards),
			outbuf:      make([][]byte, cfg.Shards),
			latHist:     make([]uint32, latCap),
		}
		for cl := 0; cl < nCl; cl++ {
			s.clAlive[cl] = int32(cfg.ClusterSize)
		}
		for e := 0; e < nEp; e++ {
			// Stagger round phases across the tmax window so load spreads
			// over ticks instead of spiking; the stagger is a pure
			// function of the global row, so it is layout-deterministic.
			g := lo*cfg.ClusterSize + e
			stagger := sim.Time(g) % tmax
			s.wait[e] = int32(tmax)
			s.schedule(stagger+tmax, kRound<<kindShift|uint32(e))
			s.watch[e] = s.schedule(stagger+cfg.LinkDelay+respBound, kWatch<<kindShift|uint32(e))
		}
		if cfg.KillEvery > 0 && nEp > 0 {
			if cfg.KillEvery >= s.cal.Size() {
				s.nextKill = cfg.KillEvery
			} else {
				s.schedule(cfg.KillEvery, kKill<<kindShift)
			}
		}
		f.shards = append(f.shards, s)
	}
	// Aggregator a lives on shard a mod Shards, at local index a div
	// Shards; summary ids follow the cluster id space.
	for a := 0; a < numAggs; a++ {
		host := f.shards[a%cfg.Shards]
		lo := a * cfg.AggFanout
		hi := min(lo+cfg.AggFanout, cfg.Clusters)
		host.aggs = append(host.aggs, aggregator{
			id:       uint32(cfg.Clusters + a),
			children: hi - lo,
		})
	}
	f.stepShard = func(_, i int) error {
		f.shards[i].runUntil(f.clock + f.cfg.Epoch)
		f.shards[i].emitSummaries(f.epoch)
		return nil
	}
	f.ingestShard = func(_, i int) error { return f.shards[i].ingest(f.shards, f.epoch) }
	return f, nil
}

// Now returns the fleet's virtual clock (the last completed barrier).
func (f *Fleet) Now() sim.Time { return f.clock }

// Root returns the fleet-wide rollup from the most recent barrier.
func (f *Fleet) Root() core.Summary { return f.root }

// Endpoints returns the monitored endpoint count.
func (f *Fleet) Endpoints() int { return f.cfg.Clusters * f.cfg.ClusterSize }

// RunEpochs advances the fleet n epochs: each shard runs its slice of
// virtual time independently, then a barrier exchanges the batched
// cross-shard buffers and rolls summaries up to the root. Shards are
// disjoint and each half is one par.Do over them, so the worker count is
// unobservable — including which shard's ingest error is returned.
func (f *Fleet) RunEpochs(n int) error {
	for i := 0; i < n; i++ {
		f.epoch++
		par.Do(len(f.shards), f.cfg.Workers, f.stepShard) // stepShard never fails
		f.clock += f.cfg.Epoch
		if _, err := par.Do(len(f.shards), f.cfg.Workers, f.ingestShard); err != nil {
			return err
		}
		f.rollup(f.epoch)
	}
	return nil
}

// rollup merges every aggregator into the root summary, in global
// aggregator order (serial — the tree's top level is tiny).
func (f *Fleet) rollup(epoch uint32) {
	root := core.Summary{
		Cluster: uint32(f.cfg.Clusters + f.numAggs),
		Epoch:   epoch,
	}
	for a := 0; a < f.numAggs; a++ {
		host := f.shards[a%f.cfg.Shards]
		ag := &host.aggs[a/f.cfg.Shards]
		if ag.seen < ag.children {
			ag.stale += uint64(ag.children - ag.seen)
		}
		root.Add(ag.sum)
	}
	f.root = root
}

// Stats is the fleet-wide counter roll-up.
type Stats struct {
	Endpoints int
	Clusters  int
	Epochs    uint32
	// Beats counts protocol rounds closed (one beat evaluated per round).
	Beats   uint64
	Replies uint64
	Losses  uint64
	// Kills/Detections/FalseSuspects/Inactivations follow the injector
	// and the protocol's verdicts.
	Kills         uint64
	Detections    uint64
	FalseSuspects uint64
	Inactivations uint64
	// MissedDeadlines counts events a shard could not file in its calendar
	// ring, due at or before the tick being drained or a whole ring or more
	// past it (always 0; asserted by the CI smoke run).
	MissedDeadlines uint64
	// StaleChildren counts aggregator children missing at a barrier.
	StaleChildren uint64
	// SilentLinks counts (src,dst) shard pairs whose liveness beat did
	// not arrive in the most recent barrier (always 0).
	SilentLinks uint64
	// LatencyOverflow counts detections past the histogram cap (0 unless
	// loss delays detection past the corrected bound).
	LatencyOverflow uint64
	// Root is the fleet-wide liveness summary at the last barrier.
	Root core.Summary
}

// Stats merges every shard's counters.
func (f *Fleet) Stats() Stats {
	st := Stats{
		Endpoints: f.Endpoints(),
		Clusters:  f.cfg.Clusters,
		Epochs:    f.epoch,
		Root:      f.root,
	}
	for _, s := range f.shards {
		st.Beats += s.beats
		st.Replies += s.replies
		st.Losses += s.losses
		st.Kills += s.kills
		st.Detections += s.detections
		st.FalseSuspects += s.falseSuspects
		st.Inactivations += s.inactivations
		st.MissedDeadlines += s.missedDeadlines
		st.LatencyOverflow += s.latOverflow
		for _, ag := range s.aggs {
			st.StaleChildren += ag.stale
		}
		if f.epoch > 0 {
			for _, ep := range s.heard {
				if ep != f.epoch {
					st.SilentLinks++
				}
			}
		}
	}
	return st
}

// DetectionLatency merges the shards' histograms and returns the p50 and
// p99 detection latencies in ticks, plus the sample count. With no
// detections it returns zeros.
func (f *Fleet) DetectionLatency() (p50, p99 sim.Time, samples uint64) {
	var merged []uint64
	for _, s := range f.shards {
		if merged == nil {
			merged = make([]uint64, len(s.latHist))
		}
		for i, c := range s.latHist {
			merged[i] += uint64(c)
			samples += uint64(c)
		}
	}
	if samples == 0 {
		return 0, 0, 0
	}
	pick := func(q float64) sim.Time {
		target := uint64(q * float64(samples-1))
		var cum uint64
		for i, c := range merged {
			cum += c
			if cum > target {
				return sim.Time(i)
			}
		}
		return sim.Time(len(merged) - 1)
	}
	return pick(0.50), pick(0.99), samples
}

// Digest folds every shard's protocol state and counters into one FNV-1a
// hash, in shard order. Two runs with the same Config (Workers aside)
// must produce the same digest — the determinism pin for the fleet.
//
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (f *Fleet) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime64
			v >>= 8
		}
	}
	for _, s := range f.shards {
		for _, w := range s.wait {
			mix(uint64(uint32(w)))
		}
		for _, fl := range s.flags {
			mix(uint64(fl))
		}
		for _, k := range s.killAt {
			mix(uint64(k))
		}
		for _, a := range s.clAlive {
			mix(uint64(uint32(a)))
		}
		mix(s.beats)
		mix(s.replies)
		mix(s.losses)
		mix(s.kills)
		mix(s.detections)
		mix(s.falseSuspects)
		mix(s.inactivations)
		mix(s.missedDeadlines)
		for _, c := range s.latHist {
			mix(uint64(c))
		}
	}
	mix(uint64(f.root.Total)<<32 | uint64(f.root.Alive))
	mix(uint64(f.root.Detections))
	mix(uint64(f.epoch))
	return h
}
