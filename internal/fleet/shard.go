package fleet

// One shard of the fleet: a slice of the endpoint population driven by a
// private calendar ring (sim.Calendar), a private RNG, and nothing else —
// shards share no mutable state during an epoch, which is what makes fleet
// runs byte-identical at any worker count (see fleet.go).
//
// Machine identity is split from transport: a monitored endpoint is not a
// goroutine with a socket but a row across parallel arrays (wait, flags,
// watch, killAt), and every protocol action is a handful of array reads
// and a word appended to the ring. The hot path is allocation-free at
// steady state and pinned by TestFleetSteadyStateAllocFree.

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/sim"
)

// Calendar words carry the event kind in the top bits and the endpoint's
// local row index in the rest.
const (
	kindShift = 29
	idxMask   = 1<<kindShift - 1
)

const (
	kRound uint32 = iota // close member e's protocol round
	kWatch               // member e's responder watchdog expires, unless re-armed since
	kKill                // shard-level fault injector tick
)

// Endpoint flag bits.
const (
	fKilled    uint8 = 1 << iota // fault injector crashed the endpoint
	fSuspected                   // coordinator declared it down
	fInactive                    // its responder watchdog self-inactivated it
)

// shard owns a contiguous block of clusters and all their member rows.
type shard struct {
	id        int
	numShards int
	aggFanout uint32
	cal       sim.Calendar
	rng       *rand.Rand
	now       sim.Time // the tick being drained, or the last one drained
	// nextKill is the injector's next tick when KillEvery is at least the
	// ring size, 0 when its word goes into the ring like any other.
	nextKill sim.Time

	cfg         core.Config
	respBound   sim.Time
	linkDelay   sim.Time
	lossProb    float64
	killEvery   sim.Time
	clusterSize int32
	clusterLo   int32 // global id of this shard's first cluster

	// Endpoint rows, struct-of-arrays; the row's cluster is row/clusterSize.
	wait   []int32 // coordinator's current waiting time for the member
	flags  []uint8 // fKilled | fSuspected | fInactive
	watch  []int32 // calendar position of the member's armed watchdog word, -1 = none
	killAt []int64 // injection time, 0 = never killed

	// Per-cluster rollup state.
	clAlive []int32
	clDet   []uint32

	// Aggregators hosted on this shard (global id ≡ shard id mod numShards).
	aggs []aggregator
	// heard[src] is the last epoch a liveness beat arrived from shard src.
	heard []uint32

	// outbuf[dst] is this shard's outbound batch for shard dst this epoch.
	outbuf [][]byte

	// Counters (merged by Fleet.Stats).
	beats, replies, losses uint64
	kills, detections      uint64
	falseSuspects          uint64
	inactivations          uint64
	missedDeadlines        uint64
	latHist                []uint32
	latOverflow            uint64
}

// aggregator accumulates one subtree's child summaries per epoch.
type aggregator struct {
	id       uint32 // summary id (disjoint from cluster ids)
	children int
	seen     int
	sum      core.Summary
	stale    uint64 // cumulative children missing at a barrier
}

// runUntil drains every tick strictly before end, in tick order and each
// tick's words in schedule order: events fire in (time, schedule order),
// as from any exact event queue. A held kill (nextKill) runs first in its tick: it
// was scheduled KillEvery >= R ticks before it, every word in the ring
// less than R ticks before. A kWatch word fires only if it is still its
// member's armed word (watch[e]); the others were superseded by a re-arm
// or disarmed by suspicion, and are skipped in place of a cancel.
//
//hbvet:noalloc
func (s *shard) runUntil(end sim.Time) {
	for t := s.now + 1; t < end; t++ {
		if s.cal.Queued() == 0 {
			// An empty ring: jump to the held kill, if it is due before end.
			if s.nextKill == 0 || s.nextKill >= end {
				break
			}
			t = s.nextKill
		}
		s.now = t
		if t == s.nextKill {
			s.onKill()
		}
		for r := s.cal.Take(t); ; {
			first, words := s.cal.Run(&r)
			if len(words) == 0 {
				break
			}
			for i, word := range words {
				e := int32(word & idxMask)
				switch word >> kindShift {
				case kRound:
					s.onRound(e)
				case kWatch:
					if s.watch[e] == first+int32(i) {
						s.onWatch(e)
					}
				default:
					s.onKill()
				}
			}
		}
	}
	s.now = end - 1
}

// schedule adds word to the calendar at tick at and returns its position.
// A tick outside the ring's window, at or before now or R or more ticks
// past it, cannot be filed without firing late; it counts as a missed
// deadline (asserted zero by the CI smoke run) and is dropped, -1.
//
//hbvet:noalloc
func (s *shard) schedule(at sim.Time, word uint32) int32 {
	if d := at - s.now; d < 1 || d >= s.cal.Size() {
		s.missedDeadlines++
		return -1
	}
	return s.cal.Add(at, word)
}

// roll draws one independent Bernoulli loss verdict for a message.
//
//hbvet:noalloc
func (s *shard) roll() bool {
	return s.lossProb > 0 && s.rng.Float64() < s.lossProb
}

// onRound closes member e's protocol round: the coordinator sent a beat
// when the round opened (now - wait), the member replied iff the beat
// survived, the member was alive at arrival, and the reply's round trip
// fit inside the waiting time; the waiting time then follows the paper's
// acceleration rule (core.Config.NextWait) and either the next round is
// scheduled or the member is suspected.
//
//hbvet:noalloc
func (s *shard) onRound(e int32) {
	fl := s.flags[e]
	if fl&fSuspected != 0 {
		return
	}
	s.beats++
	w := sim.Time(s.wait[e])
	arriveAt := s.now - w + s.linkDelay
	received := false
	if s.roll() {
		s.losses++
	} else {
		aliveAtArrival := fl&fInactive == 0 &&
			(s.killAt[e] == 0 || sim.Time(s.killAt[e]) > arriveAt)
		if aliveAtArrival {
			// The member processed the beat: its responder watchdog
			// re-arms from the receipt time (the paper's responder bound).
			s.watch[e] = s.schedule(arriveAt+s.respBound, kWatch<<kindShift|uint32(e))
			if s.roll() {
				s.losses++
			} else if 2*s.linkDelay < w {
				received = true
				s.replies++
			}
		}
	}
	next, ok := s.cfg.NextWait(core.Tick(w), received)
	if !ok {
		s.flags[e] = fl | fSuspected
		cl := e / s.clusterSize
		s.clAlive[cl]--
		s.clDet[cl]++
		s.detections++
		s.watch[e] = -1
		if s.killAt[e] != 0 {
			if lat := s.now - sim.Time(s.killAt[e]); int(lat) < len(s.latHist) {
				s.latHist[lat]++
			} else {
				s.latOverflow++
			}
		} else {
			s.falseSuspects++
		}
		return
	}
	s.wait[e] = int32(next)
	s.schedule(s.now+sim.Time(next), kRound<<kindShift|uint32(e))
}

// onWatch fires when a member went a whole responder bound without a
// beat: it self-inactivates, exactly like the paper's responder.
//
//hbvet:noalloc
func (s *shard) onWatch(e int32) {
	s.watch[e] = -1
	if s.flags[e]&(fInactive|fSuspected) == 0 {
		s.flags[e] |= fInactive
		s.inactivations++
	}
}

// onKill crashes one live endpoint at random (the fault injector's tick)
// and re-arms itself, held or in the ring as before. A handful of draws
// that all land on dead rows simply skip the tick.
//
//hbvet:noalloc
func (s *shard) onKill() {
	for try := 0; try < 8; try++ {
		e := int32(s.rng.Intn(len(s.flags)))
		if s.flags[e]&(fKilled|fSuspected|fInactive) == 0 {
			s.flags[e] |= fKilled
			s.killAt[e] = int64(s.now)
			s.kills++
			break
		}
	}
	if s.nextKill != 0 {
		s.nextKill += s.killEvery
	} else {
		s.schedule(s.now+s.killEvery, kKill<<kindShift)
	}
}

// emitSummaries encodes this shard's per-cluster rollups into the
// outbound batches, one per destination shard, prefixed by a shard
// liveness beat on every link. Buffers are reset in place, so the steady
// state allocates nothing.
//
//hbvet:noalloc
func (s *shard) emitSummaries(epoch uint32) {
	for d := range s.outbuf {
		s.outbuf[d] = appendBeatFrame(s.outbuf[d][:0], core.Beat{From: core.ProcID(s.id), Stay: true})
	}
	for cl := range s.clAlive {
		g := uint32(s.clusterLo) + uint32(cl)
		dst := int(g/s.aggFanout) % s.numShards
		s.outbuf[dst] = appendSummaryFrame(s.outbuf[dst], core.Summary{
			Cluster:    g,
			Epoch:      epoch,
			Total:      uint32(s.clusterSize),
			Alive:      uint32(s.clAlive[cl]),
			Detections: s.clDet[cl],
		})
	}
}

// ingest decodes every source shard's batch for this shard, in source
// order: liveness beats stamp the heard table, summaries accumulate into
// the hosted aggregators. It runs strictly between epochs (the barrier in
// Fleet.RunEpochs), so reading the other shards' outbufs is race-free.
func (s *shard) ingest(shards []*shard, epoch uint32) error {
	for a := range s.aggs {
		ag := &s.aggs[a]
		ag.seen = 0
		ag.sum = core.Summary{Cluster: ag.id, Epoch: epoch}
	}
	for src := range shards {
		d := batchDecoder{buf: shards[src].outbuf[s.id]}
		for !d.done() {
			tag, beat, sum, err := d.next()
			if err != nil {
				return err
			}
			switch tag {
			case frameBeat:
				s.heard[beat.From] = epoch
			case frameSummary:
				local := int(sum.Cluster/s.aggFanout) / s.numShards
				ag := &s.aggs[local]
				ag.sum.Add(sum)
				ag.seen++
			}
		}
	}
	return nil
}
