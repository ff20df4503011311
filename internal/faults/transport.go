package faults

import (
	"repro/internal/netem"
	"repro/internal/sim"
)

// Stats counts the fault layer's interventions.
type Stats struct {
	// Intercepted is the number of Send calls seen.
	Intercepted uint64
	// DroppedMuted counts sends dropped because the sender is crashed.
	DroppedMuted uint64
	// DroppedPartition counts sends dropped by a partition or downed link.
	DroppedPartition uint64
	// DroppedLoss counts sends lost by a Gilbert–Elliott channel.
	DroppedLoss uint64
	// Duplicated counts extra copies injected.
	Duplicated uint64
	// Delayed counts sends given an extra reordering delay.
	Delayed uint64
	// Slowed counts sends given extra link latency by a delay range.
	Slowed uint64
	// SendErrors counts errors from the wrapped transport on delayed
	// sends, which have no caller left to report to.
	SendErrors uint64
}

// FaultableTransport wraps any netem.Transport and applies the mutable
// fault state a Schedule drives: per-node crash muting and partitions,
// per-link downs, Gilbert–Elliott loss channels and latency bands,
// duplication, and reordering. All decisions draw from one seeded random
// stream (seeded on its first draw), so a run over the deterministic
// simulator replays exactly; faults apply at send time, uniformly across
// netem.Network and netem.UDPTransport.
//
// It runs on its clock (see netem.Clock), as the nodes sending through it
// do, and takes no lock of its own.
type FaultableTransport struct {
	inner netem.Transport
	clock netem.Clock
	seed  int64
	rng   *sim.Stream // nil until the first draw; see stream

	// tab holds the per-node and per-link fault state, indexed by NodeID
	// as in netem.Network: a Send hashes nothing. A fault naming an ID
	// outside [0, netem.MaxNodes) is a fault on a node that cannot exist,
	// and a no-op.
	tab         netem.Table[faultNode, faultLink]
	lossDefault *GilbertElliott
	delayAll    delayRange
	dupProb     float64
	reorderProb float64
	reorderMax  sim.Time

	stats Stats
	pool  []*delayed // delayed deliveries that have fired, for reuse
}

var _ netem.Transport = (*FaultableTransport)(nil)

// Wrap builds a fault layer over inner. The clock times delayed deliveries
// (netem.SimClock for virtual time, netem.WallClock for real time); seed
// drives every random fault decision.
func Wrap(inner netem.Transport, clock netem.Clock, seed int64) *FaultableTransport {
	return &FaultableTransport{inner: inner, clock: clock, seed: seed}
}

// stream returns the fault layer's random stream, seeding it on the first
// draw: a schedule that never draws never seeds. The stream, and so every
// decision, is the one an eagerly seeded source would give.
//
//lint:allow noalloc-closure one seeded stream per transport, built on the first draw and kept, like channel's Gilbert-Elliott state
func (f *FaultableTransport) stream() *sim.Stream {
	if f.rng == nil {
		f.rng = sim.NewStream(f.seed)
	}
	return f.rng
}

// faultNode is one node's fault state.
type faultNode struct {
	muted, partitioned bool
}

// faultLink is one unidirectional link's fault state.
type faultLink struct {
	down bool
	// loss overrides lossDefault when non-nil; ch is the chain state, built
	// lazily from whichever applies on the link's next Send.
	loss *GilbertElliott
	ch   *geChannel
	// delay overrides delayAll unless empty.
	delay delayRange
}

// delayRange is a uniform extra-latency band; the zero value means no
// extra latency.
type delayRange struct {
	min, max sim.Time
}

// Register implements netem.Transport: nodes attach to the wrapped
// transport directly, faults apply on the sending side only. The ID must
// lie in [0, netem.MaxNodes), whatever the wrapped transport accepts.
func (f *FaultableTransport) Register(id netem.NodeID, h netem.Handler) error {
	if _, err := f.tab.GrowNode(id); err != nil {
		return err
	}
	return f.inner.Register(id, h)
}

// SetNodeMuted drops (or stops dropping) every send from id — the
// network-visible half of a process crash.
func (f *FaultableTransport) SetNodeMuted(id netem.NodeID, muted bool) {
	if n, err := f.tab.GrowNode(id); err == nil {
		n.muted = muted
	}
}

// SetPartitioned isolates (or heals) a node in both directions.
func (f *FaultableTransport) SetPartitioned(id netem.NodeID, down bool) {
	if n, err := f.tab.GrowNode(id); err == nil {
		n.partitioned = down
	}
}

// SetLinkDown takes the unidirectional from→to link down or up.
func (f *FaultableTransport) SetLinkDown(from, to netem.NodeID, down bool) {
	if l, err := f.tab.GrowLink(from, to); err == nil {
		l.down = down
	}
}

// SetLoss installs ge as the Gilbert–Elliott loss channel for every link
// without a per-link override; nil clears it. Chain state is reset.
func (f *FaultableTransport) SetLoss(ge *GilbertElliott) {
	f.lossDefault = ge
	f.tab.EachLink(func(_, _ netem.NodeID, l *faultLink) { l.ch = nil })
}

// SetLinkLoss installs a per-link Gilbert–Elliott channel; nil reverts the
// link to the default channel.
func (f *FaultableTransport) SetLinkLoss(from, to netem.NodeID, ge *GilbertElliott) {
	if l, err := f.tab.GrowLink(from, to); err == nil {
		l.loss, l.ch = ge, nil
	}
}

// SetDelay adds a uniform min..max extra latency to every surviving
// message on links without a per-link override; min = max = 0 clears it.
// Inverted or negative bounds are normalised to empty.
func (f *FaultableTransport) SetDelay(min, max sim.Time) {
	f.delayAll = normDelay(min, max)
}

// SetLinkDelay adds a uniform min..max extra latency on the from→to link
// only — one direction, so an asymmetric path is two calls with different
// bounds. min = max = 0 reverts the link to the default delay.
func (f *FaultableTransport) SetLinkDelay(from, to netem.NodeID, min, max sim.Time) {
	if l, err := f.tab.GrowLink(from, to); err == nil {
		l.delay = normDelay(min, max)
	}
}

func normDelay(min, max sim.Time) delayRange {
	if min < 0 {
		min = 0
	}
	if max < min {
		max = min
	}
	return delayRange{min: min, max: max}
}

// SetDuplication sets the probability that a surviving message is sent
// twice. Out-of-range values are clamped to [0,1].
func (f *FaultableTransport) SetDuplication(p float64) {
	f.dupProb = clamp01(p)
}

// SetReordering sets the probability that a surviving message is delayed
// by a uniform 1..max extra ticks before reaching the wrapped transport,
// letting later messages overtake it.
func (f *FaultableTransport) SetReordering(p float64, max sim.Time) {
	f.reorderProb = clamp01(p)
	if max < 1 {
		f.reorderProb = 0
		max = 0
	}
	f.reorderMax = max
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Stats returns a copy of the intervention counters.
func (f *FaultableTransport) Stats() Stats {
	return f.stats
}

// channel returns the chain state for a link, creating it lazily from the
// per-link or default parameters.
func (f *FaultableTransport) channel(l *faultLink) *geChannel {
	if l.ch != nil {
		return l.ch
	}
	params := f.lossDefault
	if l.loss != nil {
		params = l.loss
	}
	if params == nil {
		return nil
	}
	//lint:allow noalloc-closure one Gilbert-Elliott channel per link, built lazily on first use and cached
	l.ch = &geChannel{params: *params}
	return l.ch
}

// Send implements netem.Transport. Fault decisions happen at send time:
// a message en route when a partition starts still arrives, exactly as on
// a physical network.
func (f *FaultableTransport) Send(from, to netem.NodeID, payload []byte) error {
	f.stats.Intercepted++
	l, err := f.tab.GrowLink(from, to)
	if err != nil {
		return err
	}
	src, dst := f.tab.Node(from), f.tab.Node(to)
	if src.muted {
		f.stats.DroppedMuted++
		return nil
	}
	if src.partitioned || dst.partitioned || l.down {
		f.stats.DroppedPartition++
		return nil
	}
	if ch := f.channel(l); ch != nil && ch.Lose(f.stream()) {
		f.stats.DroppedLoss++
		return nil
	}
	copies := 1
	if f.dupProb > 0 && f.stream().Float64() < f.dupProb {
		copies = 2
		f.stats.Duplicated++
	}
	lat := f.delayAll
	if l.delay != (delayRange{}) {
		lat = l.delay
	}
	var delayBuf [2]sim.Time
	delays := delayBuf[:copies]
	for i := range delays {
		if f.reorderProb > 0 && f.stream().Float64() < f.reorderProb {
			delays[i] = 1 + sim.Time(f.stream().Int63n(int64(f.reorderMax)))
			f.stats.Delayed++
		}
		if lat.max > 0 {
			extra := lat.min
			if span := int64(lat.max - lat.min); span > 0 {
				extra += sim.Time(f.stream().Int63n(span + 1))
			}
			if extra > 0 {
				delays[i] += extra
				f.stats.Slowed++
			}
		}
	}

	var firstErr error
	for _, d := range delays {
		if d == 0 {
			if err := f.inner.Send(from, to, payload); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		f.sendAfter(d, from, to, payload)
	}
	return firstErr
}

// sendAfter hands a copy of payload to the wrapped transport d ticks from
// now; the caller may reuse payload as soon as Send returns. The copy and
// its timer come from a pool, so a stream of delayed sends allocates only
// while the pool grows to the number in flight.
func (f *FaultableTransport) sendAfter(d sim.Time, from, to netem.NodeID, payload []byte) {
	var dl *delayed
	if n := len(f.pool); n > 0 {
		dl = f.pool[n-1]
		f.pool = f.pool[:n-1]
	} else {
		dl = f.newDelayed()
	}
	dl.from, dl.to = from, to
	dl.data = append(dl.data[:0], payload...)
	dl.timer.Reset(d, 0)
}

// delayed is a pooled fault-delayed delivery.
type delayed struct {
	from, to netem.NodeID
	data     []byte
	timer    netem.Timer // fires deliver; built once with the record
}

// newDelayed builds a pool record and its timer.
//
//lint:allow noalloc-closure a pool miss builds one record and its timer, reused for every later delayed send
func (f *FaultableTransport) newDelayed() *delayed {
	dl := &delayed{}
	dl.timer = f.clock.NewTimer(func(uint64) { f.deliver(dl) })
	return dl
}

// deliver hands a delayed copy to the wrapped transport, which copies it
// in turn, and returns the record to the pool.
func (f *FaultableTransport) deliver(dl *delayed) {
	if err := f.inner.Send(dl.from, dl.to, dl.data); err != nil {
		f.stats.SendErrors++
	}
	f.pool = append(f.pool, dl)
}
