// Package netem emulates unreliable point-to-point networks for the
// heartbeat protocols.
//
// The emulation matches the channel model of Gouda & McGuire (ICDCS'98): a
// sent message is either lost or delivered intact within a bounded delay;
// messages are never corrupted; messages sent to crashed processes are still
// delivered (the crashed process ignores them). Links are unidirectional and
// configured independently, so asymmetric delay and loss are expressible.
// That channel is all netem carries: everything a real network does beyond
// it — duplication, reordering, partitions, downed links, burst loss, crashed
// senders — is a fault, injected by internal/faults wrapped around a
// Transport.
//
// Two implementations share the Transport interface: Network runs on a
// sim.Simulator in virtual time, and UDPTransport on real sockets. Clock is
// the matching time service, over virtual or real time.
package netem

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// NodeID identifies a process on the network. The heartbeat papers index
// processes p[0..n]; NodeID follows that convention.
type NodeID int

// Message is a delivered datagram. Payload is owned by the transport and
// is valid only for the duration of the handler call; handlers that need
// to retain it must copy.
type Message struct {
	From    NodeID
	To      NodeID
	Payload []byte
}

// Handler receives delivered messages. Handlers run on the receiving
// goroutine (UDPTransport) or inside the simulation event (Network) and must
// not block. The message's Payload must not be retained past the call.
type Handler func(Message)

// Transport is the sending half shared by simulated and real networks.
type Transport interface {
	// Send queues payload from one node to another. It returns an error
	// only for unknown nodes; loss is silent, as on a real network.
	Send(from, to NodeID, payload []byte) error
	// Register attaches a node and its delivery handler.
	Register(id NodeID, h Handler) error
}

// LinkConfig shapes a unidirectional link.
type LinkConfig struct {
	// LossProb is the independent per-message loss probability in [0, 1].
	LossProb float64
	// MinDelay and MaxDelay bound the delivery delay, inclusive. Delay is
	// drawn uniformly from [MinDelay, MaxDelay]. To respect the papers'
	// round-trip bound tmin, configure each direction with
	// MaxDelay <= tmin/2 (the conservative per-direction split).
	//
	//lint:allow unused-export test fake: the §6.1 race tests shape one link with it (detector/priority_test.go)
	MinDelay sim.Time
	MaxDelay sim.Time
}

func (c LinkConfig) validate() error {
	if c.LossProb < 0 || c.LossProb > 1 {
		return fmt.Errorf("netem: loss probability %v out of [0,1]", c.LossProb)
	}
	if c.MinDelay < 0 || c.MaxDelay < c.MinDelay {
		return fmt.Errorf("netem: bad delay bounds [%d,%d]", c.MinDelay, c.MaxDelay)
	}
	return nil
}

// LinkStats counts traffic on one unidirectional link.
type LinkStats struct {
	Sent      uint64
	Delivered uint64
	Lost      uint64
}

// Stats aggregates link statistics.
type Stats struct {
	Total LinkStats
	Links map[[2]NodeID]LinkStats
}

// Errors returned by transports.
var (
	ErrUnknownNode = errors.New("netem: unknown node")
	ErrDuplicateID = errors.New("netem: node already registered")
)

// Network is a simulated-time transport driven by a sim.Simulator.
// It is not safe for concurrent use (the simulator is single-threaded).
type Network struct {
	simr *sim.Simulator
	// rng is the simulator's source, taken on the first lossy or jittered
	// send. owed counts the loss draws of the lossless, jitter-free sends
	// since the last draw: they cannot lose, so they draw nothing, and the
	// next draw takes them first (settle). Every draw is therefore the
	// one an eagerly seeded network would make, and a run that never loses
	// or jitters never seeds a source.
	rng  *rand.Rand
	owed int
	// tab holds every node's handler (nil until registered) and every
	// link's override and counters, indexed by NodeID: a Send hashes
	// nothing.
	tab   Table[Handler, link]
	def   LinkConfig
	total LinkStats
	// pool recycles delivery records so the send hot path does not
	// allocate: each record carries a reusable payload buffer and a
	// pre-built scheduling closure.
	pool []*delivery
}

// link is the state of one unidirectional link: its SetLink override, if
// any, and its traffic counters.
type link struct {
	cfg    LinkConfig
	hasCfg bool
	stats  LinkStats
}

// delivery is a pooled in-flight message.
type delivery struct {
	net *Network
	h   Handler
	msg Message
	fn  sim.Event
}

// newDelivery draws a record from the pool, creating one (with its
// scheduling closure) only when the pool is empty.
func (n *Network) newDelivery() *delivery {
	if ln := len(n.pool); ln > 0 {
		d := n.pool[ln-1]
		n.pool = n.pool[:ln-1]
		return d
	}
	d := &delivery{net: n}
	d.fn = func() {
		// Release only after the handler returns: the payload stays valid
		// for the whole handler call, and a re-entrant Send inside the
		// handler draws a different record from the pool.
		d.h(d.msg)
		d.h = nil
		d.net.pool = append(d.net.pool, d)
	}
	return d
}

var _ Transport = (*Network)(nil)

// NewNetwork creates a simulated network with the given default link
// configuration applied to links that have no explicit configuration.
func NewNetwork(s *sim.Simulator, def LinkConfig) (*Network, error) {
	if err := def.validate(); err != nil {
		return nil, err
	}
	return &Network{simr: s, def: def}, nil
}

// Rand returns the network's random stream, the simulator's, with every
// loss draw the network owes taken first: a caller sharing the stream with
// the network draws what it would draw beside an eagerly seeded one.
func (n *Network) Rand() *rand.Rand {
	n.settle()
	return n.rng
}

// settle takes the simulator's source if the network has not yet, and the
// loss draws it owes.
func (n *Network) settle() {
	if n.rng == nil {
		n.rng = n.simr.Rand()
	}
	for ; n.owed > 0; n.owed-- {
		n.rng.Float64()
	}
}

// Register attaches a node. The handler is required, and the ID must lie
// in [0, MaxNodes).
func (n *Network) Register(id NodeID, h Handler) error {
	if h == nil {
		return fmt.Errorf("netem: registering node %d: nil handler", id)
	}
	slot, err := n.tab.GrowNode(id)
	if err != nil {
		return err
	}
	if *slot != nil {
		return fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	*slot = h
	return nil
}

// SetLink overrides the configuration of the from→to link; the nodes need
// not be registered yet, but their IDs must lie in [0, MaxNodes).
//
//lint:allow unused-export test fake: the §6.1 race tests shape one link with it (detector/priority_test.go), checked against netem's reference network
func (n *Network) SetLink(from, to NodeID, cfg LinkConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	l, err := n.tab.GrowLink(from, to)
	if err != nil {
		return err
	}
	l.cfg, l.hasCfg = cfg, true
	return nil
}

// Send implements Transport.
//
//lint:allow noalloc-closure queued-delivery network allocates pooled deliveries per send; the 0-alloc pin drives nodes over the zero-copy sim transport
func (n *Network) Send(from, to NodeID, payload []byte) error {
	if src := n.tab.Node(from); src == nil || *src == nil {
		return fmt.Errorf("%w: sender %d", ErrUnknownNode, from)
	}
	dst := n.tab.Node(to)
	if dst == nil || *dst == nil {
		return fmt.Errorf("%w: recipient %d", ErrUnknownNode, to)
	}
	h := *dst
	// Both IDs are registered, so in range: growing the link cannot fail.
	l, _ := n.tab.GrowLink(from, to)
	cfg := &n.def
	if l.hasCfg {
		cfg = &l.cfg
	}
	n.total.Sent++
	delay := cfg.MinDelay
	if cfg.LossProb > 0 || cfg.MaxDelay > cfg.MinDelay {
		// One loss draw per send, and a delay draw per jittered delivery.
		if n.owed != 0 || n.rng == nil {
			n.settle()
		}
		if n.rng.Float64() < cfg.LossProb {
			l.stats.Sent++
			l.stats.Lost++
			n.total.Lost++
			return nil
		}
		if cfg.MaxDelay > cfg.MinDelay {
			delay += sim.Time(n.rng.Int63n(int64(cfg.MaxDelay-cfg.MinDelay) + 1))
		}
	} else {
		n.owed++
	}
	// The payload is copied into a pooled record's reusable buffer, so the
	// caller may reuse payload as soon as Send returns.
	d := n.newDelivery()
	d.h = h
	d.msg = Message{From: from, To: to, Payload: append(d.msg.Payload[:0], payload...)}
	if _, err := n.simr.Schedule(delay, d.fn); err != nil {
		d.h = nil
		n.pool = append(n.pool, d)
		return fmt.Errorf("netem: scheduling delivery: %w", err)
	}
	l.stats.Sent++
	l.stats.Delivered++
	n.total.Delivered++
	return nil
}

// Stats returns a copy of the accumulated statistics; Links has an entry
// for every link a Send was counted on.
func (n *Network) Stats() Stats {
	out := Stats{Total: n.total, Links: make(map[[2]NodeID]LinkStats)}
	n.tab.EachLink(func(from, to NodeID, l *link) {
		if l.stats.Sent > 0 {
			out.Links[[2]NodeID{from, to}] = l.stats
		}
	})
	return out
}
