package netem

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// refNetwork is the oracle for Network's dense table: the map-backed
// network the table replaced, kept as it was — handlers, link overrides and
// per-link counters each in a Go map keyed by NodeID or [2]NodeID, a link's
// counters written back once the send is accounted for. It shares nothing
// with Network but the channel contract: one Float64 per Send between
// registered nodes, one Int63n per surviving delivery on a jittered link.
type refNetwork struct {
	simr     *sim.Simulator
	rng      *rand.Rand
	handlers map[NodeID]Handler
	links    map[[2]NodeID]LinkConfig
	def      LinkConfig
	stats    Stats
}

func newRefNetwork(s *sim.Simulator, def LinkConfig) *refNetwork {
	return &refNetwork{
		simr:     s,
		rng:      s.Rand(),
		handlers: make(map[NodeID]Handler),
		links:    make(map[[2]NodeID]LinkConfig),
		def:      def,
		stats:    Stats{Links: make(map[[2]NodeID]LinkStats)},
	}
}

func (n *refNetwork) Register(id NodeID, h Handler) error {
	if _, ok := n.handlers[id]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	n.handlers[id] = h
	return nil
}

func (n *refNetwork) SetLink(from, to NodeID, cfg LinkConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	n.links[[2]NodeID{from, to}] = cfg
	return nil
}

func (n *refNetwork) Send(from, to NodeID, payload []byte) error {
	if _, ok := n.handlers[from]; !ok {
		return fmt.Errorf("%w: sender %d", ErrUnknownNode, from)
	}
	h, ok := n.handlers[to]
	if !ok {
		return fmt.Errorf("%w: recipient %d", ErrUnknownNode, to)
	}
	key := [2]NodeID{from, to}
	cfg, ok := n.links[key]
	if !ok {
		cfg = n.def
	}
	st := n.stats.Links[key]
	st.Sent++
	n.stats.Total.Sent++
	if n.rng.Float64() < cfg.LossProb {
		st.Lost++
		n.stats.Total.Lost++
		n.stats.Links[key] = st
		return nil
	}
	delay := cfg.MinDelay
	if cfg.MaxDelay > cfg.MinDelay {
		delay += sim.Time(n.rng.Int63n(int64(cfg.MaxDelay-cfg.MinDelay) + 1))
	}
	msg := Message{From: from, To: to, Payload: append([]byte(nil), payload...)}
	if _, err := n.simr.Schedule(delay, func() { h(msg) }); err != nil {
		return fmt.Errorf("netem: scheduling delivery: %w", err)
	}
	st.Delivered++
	n.stats.Total.Delivered++
	n.stats.Links[key] = st
	return nil
}

// arrival is one delivery as a handler saw it.
type arrival struct {
	tick     sim.Time
	from, to NodeID
	payload  string
}

// netUnderTest is what a random program drives: Network and refNetwork.
type netUnderTest interface {
	Transport
	SetLink(from, to NodeID, cfg LinkConfig) error
}

// runProgram drives one random Register/SetLink/Send/RunUntil program,
// a function of seed alone, and returns everything observable: each call's
// error text (and whether it wraps ErrUnknownNode), and the deliveries in
// order.
func runProgram(seed int64, build func(*sim.Simulator, LinkConfig) netUnderTest) (errs []string, got []arrival) {
	prog := rand.New(rand.NewSource(seed))
	s := sim.New(sim.WithSeed(seed))
	n := build(s, LinkConfig{LossProb: 0.1, MaxDelay: sim.Time(prog.Intn(4))})
	note := func(err error) {
		if err == nil {
			errs = append(errs, "")
			return
		}
		errs = append(errs, fmt.Sprintf("%v unknown=%v", err, errors.Is(err, ErrUnknownNode)))
	}
	// IDs are drawn from a range wider than what gets registered, so
	// unknown senders and recipients, links configured before their nodes
	// exist and links never sent on all occur. Every so often a Send names
	// an ID far outside the table.
	const ids = 12
	id := func() NodeID {
		if prog.Intn(40) == 0 {
			return []NodeID{-1, MaxNodes, MaxNodes + 7, -1 << 40, 1 << 40}[prog.Intn(5)]
		}
		return NodeID(prog.Intn(ids))
	}
	for step := 0; step < 400; step++ {
		switch op := prog.Intn(10); {
		case op == 0:
			note(n.Register(NodeID(prog.Intn(ids)), func(m Message) {
				got = append(got, arrival{s.Now(), m.From, m.To, string(m.Payload)})
			}))
		case op == 1:
			lo := sim.Time(prog.Intn(3))
			note(n.SetLink(NodeID(prog.Intn(ids)), NodeID(prog.Intn(ids)),
				LinkConfig{LossProb: prog.Float64() / 2, MinDelay: lo, MaxDelay: lo + sim.Time(prog.Intn(3))}))
		case op == 2:
			s.RunUntil(s.Now() + sim.Time(prog.Intn(3)))
		default:
			note(n.Send(id(), id(), []byte{byte(step), byte(step >> 8)}))
		}
	}
	s.Run()
	return errs, got
}

// TestNetworkMatchesMapReference runs the same random programs through the
// dense Network and the map-backed reference on the same seed: identical
// errors, identical delivery sequence, identical totals and per-link
// counters — including which links have no entry at all.
func TestNetworkMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		var dense *Network
		var ref *refNetwork
		errsD, gotD := runProgram(seed, func(s *sim.Simulator, def LinkConfig) netUnderTest {
			n, err := NewNetwork(s, def)
			if err != nil {
				t.Fatalf("NewNetwork: %v", err)
			}
			dense = n
			return n
		})
		errsR, gotR := runProgram(seed, func(s *sim.Simulator, def LinkConfig) netUnderTest {
			ref = newRefNetwork(s, def)
			return ref
		})
		if i := firstDiff(errsD, errsR); i >= 0 {
			t.Fatalf("seed %d: call %d: dense %q, reference %q", seed, i, at(errsD, i), at(errsR, i))
		}
		if i := firstDiff(gotD, gotR); i >= 0 {
			t.Fatalf("seed %d: delivery %d: dense %+v, reference %+v", seed, i, at(gotD, i), at(gotR, i))
		}
		if len(gotD) == 0 {
			t.Fatalf("seed %d: program delivered nothing", seed)
		}
		st := dense.Stats()
		if st.Total != ref.stats.Total {
			t.Fatalf("seed %d: total: dense %+v, reference %+v", seed, st.Total, ref.stats.Total)
		}
		for from := NodeID(-1); from <= 12; from++ {
			for to := NodeID(-1); to <= 12; to++ {
				key := [2]NodeID{from, to}
				d, okD := st.Links[key]
				r, okR := ref.stats.Links[key]
				if d != r || okD != okR {
					t.Fatalf("seed %d: link %v: dense %+v (present %v), reference %+v (present %v)", seed, key, d, okD, r, okR)
				}
			}
		}
		if len(st.Links) != len(ref.stats.Links) {
			t.Fatalf("seed %d: dense has %d link entries, reference %d", seed, len(st.Links), len(ref.stats.Links))
		}
	}
}

// firstDiff returns the first index at which a and b differ, -1 if none.
func firstDiff[E comparable](a, b []E) int {
	for i := 0; i < max(len(a), len(b)); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// at is s[i], or the zero value past the end.
func at[E any](s []E, i int) (e E) {
	if i < len(s) {
		e = s[i]
	}
	return e
}

// TestNodeIDBounds: a dense table turns a NodeID into an index, so the
// edge of the table is an error, not a panic or an allocation sized by the
// caller's integer.
func TestNodeIDBounds(t *testing.T) {
	h := func(Message) {}
	for _, tc := range []struct {
		name string
		id   NodeID
		ok   bool
	}{
		{"0", 0, true},
		{"MaxNodes-1", MaxNodes - 1, true},
		{"MaxNodes", MaxNodes, false},
		{"MaxNodes+1", MaxNodes + 1, false},
		{"-1", -1, false},
		{"min int", -1 << 63, false},
		{"max int", 1<<63 - 1, false},
	} {
		s, n := newTestNetwork(t, LinkConfig{})
		register(t, n, 1, h)
		err := n.Register(tc.id, h)
		if (err == nil) != tc.ok || (err != nil && !errors.Is(err, ErrUnknownNode)) {
			t.Errorf("Register(%s) = %v, want ok=%v", tc.name, err, tc.ok)
		}
		for _, pair := range [][2]NodeID{{tc.id, 1}, {1, tc.id}} {
			err := n.SetLink(pair[0], pair[1], LinkConfig{})
			if (err == nil) != tc.ok || (err != nil && !errors.Is(err, ErrUnknownNode)) {
				t.Errorf("SetLink(%d, %d) = %v, want ok=%v", pair[0], pair[1], err, tc.ok)
			}
			err = n.Send(pair[0], pair[1], nil)
			if (err == nil) != tc.ok || (err != nil && !errors.Is(err, ErrUnknownNode)) {
				t.Errorf("Send(%d, %d) = %v, want ok=%v", pair[0], pair[1], err, tc.ok)
			}
		}
		s.Run()
	}
}

// TestRegisterNilHandler: a nil handler used to be accepted and panic
// inside Simulator.Step on the node's first delivery.
func TestRegisterNilHandler(t *testing.T) {
	s, n := newTestNetwork(t, LinkConfig{})
	register(t, n, 0, nil)
	if err := n.Register(1, nil); err == nil {
		t.Fatal("Register(1, nil) succeeded")
	}
	if err := n.Send(0, 1, nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Send to the rejected node = %v, want ErrUnknownNode", err)
	}
	register(t, n, 1, nil) // the rejected call left the ID free
	if err := n.Send(0, 1, nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Run()
}

// TestSendSteadyStateAllocs pins the pooled delivery path: once the pool,
// the link rows and the wheel are warm, a Send and its delivery allocate
// nothing, lost or delivered, jittered or not.
func TestSendSteadyStateAllocs(t *testing.T) {
	s, n := newTestNetwork(t, LinkConfig{LossProb: 0.3, MaxDelay: 2})
	delivered := 0
	for id := NodeID(0); id < 4; id++ {
		register(t, n, id, func(Message) { delivered++ })
	}
	payload := []byte{1, 2, 3, 4}
	round := func() {
		for to := NodeID(1); to < 4; to++ {
			if err := n.Send(0, to, payload); err != nil {
				t.Fatalf("Send: %v", err)
			}
			if err := n.Send(to, 0, payload); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		s.Run()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("steady-state Send + delivery allocates %v per round, want 0", allocs)
	}
	if st := n.Stats().Total; delivered == 0 || st.Lost == 0 || st.Delivered != uint64(delivered) {
		t.Fatalf("stats %+v with %d deliveries: both outcomes must occur", st, delivered)
	}
}
