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
// registered nodes, one Int63n per surviving delivery on a jittered link,
// drawn from math/rand's own source on the simulator's seed (so the
// simulator's sim.Stream is held to math/rand here too), and every
// payload copied into a buffer of its own.
type refNetwork struct {
	simr     *sim.Simulator
	rng      *rand.Rand
	handlers map[NodeID]Handler
	links    map[[2]NodeID]LinkConfig
	def      LinkConfig
	stats    Stats
}

func newRefNetwork(s *sim.Simulator, seed int64, def LinkConfig) *refNetwork {
	return &refNetwork{
		simr:     s,
		rng:      rand.New(rand.NewSource(seed)),
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

// draw is a caller's draw from n's stream: Network.Rand's, or the
// reference's math/rand source, taken eagerly.
func draw(n netUnderTest) int64 {
	if ref, ok := n.(*refNetwork); ok {
		return ref.rng.Int63n(1000)
	}
	return n.(*Network).Rand().Int63n(1000)
}

// payloadSizes straddle the inline room of a delivery record: empty, a
// beat, the room exactly, one byte past it, and a kilobyte.
var payloadSizes = []int{0, 4, inlinePayload, inlinePayload + 1, 1024}

// runProgram drives one random Register/SetLink/Send/RunUntil program,
// a function of seed alone, and returns everything observable: each call's
// error text (and whether it wraps ErrUnknownNode), and the deliveries in
// order. A lossless program starts every link lossless and jitter-free,
// makes half its SetLinks so too, and now and then draws from the
// network's stream the way a caller sharing it does; the draws are
// recorded among the deliveries.
func runProgram(seed int64, lossless bool, build func(*sim.Simulator, LinkConfig) netUnderTest) (errs []string, got []arrival) {
	prog := rand.New(rand.NewSource(seed))
	s := sim.New(sim.WithSeed(seed))
	def := LinkConfig{LossProb: 0.1, MaxDelay: sim.Time(prog.Intn(4))}
	if lossless {
		def = LinkConfig{}
	}
	n := build(s, def)
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
	buf := make([]byte, 0, 1024)
	for step := 0; step < 400; step++ {
		switch op := prog.Intn(10); {
		case op == 0:
			note(n.Register(NodeID(prog.Intn(ids)), func(m Message) {
				got = append(got, arrival{s.Now(), m.From, m.To, string(m.Payload)})
			}))
		case op == 1:
			lo := sim.Time(prog.Intn(3))
			cfg := LinkConfig{LossProb: prog.Float64() / 2, MinDelay: lo, MaxDelay: lo + sim.Time(prog.Intn(3))}
			if lossless && prog.Intn(2) == 0 {
				cfg = LinkConfig{MinDelay: lo, MaxDelay: lo}
			}
			note(n.SetLink(NodeID(prog.Intn(ids)), NodeID(prog.Intn(ids)), cfg))
		case op == 2:
			s.RunUntil(s.Now() + sim.Time(prog.Intn(3)))
		case op == 3 && lossless:
			got = append(got, arrival{tick: s.Now(), payload: fmt.Sprintf("draw %d", draw(n))})
		default:
			// The caller's buffer is overwritten as soon as Send returns,
			// as a sender reusing one scratch buffer does.
			buf = buf[:payloadSizes[prog.Intn(len(payloadSizes))]]
			for i := range buf {
				buf[i] = byte(step + i*7)
			}
			note(n.Send(id(), id(), buf))
			for i := range buf {
				buf[i] = 0xEE
			}
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
		errsD, gotD := runProgram(seed, false, func(s *sim.Simulator, def LinkConfig) netUnderTest {
			n, err := NewNetwork(s, def)
			if err != nil {
				t.Fatalf("NewNetwork: %v", err)
			}
			dense = n
			return n
		})
		errsR, gotR := runProgram(seed, false, func(s *sim.Simulator, def LinkConfig) netUnderTest {
			ref = newRefNetwork(s, seed, def)
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

// TestLazyNetworkDrawsEagerStream: a network takes the simulator's source
// only on its first lossy or jittered send, and a lossless, jitter-free
// send draws nothing; yet every draw — the network's own and a caller's
// through Rand — is the one the eagerly seeded reference makes, which draws
// a loss verdict on every send.
func TestLazyNetworkDrawsEagerStream(t *testing.T) {
	// Straight: lossless traffic, then one draw.
	s := sim.New(sim.WithSeed(7))
	n, err := NewNetwork(s, LinkConfig{MinDelay: 1, MaxDelay: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefNetwork(sim.New(sim.WithSeed(7)), 7, LinkConfig{MinDelay: 1, MaxDelay: 1})
	for id := NodeID(0); id < 2; id++ {
		register(t, n, id, func(Message) {})
		if err := ref.Register(id, func(Message) {}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := n.Send(0, 1, nil); err != nil {
			t.Fatal(err)
		}
		if err := ref.Send(0, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if n.rng != nil || n.owed != 100 {
		t.Fatalf("100 lossless sends took a source (%v) and owe %d draws, want none and 100", n.rng != nil, n.owed)
	}
	if got, want := n.Rand().Int63(), ref.rng.Int63(); got != want {
		t.Fatalf("first draw after 100 lossless sends = %d, eager stream gives %d", got, want)
	}
	if n.owed != 0 {
		t.Fatalf("%d draws still owed after Rand", n.owed)
	}

	// Mixed: random programs over lossless, lossy and jittered links.
	for seed := int64(1); seed <= 200; seed++ {
		errsL, gotL := runProgram(seed, true, func(s *sim.Simulator, def LinkConfig) netUnderTest {
			n, err := NewNetwork(s, def)
			if err != nil {
				t.Fatalf("NewNetwork: %v", err)
			}
			return n
		})
		errsE, gotE := runProgram(seed, true, func(s *sim.Simulator, def LinkConfig) netUnderTest {
			return newRefNetwork(s, seed, def)
		})
		if i := firstDiff(errsL, errsE); i >= 0 {
			t.Fatalf("seed %d: call %d: lazy %q, eager %q", seed, i, at(errsL, i), at(errsE, i))
		}
		if i := firstDiff(gotL, gotE); i >= 0 {
			t.Fatalf("seed %d: delivery or draw %d: lazy %+v, eager %+v", seed, i, at(gotL, i), at(gotE, i))
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
