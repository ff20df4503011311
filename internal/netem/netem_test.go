package netem

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newTestNetwork(t *testing.T, def LinkConfig) (*sim.Simulator, *Network) {
	t.Helper()
	s := sim.New(sim.WithSeed(7))
	n, err := NewNetwork(s, def)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return s, n
}

func register(t *testing.T, n Transport, id NodeID, h Handler) {
	t.Helper()
	if h == nil {
		h = func(Message) {}
	}
	if err := n.Register(id, h); err != nil {
		t.Fatalf("Register(%d): %v", id, err)
	}
}

func TestReliableDelivery(t *testing.T) {
	s, n := newTestNetwork(t, LinkConfig{MinDelay: 2, MaxDelay: 2})
	var got []Message
	register(t, n, 0, nil)
	register(t, n, 1, func(m Message) { got = append(got, m) })
	if err := n.Send(0, 1, []byte("beat")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	if got[0].From != 0 || got[0].To != 1 || string(got[0].Payload) != "beat" {
		t.Fatalf("got %+v", got[0])
	}
	if s.Now() != 2 {
		t.Fatalf("delivery at %d, want 2", s.Now())
	}
}

func TestPayloadIsolation(t *testing.T) {
	s, n := newTestNetwork(t, LinkConfig{})
	var got []byte
	register(t, n, 0, nil)
	register(t, n, 1, func(m Message) { got = m.Payload })
	buf := []byte("beat")
	if err := n.Send(0, 1, buf); err != nil {
		t.Fatalf("Send: %v", err)
	}
	buf[0] = 'X' // sender reuses its buffer
	s.Run()
	if string(got) != "beat" {
		t.Fatalf("payload mutated in flight: %q", got)
	}
}

func TestUnknownNodes(t *testing.T) {
	_, n := newTestNetwork(t, LinkConfig{})
	register(t, n, 0, nil)
	if err := n.Send(0, 9, nil); err == nil {
		t.Fatal("Send to unknown recipient succeeded")
	}
	if err := n.Send(9, 0, nil); err == nil {
		t.Fatal("Send from unknown sender succeeded")
	}
	if err := n.Register(0, func(Message) {}); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
}

func TestTotalLoss(t *testing.T) {
	s, n := newTestNetwork(t, LinkConfig{LossProb: 1})
	delivered := 0
	register(t, n, 0, nil)
	register(t, n, 1, func(Message) { delivered++ })
	for i := 0; i < 50; i++ {
		if err := n.Send(0, 1, nil); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	s.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d despite loss probability 1", delivered)
	}
	st := n.Stats()
	if st.Total.Sent != 50 || st.Total.Lost != 50 {
		t.Fatalf("stats = %+v", st.Total)
	}
}

// TestSetLinkIsPerDirection: a link override shapes one direction of one
// pair and nothing else, and a later override replaces it.
func TestSetLinkIsPerDirection(t *testing.T) {
	s, n := newTestNetwork(t, LinkConfig{})
	delivered := map[NodeID]int{}
	for id := NodeID(0); id < 3; id++ {
		register(t, n, id, func(Message) { delivered[id]++ })
	}
	send := func(from, to NodeID) {
		t.Helper()
		if err := n.Send(from, to, nil); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := n.SetLink(0, 1, LinkConfig{LossProb: 1}); err != nil {
		t.Fatal(err)
	}
	send(0, 1)
	send(0, 2)
	send(1, 0)
	s.Run()
	if delivered[1] != 0 || delivered[2] != 1 || delivered[0] != 1 {
		t.Fatalf("delivered = %v", delivered)
	}
	if st := n.Stats().Links[[2]NodeID{0, 1}]; st.Sent != 1 || st.Lost != 1 {
		t.Fatalf("0→1 link stats = %+v", st)
	}
	if err := n.SetLink(0, 1, LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	send(0, 1)
	s.Run()
	if delivered[1] != 1 {
		t.Fatalf("after restoring the link, delivered = %v", delivered)
	}
	if err := n.SetLink(0, 1, LinkConfig{LossProb: 2}); err == nil {
		t.Fatal("invalid link override accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	s := sim.New()
	bad := []LinkConfig{
		{LossProb: -0.1},
		{LossProb: 1.5},
		{MinDelay: -1},
		{MinDelay: 5, MaxDelay: 2},
	}
	for _, cfg := range bad {
		if _, err := NewNetwork(s, cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}

// TestPropertyDelayWithinBounds: every delivered message arrives within
// [MinDelay, MaxDelay] of its send time, for random bounds and loss rates.
func TestPropertyDelayWithinBounds(t *testing.T) {
	f := func(seed int64, minRaw, spanRaw uint8, lossRaw uint8) bool {
		minD := sim.Time(minRaw % 20)
		maxD := minD + sim.Time(spanRaw%20)
		loss := float64(lossRaw%100) / 100
		s := sim.New(sim.WithSeed(seed))
		n, err := NewNetwork(s, LinkConfig{LossProb: loss, MinDelay: minD, MaxDelay: maxD})
		if err != nil {
			return false
		}
		ok := true
		var sentAt sim.Time
		if err := n.Register(0, func(Message) {}); err != nil {
			return false
		}
		if err := n.Register(1, func(Message) {
			d := s.Now() - sentAt
			if d < minD || d > maxD {
				ok = false
			}
		}); err != nil {
			return false
		}
		for i := 0; i < 40; i++ {
			sentAt = s.Now()
			if err := n.Send(0, 1, nil); err != nil {
				return false
			}
			s.Run()
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyConservation: sent == delivered + lost, for any loss rate.
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64, lossRaw uint8) bool {
		loss := float64(lossRaw%101) / 100
		s := sim.New(sim.WithSeed(seed))
		n, err := NewNetwork(s, LinkConfig{LossProb: loss})
		if err != nil {
			return false
		}
		if err := n.Register(0, func(Message) {}); err != nil {
			return false
		}
		if err := n.Register(1, func(Message) {}); err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			if err := n.Send(0, 1, nil); err != nil {
				return false
			}
		}
		s.Run()
		st := n.Stats().Total
		return st.Sent == 200 && st.Delivered+st.Lost == st.Sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
