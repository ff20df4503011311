package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// newSimTransport builds a lossless, zero-delay simulated network wrapped
// in a fault layer, with n registered nodes delivering into rx.
func newSimTransport(t *testing.T, n int, seed int64) (*sim.Simulator, *FaultableTransport, *[]netem.Message) {
	t.Helper()
	s := sim.New(sim.WithSeed(seed))
	net, err := netem.NewNetwork(s, netem.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ft := Wrap(net, netem.SimClock{Sim: s}, seed)
	rx := &[]netem.Message{}
	for i := 0; i < n; i++ {
		id := netem.NodeID(i)
		if err := ft.Register(id, func(m netem.Message) { *rx = append(*rx, m) }); err != nil {
			t.Fatal(err)
		}
	}
	return s, ft, rx
}

func TestPartitionDropsBothDirections(t *testing.T) {
	s, ft, rx := newSimTransport(t, 3, 1)
	ft.SetPartitioned(1, true)
	for _, pair := range [][2]netem.NodeID{{0, 1}, {1, 0}, {1, 2}, {0, 2}} {
		if err := ft.Send(pair[0], pair[1], []byte{1, 0, 0, 0}); err != nil {
			t.Fatalf("Send %v: %v", pair, err)
		}
	}
	s.Run()
	if len(*rx) != 1 || (*rx)[0].From != 0 || (*rx)[0].To != 2 {
		t.Fatalf("partition leaked: %+v", *rx)
	}
	ft.SetPartitioned(1, false)
	if err := ft.Send(0, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(*rx) != 2 {
		t.Fatalf("healed partition still dropping: %+v", *rx)
	}
	st := ft.Stats()
	if st.DroppedPartition != 3 || st.Intercepted != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLinkDownIsUnidirectional(t *testing.T) {
	s, ft, rx := newSimTransport(t, 2, 1)
	ft.SetLinkDown(0, 1, true)
	if err := ft.Send(0, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := ft.Send(1, 0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(*rx) != 1 || (*rx)[0].From != 1 {
		t.Fatalf("unexpected deliveries %+v", *rx)
	}
}

func TestMutedNodeSendsNothingButReceives(t *testing.T) {
	s, ft, rx := newSimTransport(t, 2, 1)
	ft.SetNodeMuted(1, true)
	if err := ft.Send(1, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := ft.Send(0, 1, []byte{2}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// The papers' channel model: crashed processes still receive.
	if len(*rx) != 1 || (*rx)[0].To != 1 {
		t.Fatalf("unexpected deliveries %+v", *rx)
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	// A nearly-absorbing bad state with certain loss must produce long
	// loss bursts; the good state is lossless, so every loss burst is a
	// bad-state excursion.
	ch := geChannel{params: GilbertElliott{PGoodBad: 0.05, PBadGood: 0.2, LossGood: 0, LossBad: 1}}
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	losses, bursts, cur := 0, 0, 0
	var maxBurst int
	for i := 0; i < n; i++ {
		if ch.Lose(rng) {
			losses++
			cur++
			if cur > maxBurst {
				maxBurst = cur
			}
		} else {
			if cur > 0 {
				bursts++
			}
			cur = 0
		}
	}
	// Stationary bad-state share is pgb/(pgb+pbg) = 0.2; allow slack.
	if frac := float64(losses) / n; frac < 0.1 || frac > 0.3 {
		t.Fatalf("loss fraction %v outside [0.1, 0.3]", frac)
	}
	// Mean burst length ~ 1/pbg = 5; independent loss at the same rate
	// would give ~1.25. Require clear burstiness.
	if mean := float64(losses) / float64(bursts); mean < 2.5 {
		t.Fatalf("mean burst length %v, want >= 2.5 (bursty)", mean)
	}
	if maxBurst < 10 {
		t.Fatalf("max burst %d, want >= 10", maxBurst)
	}
}

func TestGilbertElliottValidate(t *testing.T) {
	bad := GilbertElliott{PGoodBad: 1.5}
	if err := bad.Validate(); !errors.Is(err, ErrSchedule) {
		t.Fatalf("out-of-range param accepted: %v", err)
	}
	if err := (GilbertElliott{}).Validate(); err != nil {
		t.Fatalf("zero value rejected: %v", err)
	}
}

func TestDuplicationAndReordering(t *testing.T) {
	s, ft, rx := newSimTransport(t, 2, 3)
	ft.SetDuplication(1)
	if err := ft.Send(0, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(*rx) != 2 {
		t.Fatalf("dup prob 1 delivered %d copies", len(*rx))
	}
	*rx = (*rx)[:0]
	ft.SetDuplication(0)
	ft.SetReordering(1, 4)
	if err := ft.Send(0, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := len(*rx); got != 0 {
		t.Fatalf("reordered message delivered synchronously (%d)", got)
	}
	s.Run()
	if len(*rx) != 1 {
		t.Fatalf("reordered message lost (%d)", len(*rx))
	}
	st := ft.Stats()
	if st.Duplicated != 1 || st.Delayed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScheduleValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
	}{
		{"negative time", Event{At: -1, Kind: KindCrash}},
		{"self link", Event{Kind: KindLinkDown, From: 2, To: 2}},
		{"bad dup prob", Event{Kind: KindDup, Prob: 2}},
		{"reorder without delay", Event{Kind: KindReorder, Prob: 0.5}},
		{"zero drift rate", Event{Kind: KindDrift, Num: 0, Den: 1}},
		{"bad GE", Event{Kind: KindLoss, AllLinks: true, GE: &GilbertElliott{LossBad: -1}}},
		{"unknown kind", Event{Kind: Kind(99)}},
	}
	for _, tc := range cases {
		s := Schedule{Events: []Event{tc.ev}}
		if err := s.Validate(); !errors.Is(err, ErrSchedule) {
			t.Errorf("%s: err = %v, want ErrSchedule", tc.name, err)
		}
	}
}

func TestScheduleApply(t *testing.T) {
	s, ft, rx := newSimTransport(t, 2, 5)
	sched := &Schedule{Events: []Event{
		{At: 10, Kind: KindPartition, Node: 1},
		{At: 20, Kind: KindHeal, Node: 1},
	}}
	cancel, err := sched.Apply(netem.SimClock{Sim: s}, Target{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	send := func() {
		if err := ft.Send(0, 1, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(5)
	send() // before the partition: delivered
	s.RunUntil(15)
	send() // during: dropped
	s.RunUntil(25)
	send() // after heal: delivered
	s.Run()
	if len(*rx) != 2 {
		t.Fatalf("got %d deliveries, want 2: %+v", len(*rx), *rx)
	}
}

func TestScheduleApplyRequiresControls(t *testing.T) {
	s, ft, _ := newSimTransport(t, 2, 5)
	sched := &Schedule{Events: []Event{{Kind: KindDrift, Node: 1, Num: 2, Den: 1}}}
	if _, err := sched.Apply(netem.SimClock{Sim: s}, Target{Transport: ft}); !errors.Is(err, ErrSchedule) {
		t.Fatalf("drift without ClockControl accepted: %v", err)
	}
	sched = &Schedule{Events: []Event{{Kind: KindRestart, Node: 1}}}
	if _, err := sched.Apply(netem.SimClock{Sim: s}, Target{Transport: ft}); !errors.Is(err, ErrSchedule) {
		t.Fatalf("restart without NodeControl accepted: %v", err)
	}
	if _, err := sched.Apply(netem.SimClock{Sim: s}, Target{}); !errors.Is(err, ErrSchedule) {
		t.Fatalf("nil transport accepted: %v", err)
	}
}

// TestFaultReplayDeterminism: the same schedule and seed over two fresh
// simulated transports produce byte-identical delivery traces and stats,
// even with every stochastic fault enabled.
func TestFaultReplayDeterminism(t *testing.T) {
	run := func() string {
		s, ft, rx := newSimTransport(t, 3, 42)
		sched := &Schedule{Events: []Event{
			{At: 0, Kind: KindLoss, AllLinks: true,
				GE: &GilbertElliott{PGoodBad: 0.1, PBadGood: 0.3, LossBad: 0.9}},
			{At: 0, Kind: KindDup, Prob: 0.2},
			{At: 0, Kind: KindReorder, Prob: 0.3, MaxDelay: 5},
			{At: 50, Kind: KindPartition, Node: 2},
			{At: 120, Kind: KindHeal, Node: 2},
		}}
		cancel, err := sched.Apply(netem.SimClock{Sim: s}, Target{Transport: ft})
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		// A deterministic send workload: every node beats every other
		// node every 3 ticks.
		var pump func()
		pump = func() {
			for from := netem.NodeID(0); from < 3; from++ {
				for to := netem.NodeID(0); to < 3; to++ {
					if to == from {
						continue
					}
					if err := ft.Send(from, to, []byte{byte(from), 0, 0, 0}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if s.Now() < 200 {
				if _, err := s.Schedule(3, pump); err != nil {
					t.Fatal(err)
				}
			}
		}
		pump()
		s.RunUntil(300)
		out := fmt.Sprintf("stats=%+v\n", ft.Stats())
		for _, m := range *rx {
			out += fmt.Sprintf("%d->%d %x\n", m.From, m.To, m.Payload)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}
