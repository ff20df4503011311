package faults

import (
	"errors"
	"fmt"
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
	rng := sim.NewStream(7)
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

// TestLinkLossOverridesAndReverts walks the per-link loss state through
// the table: an override applies to its one direction only, nil reverts the
// link to the default channel, clearing the default leaves overrides in
// place, and installing a channel restarts every link's chain in Good.
func TestLinkLossOverridesAndReverts(t *testing.T) {
	s, ft, rx := newSimTransport(t, 3, 1)
	always := &GilbertElliott{LossGood: 1, LossBad: 1}
	never := &GilbertElliott{}
	arrives := func(from, to netem.NodeID) bool {
		t.Helper()
		before := len(*rx)
		if err := ft.Send(from, to, []byte{1}); err != nil {
			t.Fatalf("Send %d→%d: %v", from, to, err)
		}
		s.Run()
		return len(*rx) > before
	}
	ft.SetLoss(always)
	ft.SetLinkLoss(0, 1, never)
	if !arrives(0, 1) || arrives(1, 0) || arrives(0, 2) {
		t.Fatal("a 0→1 override must spare 0→1 and nothing else")
	}
	ft.SetLinkLoss(0, 1, nil)
	if arrives(0, 1) {
		t.Fatal("0→1 still spared after its override was cleared")
	}
	ft.SetLinkLoss(2, 0, always)
	ft.SetLoss(nil)
	if !arrives(0, 1) || !arrives(1, 0) || arrives(2, 0) {
		t.Fatal("clearing the default must leave only the 2→0 override losing")
	}
	// Installing a channel replaces every link's chain: 0→1 enters Bad for
	// good on its first send, and is back in Good under the next channel.
	ft.SetLoss(&GilbertElliott{PGoodBad: 1, LossBad: 1})
	if arrives(0, 1) {
		t.Fatal("0→1 survived a chain that enters Bad at once")
	}
	ft.SetLoss(&GilbertElliott{LossBad: 1})
	if !arrives(0, 1) {
		t.Fatal("0→1 kept its old chain after SetLoss")
	}
	if st := ft.Stats(); st.DroppedLoss == 0 || st.Intercepted == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFaultTableBounds: fault state lives in a table indexed by NodeID, so
// an ID at or past netem.MaxNodes, or negative, must be refused or ignored —
// a schedule may name any integer — never indexed or allocated for.
func TestFaultTableBounds(t *testing.T) {
	h := func(netem.Message) {}
	for _, tc := range []struct {
		id netem.NodeID
		ok bool
	}{
		{netem.MaxNodes - 1, true},
		{netem.MaxNodes, false},
		{netem.MaxNodes + 1, false},
		{-1, false},
		{1<<63 - 1, false},
		{-1 << 63, false},
	} {
		s, ft, rx := newSimTransport(t, 2, 1)
		if err := ft.Register(tc.id, h); (err == nil) != tc.ok || (err != nil && !errors.Is(err, netem.ErrUnknownNode)) {
			t.Errorf("Register(%d) = %v, want ok=%v", tc.id, err, tc.ok)
		}
		// Faults on the ID, and on links to and from it: no-ops out of range.
		ft.SetNodeMuted(tc.id, true)
		ft.SetNodeMuted(tc.id, false)
		ft.SetPartitioned(tc.id, true)
		ft.SetPartitioned(tc.id, false)
		for _, pair := range [][2]netem.NodeID{{tc.id, 1}, {1, tc.id}} {
			ft.SetLinkDown(pair[0], pair[1], true)
			ft.SetLinkDown(pair[0], pair[1], false)
			ft.SetLinkLoss(pair[0], pair[1], &GilbertElliott{LossGood: 1})
			ft.SetLinkLoss(pair[0], pair[1], nil)
			ft.SetLinkDelay(pair[0], pair[1], 1, 2)
			ft.SetLinkDelay(pair[0], pair[1], 0, 0)
			if err := ft.Send(pair[0], pair[1], []byte{1}); (err == nil) != tc.ok || (err != nil && !errors.Is(err, netem.ErrUnknownNode)) {
				t.Errorf("Send(%d, %d) = %v, want ok=%v", pair[0], pair[1], err, tc.ok)
			}
		}
		// The nodes in range are untouched by any of it.
		if err := ft.Send(0, 1, []byte{1}); err != nil {
			t.Errorf("id %d: Send(0, 1) = %v", tc.id, err)
		}
		want := 1
		if tc.ok {
			want++ // tc.id→1 went through as well
		}
		if s.Run(); len(*rx) != want {
			t.Errorf("id %d: %d deliveries to the in-range nodes, want %d", tc.id, len(*rx), want)
		}
	}
}
