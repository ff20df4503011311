package faults

import (
	"math"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

func TestLinkDelayAsymmetric(t *testing.T) {
	s := sim.New(sim.WithSeed(2))
	net, err := netem.NewNetwork(s, netem.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ft := Wrap(net, netem.SimClock{Sim: s}, 2)
	arrivals := make(map[netem.NodeID]sim.Time)
	for i := 0; i < 2; i++ {
		id := netem.NodeID(i)
		if err := ft.Register(id, func(m netem.Message) { arrivals[m.To] = s.Now() }); err != nil {
			t.Fatal(err)
		}
	}
	// A fixed 3-tick band one way only: 0→1 arrives at t=3, 1→0 at t=0.
	ft.SetLinkDelay(0, 1, 3, 3)
	if err := ft.Send(0, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := ft.Send(1, 0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if arrivals[1] != 3 {
		t.Fatalf("delayed direction arrived at t=%d, want 3", arrivals[1])
	}
	if arrivals[0] != 0 {
		t.Fatalf("undelayed direction arrived at t=%d, want 0", arrivals[0])
	}
	if st := ft.Stats(); st.Slowed != 1 {
		t.Fatalf("stats = %+v, want Slowed 1", st)
	}
	// Clearing the band restores undelayed delivery.
	ft.SetLinkDelay(0, 1, 0, 0)
	sent := s.Now()
	if err := ft.Send(0, 1, []byte{3}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if arrivals[1] != sent {
		t.Fatalf("cleared delay still deferring: arrived %d, sent %d", arrivals[1], sent)
	}
	if st := ft.Stats(); st.Slowed != 1 {
		t.Fatalf("stats after clear = %+v, want Slowed 1", st)
	}
}

func TestDelayViaSchedule(t *testing.T) {
	s := sim.New(sim.WithSeed(4))
	net, err := netem.NewNetwork(s, netem.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ft := Wrap(net, netem.SimClock{Sim: s}, 4)
	var arrivals []sim.Time
	for i := 0; i < 2; i++ {
		if err := ft.Register(netem.NodeID(i), func(m netem.Message) { arrivals = append(arrivals, s.Now()) }); err != nil {
			t.Fatal(err)
		}
	}
	sched, err := ParseSchedule("delay t=10 all mindelay=2 maxdelay=2\ndelay t=30 all mindelay=0 maxdelay=0")
	if err != nil {
		t.Fatal(err)
	}
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
	send() // before the band: synchronous
	s.RunUntil(20)
	send() // inside: +2 ticks
	s.RunUntil(40)
	send() // after clearing: synchronous again
	s.Run()
	want := []sim.Time{5, 22, 40}
	if len(arrivals) != len(want) {
		t.Fatalf("arrivals = %v, want %v", arrivals, want)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
}

// TestGilbertElliottDriftComposition pins the composition of a bursty
// loss channel and a drifted sender clock on one transport against the
// analytic product: the drift arithmetic is exact, so a 3/2-fast clock
// sending every 3 local ticks emits exactly one message per 2 real ticks,
// and the Gilbert–Elliott channel thins that stream by its stationary
// loss π_good·LossGood + π_bad·LossBad with π_bad = pgb/(pgb+pbg).
func TestGilbertElliottDriftComposition(t *testing.T) {
	const (
		deadline = 20000
		pgb, pbg = 0.1, 0.3
		lg, lb   = 0.05, 0.9
	)
	run := func(num, den int64, localPeriod sim.Time) Stats {
		s := sim.New(sim.WithSeed(11))
		net, err := netem.NewNetwork(s, netem.LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ft := Wrap(net, netem.SimClock{Sim: s}, 11)
		for i := 0; i < 2; i++ {
			if err := ft.Register(netem.NodeID(i), func(netem.Message) {}); err != nil {
				t.Fatal(err)
			}
		}
		ft.SetLoss(&GilbertElliott{PGoodBad: pgb, PBadGood: pbg, LossGood: lg, LossBad: lb})
		dc := NewDriftClock(netem.SimClock{Sim: s})
		if err := dc.SetDrift(num, den, 0); err != nil {
			t.Fatal(err)
		}
		var period netem.Timer
		pump := func(uint64) {
			if err := ft.Send(0, 1, []byte{1}); err != nil {
				t.Fatal(err)
			}
			period.Reset(localPeriod, 0)
		}
		period = dc.NewTimer(pump)
		pump(0)
		s.RunUntil(deadline)
		return ft.Stats()
	}

	fast := run(3, 2, 3) // 3 local ticks at rate 3/2 = exactly 2 real ticks
	slow := run(1, 1, 3) // undrifted baseline: one send per 3 real ticks
	// The drift side of the product is exact integer arithmetic: the fast
	// clock emits 3/2 as many messages over the same real window.
	if want := uint64(deadline / 2); fast.Intercepted < want || fast.Intercepted > want+1 {
		t.Fatalf("drifted sender emitted %d messages, want ~%d", fast.Intercepted, want)
	}
	if want := uint64(deadline / 3); slow.Intercepted < want || slow.Intercepted > want+1 {
		t.Fatalf("undrifted sender emitted %d messages, want ~%d", slow.Intercepted, want)
	}
	// The loss side matches the stationary analytic rate on both streams.
	piBad := pgb / (pgb + pbg)
	analytic := (1-piBad)*lg + piBad*lb
	for _, st := range []Stats{fast, slow} {
		frac := float64(st.DroppedLoss) / float64(st.Intercepted)
		if math.Abs(frac-analytic) > 0.05 {
			t.Fatalf("loss fraction %v, want analytic %v ± 0.05 (stats %+v)", frac, analytic, st)
		}
	}
}
