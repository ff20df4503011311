package faults

import (
	"reflect"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// TestFaultStreamUnseededWithoutDraws: partitions, downed links, muted
// senders and fixed delays decide without randomness, so sends under them
// leave the fault stream unseeded.
func TestFaultStreamUnseededWithoutDraws(t *testing.T) {
	s, ft, rx := newSimTransport(t, 4, 3)
	ft.SetLinkDown(1, 0, true)
	ft.SetNodeMuted(2, true)
	ft.SetPartitioned(3, true)
	ft.SetDelay(2, 2)
	ft.SetLinkDelay(0, 1, 1, 1)
	ft.SetDuplication(0)
	ft.SetReordering(0.5, 0) // no room to reorder: off
	for i := 0; i < 100; i++ {
		for from := netem.NodeID(0); from < 4; from++ {
			for to := netem.NodeID(0); to < 4; to++ {
				if err := ft.Send(from, to, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s.Run()
	if ft.rng != nil {
		t.Fatal("sends that draw nothing seeded the fault stream")
	}
	if len(*rx) == 0 || ft.Stats().Slowed == 0 {
		t.Fatalf("nothing delivered or slowed: %d messages, stats %+v", len(*rx), ft.Stats())
	}
}

// TestFaultStreamMatchesEagerSeed: a transport whose stream is seeded on
// its first draw — here mid-run, when loss, duplication, reordering and a
// delay range switch on after a quiet stretch — decides every send as one
// seeded up front, and leaves its stream at the same position.
func TestFaultStreamMatchesEagerSeed(t *testing.T) {
	const seed = 11
	type delivery struct {
		at  sim.Time
		msg netem.Message
	}
	run := func(eager bool) ([]delivery, Stats, *FaultableTransport) {
		s := sim.New()
		nw, err := netem.NewNetwork(s, netem.LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ft := Wrap(nw, netem.SimClock{Sim: s}, seed)
		if eager {
			ft.rng = sim.NewStream(seed)
		}
		var got []delivery
		for id := netem.NodeID(0); id < 3; id++ {
			if err := ft.Register(id, func(m netem.Message) {
				m.Payload = append([]byte(nil), m.Payload...)
				got = append(got, delivery{s.Now(), m})
			}); err != nil {
				t.Fatal(err)
			}
		}
		send := func(round int) {
			for from := netem.NodeID(0); from < 3; from++ {
				to := (from + 1) % 3
				if err := ft.Send(from, to, []byte{byte(round), byte(from)}); err != nil {
					t.Fatal(err)
				}
			}
			s.RunUntil(s.Now() + 1)
		}
		for round := 0; round < 20; round++ {
			send(round)
		}
		if !eager && ft.rng != nil {
			t.Fatal("the quiet stretch seeded the fault stream")
		}
		ft.SetLoss(&GilbertElliott{PGoodBad: 0.2, PBadGood: 0.4, LossGood: 0.05, LossBad: 0.8})
		ft.SetDuplication(0.2)
		ft.SetReordering(0.3, 4)
		ft.SetLinkDelay(0, 1, 1, 5)
		for round := 20; round < 300; round++ {
			send(round)
		}
		s.Run()
		return got, ft.Stats(), ft
	}
	lazyGot, lazyStats, lazy := run(false)
	eagerGot, eagerStats, eager := run(true)
	if lazyStats != eagerStats {
		t.Fatalf("stats differ:\n lazy  %+v\n eager %+v", lazyStats, eagerStats)
	}
	if lazyStats.DroppedLoss == 0 || lazyStats.Duplicated == 0 || lazyStats.Delayed == 0 || lazyStats.Slowed == 0 {
		t.Fatalf("some fault never drew: %+v", lazyStats)
	}
	if !reflect.DeepEqual(lazyGot, eagerGot) {
		t.Fatal("deliveries differ between the lazily and the eagerly seeded stream")
	}
	for i := 0; i < 100; i++ {
		if l, e := lazy.rng.Int63(), eager.rng.Int63(); l != e {
			t.Fatalf("draw %d after the run: lazy stream %d, eager stream %d", i, l, e)
		}
	}
}
