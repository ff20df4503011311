package models

import (
	"testing"

	"repro/internal/alphabet"
	"repro/internal/ta"
)

// TestEveryModelLabelParses holds the models to the alphabet package, the
// single owner of the label vocabulary: every edge label of every variant
// is of an enumerated kind about a process the model has — p[0], a
// participant, or either, as the table below says — and the three
// classifications conformance builds on agree with the table —
// transcribed from the string rules conformance applied before the
// alphabet had an owner (hide "lose …", "… gives no reply", "… suppress
// duplicate join", "error R1 …" and "p[0]: start"; rewrite "deliver join
// beat" to "deliver beat"; confirm anything containing "leave"). Unlabelled
// edges are tau. The isolated processes of Figures 1 and 2 carry figure
// kinds and nothing else.
func TestEveryModelLabelParses(t *testing.T) {
	type class struct {
		p0, peers bool // about p[0], about a participant
		hidden    bool
		wire      alphabet.Kind // what the runtime observes, when not the kind itself
		byDesign  bool
	}
	want := map[alphabet.Kind]class{
		alphabet.Tau:        {p0: true, hidden: true},
		alphabet.SendBeat:   {p0: true, peers: true},
		alphabet.Start:      {p0: true, hidden: true},
		alphabet.Crash:      {p0: true, peers: true},
		alphabet.Timeout:    {p0: true},
		alphabet.Inactivate: {p0: true, peers: true},

		alphabet.SendJoin:       {peers: true},
		alphabet.SuppressJoin:   {peers: true, hidden: true},
		alphabet.SendLeave:      {peers: true, byDesign: true},
		alphabet.DecideLeave:    {peers: true, byDesign: true},
		alphabet.DeliverBeat:    {peers: true},
		alphabet.LoseBeatTo:     {peers: true, hidden: true},
		alphabet.NoReply:        {peers: true, hidden: true},
		alphabet.DeliverBeatP0:  {peers: true},
		alphabet.LoseBeatFrom:   {peers: true, hidden: true},
		alphabet.DeliverLeaveP0: {peers: true, byDesign: true},
		alphabet.LoseLeaveFrom:  {peers: true, hidden: true, byDesign: true},
		alphabet.DeliverJoinP0:  {peers: true, wire: alphabet.DeliverBeatP0},
		alphabet.LoseJoinFrom:   {peers: true, hidden: true},
		alphabet.ErrorR1:        {peers: true, hidden: true},
	}
	// seen marks each kind about p[0] (A 0) and about a participant (A 1).
	seen := map[alphabet.Label]bool{}
	for _, v := range Variants {
		for _, fixed := range []bool{false, true} {
			for n := 1; n <= 2; n++ {
				m, err := Build(Config{TMin: 2, TMax: 4, Variant: v, N: n, Fixed: fixed, MonitorAll: true})
				if err != nil {
					t.Fatal(err)
				}
				eachLabel(m.Net, func(aut string, l alphabet.Label) {
					if l.Kind >= alphabet.NumKinds || l.A < 0 || int(l.A) > n || l.B != 0 {
						t.Fatalf("%v n=%d: edge label %+v of %s is outside the model's alphabet", v, n, l, aut)
					}
					c, ok := want[l.Kind]
					if !ok || l.A == 0 && !c.p0 || l.A > 0 && !c.peers {
						t.Fatalf("%v n=%d: edge label %q of %s is not in the table", v, n, l, aut)
					}
					seen[alphabet.Label{Kind: l.Kind, A: min(l.A, 1)}] = true
					wire := c.wire
					if wire == 0 {
						wire = l.Kind
					}
					if got := l.Kind.Observable(); got == c.hidden {
						t.Errorf("%q: Observable = %v", l, got)
					}
					if got := l.Kind.Wire(); got != wire {
						t.Errorf("%q: on the wire %v, want %v", l, alphabet.Label{Kind: got}, alphabet.Label{Kind: wire})
					}
					if got := l.Kind.ByDesign(); got != c.byDesign {
						t.Errorf("%q: ByDesign = %v", l, got)
					}
				})
			}
		}
	}
	for k, c := range want {
		if c.p0 && !seen[k.Of(0)] || c.peers && !seen[k.Of(1)] {
			t.Errorf("no model has an edge of kind %v about each process the table names", alphabet.Label{Kind: k})
		}
	}

	figure := map[alphabet.Kind]bool{
		alphabet.Tau: true, alphabet.FigVInactivate: true, alphabet.FigNVInactivate: true,
		alphabet.FigTimeout: true, alphabet.FigBeatFor: true, alphabet.FigBeatFrom: true,
	}
	for _, build := range []func(tmin, tmax int32) (*ta.Network, error){BuildIsolatedP0, BuildIsolatedP1} {
		net, err := build(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		eachLabel(net, func(aut string, l alphabet.Label) {
			if !figure[l.Kind] || l.A < 0 || l.A > 1 || l.B < 0 || l.B > 1 {
				t.Errorf("figure edge label %+v (%q) of %s is not a figure label", l, l, aut)
			}
		})
	}
}

// eachLabel calls f with every edge label of the network and the name of
// the automaton it belongs to.
func eachLabel(net *ta.Network, f func(aut string, l alphabet.Label)) {
	for _, a := range net.Automata() {
		for _, e := range a.Edges {
			f(a.Name, e.Label)
		}
	}
}
