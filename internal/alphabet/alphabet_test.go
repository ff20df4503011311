package alphabet

import (
	"math"
	"testing"
)

// TestRoundTrip: every label an Index covers comes back from its id with
// the arguments its row does not render zero, and two ids never render the
// same text — the table's rows do not overlap, so an id stands for a text.
func TestRoundTrip(t *testing.T) {
	var x Index
	if !x.Cover(Label{Kind: Retune, A: 64, B: 120}) {
		t.Fatal("Cover refused a small label")
	}
	texts := map[string]int{}
	for k := Kind(0); k < NumKinds; k++ {
		for _, ab := range [][2]int32{{0, 0}, {1, 2}, {64, 7}, {3, 120}} {
			l := Label{Kind: k, A: ab[0], B: ab[1]}
			id, ok := x.ID(l)
			if !ok {
				t.Fatalf("%+v is not covered", l)
			}
			want := l
			switch arity[k] {
			case 0:
				want.A, want.B = 0, 0
			case 1:
				want.B = 0
			}
			if got := x.Label(id); got != want {
				t.Fatalf("%+v has id %d, which is %+v", l, id, got)
			}
			if other, ok := texts[l.String()]; ok && other != id {
				t.Fatalf("%q is the text of ids %d and %d", l.String(), other, id)
			}
			texts[l.String()] = id
		}
	}
}

// TestIndexBounds: an Index numbers exactly the labels it was widened to
// cover, densely, and refuses what it cannot number — leaving itself as it
// was.
func TestIndexBounds(t *testing.T) {
	var x Index
	if x.Len() != int(NumKinds) {
		t.Fatalf("the zero Index has %d ids, want one per kind", x.Len())
	}
	if id, ok := x.ID(Label{}); !ok || id != 0 {
		t.Fatalf("tau has id %d, %v; want 0", id, ok)
	}
	if _, ok := x.ID(SendBeat.Of(1)); ok {
		t.Fatal("the zero Index numbers p[1]")
	}
	// An argument the row does not render widens nothing.
	if !x.Cover(Label{Kind: Tick, A: 9, B: 9}) || x.Len() != int(NumKinds) {
		t.Fatalf("covering tick widened the index to %d ids", x.Len())
	}
	if !x.Cover(SendBeat.Of(2)) || x.Len() != 3*int(NumKinds) {
		t.Fatalf("covering p[2] gives %d ids, want %d", x.Len(), 3*int(NumKinds))
	}
	for _, l := range []Label{
		{Kind: NumKinds}, {Kind: 255, A: 1}, SendBeat.Of(-1), {Kind: Retune, A: 2, B: -8},
		Crash.Of(math.MaxInt32), {Kind: Retune, A: 1 << 16, B: 1 << 16},
	} {
		before := x
		if x.Cover(l) || x != before {
			t.Errorf("Cover(%+v) accepted it, or changed the index", l)
		}
		if _, ok := x.ID(l); ok {
			t.Errorf("%+v has an id", l)
		}
	}
	// The largest index Cover admits stays within int32.
	big := Index{}
	if !big.Cover(Crash.Of(math.MaxInt32/int(NumKinds) - 1)) {
		t.Fatal("Cover refused the largest index")
	}
	if n := big.Len(); n > math.MaxInt32 || n < math.MaxInt32-int(NumKinds) {
		t.Fatalf("the largest index has %d ids", n)
	}
}

// TestRenderings pins the texts the models, the goldens and the figures
// were written with, and the one total-rendering rule for a Kind outside
// the enumeration.
func TestRenderings(t *testing.T) {
	for _, tc := range []struct {
		l    Label
		want string
	}{
		{Label{}, "tau"},
		{Label{Kind: Tick}, "tick"},
		{SendBeat.Of(0), "p[0]: send beat"},
		{DeliverBeatP0.Of(3), "deliver beat to p[0] from p[3]"},
		{DeliverBeatP0.Of(-3), "deliver beat to p[0] from p[-3]"},
		{DeliverJoinP0.Of(1), "deliver join beat to p[0] from p[1]"},
		{Timeout.Of(0), "timeout p[0]"},
		{NoReply.Of(2), "p[2] gives no reply"},
		{Label{Kind: ErrorShutdown, A: 9}, "error shutdown"},
		{SendLeaveAck.Of(3), "p[0]: send leave ack to p[3]"},
		{Label{Kind: DeliverStray, A: 2, B: 10}, "deliver stray beat to p[2] from p[10]"},
		{Label{Kind: Retune, A: 2, B: 8}, "p[0]: retune to (2,8)"},
		{FigVInactivate.Of(0), "inactivate v p0"},
		{FigNVInactivate.Of(1), "inactivate nv p1"},
		{FigTimeout.Of(0), "timeout at P0"},
		{Label{Kind: FigBeatFor, A: 1, B: 0}, "for p1(hb0)"},
		{Label{Kind: FigBeatFrom, A: 0, B: 0}, "from p0(hb0)"},
		{Label{Kind: 200, A: 1, B: -2}, "unknown kind 200 (1,-2)"},
	} {
		if got := tc.l.String(); got != tc.want {
			t.Errorf("%+v renders %q, want %q", tc.l, got, tc.want)
		}
	}
}

// TestClassification pins the three classifications kind by kind.
func TestClassification(t *testing.T) {
	hidden := map[Kind]bool{
		Tau: true, Start: true, LoseBeatTo: true, LoseBeatFrom: true, LoseJoinFrom: true, LoseLeaveFrom: true,
		NoReply: true, SuppressJoin: true, ErrorR1: true, ErrorShutdown: true,
	}
	byDesign := map[Kind]bool{
		SendLeave: true, DecideLeave: true, DeliverLeaveP0: true, LoseLeaveFrom: true,
		DeliverLeaveAck: true, SendLeaveAck: true, Rejoin: true, Restart: true, DeliverStray: true,
	}
	for k := Kind(0); k < NumKinds+2; k++ {
		if got := k.Observable(); got == hidden[k] {
			t.Errorf("kind %d (%s): Observable = %v", k, Label{Kind: k}, got)
		}
		if got := k.ByDesign(); got != byDesign[k] {
			t.Errorf("kind %d (%s): ByDesign = %v", k, Label{Kind: k}, got)
		}
		want := k
		if k == DeliverJoinP0 {
			want = DeliverBeatP0
		}
		if got := k.Wire(); got != want {
			t.Errorf("kind %d (%s): Wire = %d, want %d", k, Label{Kind: k}, got, want)
		}
	}
}
