package alphabet

import (
	"math"
	"testing"
)

// TestRoundTrip: every kind renders to a text that parses back to the same
// label and to no other kind — the table's rows do not overlap.
func TestRoundTrip(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		for _, args := range [][2]int32{{0, 0}, {1, 2}, {64, 7}, {-3, 120}, {math.MaxInt32, math.MinInt32}} {
			want := Label{Kind: k, A: args[0], B: args[1]}
			// Parse zeroes the arguments the row does not render.
			switch forms[k].args {
			case 0:
				want.A, want.B = 0, 0
			case 1:
				want.B = 0
			}
			s := want.String()
			got, ok := Parse(s)
			if !ok || got != want {
				t.Fatalf("Parse(%q) = %+v, %v, want %+v", s, got, ok, want)
			}
			for other := range forms {
				if _, ok := forms[other].match(s); ok && Kind(other) != k {
					t.Fatalf("%q matches kind %d as well as kind %d", s, other, k)
				}
			}
		}
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
		{Label{Kind: NumKinds + 3, A: 1, B: -2}, "unknown kind 30 (1,-2)"},
	} {
		if got := tc.l.String(); got != tc.want {
			t.Errorf("%+v renders %q, want %q", tc.l, got, tc.want)
		}
	}
	if _, ok := Parse(Label{Kind: NumKinds}.String()); ok {
		t.Error("Parse accepted the rendering of a Kind outside the enumeration")
	}
}

// TestParseStrict: texts that are nearly a label are not one.
func TestParseStrict(t *testing.T) {
	for _, s := range []string{
		"", "tick ", " tick", "p[1]: frobnicate",
		"crash p[01]", "crash p[]", "crash p[+1]", "crash p[-0]", "crash p[--1]", "crash p[1-2]",
		"crash p[1] ", "crash p[1]]", "crash p[99999999999999999999]", "crash p[2147483648]",
		"inactivate nv p[007]", "deliver beat to p[0] from p[00]",
		"p[0]: retune to (2,4)x", "p[0]: retune to (+2,4)", "p[0]: retune to (2, 4)",
		"p[0]: retune to (2,4", "p[0]: retune to (02,4)", "p[0]: retune to 2,4",
		"p[1]: retune to (2,4)", "p[1]: send leave ack to p[2]", "error shutdown p[1]",
	} {
		if l, ok := Parse(s); ok {
			t.Errorf("Parse(%q) accepted it as %+v", s, l)
		}
	}
}

// TestClassification pins the three classifications kind by kind.
func TestClassification(t *testing.T) {
	hidden := map[Kind]bool{
		Start: true, LoseBeatTo: true, LoseBeatFrom: true, LoseJoinFrom: true, LoseLeaveFrom: true,
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

// FuzzParseLabel: whatever Parse accepts is exactly what String renders,
// so no malformed text can stand for a label.
func FuzzParseLabel(f *testing.F) {
	for _, s := range []string{
		"tick", "p[1]: send beat", "deliver stray beat to p[1] from p[2]", "p[0]: retune to (2,8)",
		"crash p[01]", "p[0]: retune to (2,4)x", "p[0]: retune to (+2,4)", "inactivate nv p[007]",
		"crash p[99999999999999999999]", "deliver beat to p[0] from p[-3]",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		l, ok := Parse(s)
		if !ok {
			return
		}
		if l.Kind >= NumKinds {
			t.Fatalf("Parse(%q) returned kind %d, outside the enumeration", s, l.Kind)
		}
		if got := l.String(); got != s {
			t.Fatalf("Parse accepted %q as %+v, which renders %q", s, l, got)
		}
	})
}
