package models

import (
	"strings"
	"testing"

	"repro/internal/alphabet"
)

// TestEveryModelLabelParses holds the protocol models to the alphabet
// package, the single owner of the label grammar: every edge label of
// every variant round-trips through alphabet.Parse, and the three
// classifications conformance builds on agree with the table below —
// transcribed, text by text, from the string rules conformance applied
// before the alphabet had an owner (hide "lose …", "… gives no reply",
// "… suppress duplicate join", "error R1 …" and "p[0]: start"; rewrite
// "deliver join beat" to "deliver beat"; confirm anything containing
// "leave"). "#" stands for a participant's number.
func TestEveryModelLabelParses(t *testing.T) {
	type class struct {
		hidden   bool
		wire     string // what the runtime observes, when not the label itself
		byDesign bool
	}
	want := map[string]class{
		"p[0]: send beat":    {},
		"p[0]: start":        {hidden: true},
		"crash p[0]":         {},
		"timeout p[0]":       {},
		"inactivate nv p[0]": {},

		"p[#]: send beat":                      {},
		"p[#]: send join beat":                 {},
		"p[#]: suppress duplicate join":        {hidden: true},
		"p[#]: send leave beat":                {byDesign: true},
		"p[#]: decide leave":                   {byDesign: true},
		"inactivate nv p[#]":                   {},
		"crash p[#]":                           {},
		"deliver beat to p[#]":                 {},
		"lose beat to p[#]":                    {hidden: true},
		"p[#] gives no reply":                  {hidden: true},
		"deliver beat to p[0] from p[#]":       {},
		"lose beat from p[#]":                  {hidden: true},
		"deliver leave beat to p[0] from p[#]": {byDesign: true},
		"lose leave beat from p[#]":            {hidden: true, byDesign: true},
		"deliver join beat to p[0] from p[#]":  {wire: "deliver beat to p[0] from p[#]"},
		"lose join beat from p[#]":             {hidden: true},
		"error R1 p[#]":                        {hidden: true},
	}
	seen := map[string]bool{}
	for _, v := range []Variant{Binary, RevisedBinary, TwoPhase, Static, Expanding, Dynamic} {
		for _, fixed := range []bool{false, true} {
			for n := 1; n <= 2; n++ {
				m, err := Build(Config{TMin: 2, TMax: 4, Variant: v, N: n, Fixed: fixed, MonitorAll: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range m.Net.Automata() {
					for _, e := range a.Edges {
						if e.Label == "" {
							continue
						}
						l, ok := alphabet.Parse(e.Label)
						if !ok || l.String() != e.Label {
							t.Fatalf("%v n=%d: edge label %q of %s parses as %+v, %v", v, n, e.Label, a.Name, l, ok)
						}
						shape, proc := e.Label, ""
						if l.A != 0 {
							proc = "p[" + string(rune('0'+l.A)) + "]"
							shape = strings.Replace(e.Label, proc, "p[#]", 1)
						}
						c, ok := want[shape]
						if !ok {
							t.Fatalf("%v n=%d: edge label %q of %s is not in the table", v, n, e.Label, a.Name)
						}
						seen[shape] = true
						wire := e.Label
						if c.wire != "" {
							wire = strings.Replace(c.wire, "p[#]", proc, 1)
						}
						if got := l.Kind.Observable(); got == c.hidden {
							t.Errorf("%q: Observable = %v", e.Label, got)
						}
						if got := l.Kind.Wire().Of(int(l.A)).String(); got != wire {
							t.Errorf("%q: on the wire %q, want %q", e.Label, got, wire)
						}
						if got := l.Kind.ByDesign(); got != c.byDesign {
							t.Errorf("%q: ByDesign = %v", e.Label, got)
						}
					}
				}
			}
		}
	}
	for shape := range want {
		if !seen[shape] {
			t.Errorf("no model has an edge labelled %q", shape)
		}
	}
}
