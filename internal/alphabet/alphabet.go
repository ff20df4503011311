// Package alphabet owns the event vocabulary the timed-automata models and
// the detector runtime share: every action either side can name is a Label
// — a Kind plus up to two integers — and the text a human reads is produced
// here and nowhere else. internal/models puts Labels on its edges,
// internal/ta and internal/mc carry them through successors, transition
// systems and witnesses, internal/conform records and checks them, and
// strings appear only where a report or an export is written.
//
// The grammar is the table below, one row per kind: "%" stands for an
// argument, rendered in canonical decimal (strconv.Itoa's form). An
// argument a row does not render is not part of the label: labels that
// render alike are alike to an Index too.
package alphabet

import (
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the alphabet.
type Kind uint8

// The kinds, grouped as DESIGN.md "Event alphabet" tabulates them. A is the
// process the label is about unless noted.
const (
	// Tau is the internal step: an edge with no label, or a transition an
	// LTS hides. It is the zero Kind, so the zero Label is tau.
	Tau Kind = iota

	// Tick is the passage of one time unit in the model LTS.
	Tick

	// Visible: model actions the runtime observes.
	SendBeat
	SendJoin
	SendLeave
	DecideLeave
	DeliverBeat    // p[0]'s beat arriving at p[A]
	DeliverBeatP0  // p[A]'s beat arriving at p[0]
	DeliverJoinP0  // p[A]'s solicitation arriving at p[0]; on the wire a DeliverBeatP0
	DeliverLeaveP0 // p[A]'s leave beat arriving at p[0]
	Timeout
	Inactivate // non-voluntary
	Crash      // voluntary inactivation

	// Hidden: model actions that leave no runtime event; tau steps of a
	// conformance specification.
	Start
	LoseBeatTo
	LoseBeatFrom
	LoseJoinFrom
	LoseLeaveFrom
	NoReply
	SuppressJoin
	ErrorR1
	ErrorShutdown

	// Runtime-only: mechanisms with no model counterpart.
	DeliverLeaveAck
	SendLeaveAck // p[0] acknowledging p[A]'s leave
	Rejoin
	Restart
	DeliverStray // a beat from p[B], not the coordinator, arriving at p[A]
	Retune       // p[0] moving to the operating point (tmin A, tmax B)

	// Figure-only: the isolated processes of Figures 1 and 2
	// (models.BuildIsolatedP0/P1), spelled as the figures spell them.
	FigVInactivate
	FigNVInactivate
	FigTimeout
	FigBeatFor  // a beat of p[B] sent for p[A]
	FigBeatFrom // beat hb[B] received from p[A]

	// NumKinds bounds the enumeration; a Label whose Kind is not below it
	// is outside every alphabet.
	NumKinds
)

// lane is where a message-sequence chart draws a kind (internal/trace).
type lane uint8

const (
	laneChannel lane = iota // the channel lane
	laneA                   // p[A]'s lane; the channel lane for a negative A
	laneP0                  // p[0]'s lane
)

// table is the grammar and the classification, one row per kind.
var table = [NumKinds]struct {
	text     string
	hidden   bool
	byDesign bool
	lane     lane
}{
	Tau:  {text: "tau", hidden: true},
	Tick: {text: "tick"},

	SendBeat:       {text: "p[%]: send beat", lane: laneA},
	SendJoin:       {text: "p[%]: send join beat", lane: laneA},
	SendLeave:      {text: "p[%]: send leave beat", byDesign: true, lane: laneA},
	DecideLeave:    {text: "p[%]: decide leave", byDesign: true, lane: laneA},
	DeliverBeat:    {text: "deliver beat to p[%]"},
	DeliverBeatP0:  {text: "deliver beat to p[0] from p[%]"},
	DeliverJoinP0:  {text: "deliver join beat to p[0] from p[%]"},
	DeliverLeaveP0: {text: "deliver leave beat to p[0] from p[%]", byDesign: true},
	Timeout:        {text: "timeout p[%]", lane: laneA},
	Inactivate:     {text: "inactivate nv p[%]", lane: laneA},
	Crash:          {text: "crash p[%]", lane: laneA},

	Start:        {text: "p[%]: start", hidden: true, lane: laneA},
	LoseBeatTo:   {text: "lose beat to p[%]", hidden: true},
	LoseBeatFrom: {text: "lose beat from p[%]", hidden: true},
	LoseJoinFrom: {text: "lose join beat from p[%]", hidden: true},
	// byDesign with the rest of the leave handshake; being hidden it never
	// reaches a checker's event path.
	LoseLeaveFrom: {text: "lose leave beat from p[%]", hidden: true, byDesign: true},
	NoReply:       {text: "p[%] gives no reply", hidden: true},
	SuppressJoin:  {text: "p[%]: suppress duplicate join", hidden: true, lane: laneA},
	ErrorR1:       {text: "error R1 p[%]", hidden: true, lane: laneA},
	ErrorShutdown: {text: "error shutdown", hidden: true},

	DeliverLeaveAck: {text: "deliver leave ack to p[%]", byDesign: true},
	SendLeaveAck:    {text: "p[0]: send leave ack to p[%]", byDesign: true, lane: laneP0},
	Rejoin:          {text: "p[%]: rejoin", byDesign: true, lane: laneA},
	Restart:         {text: "p[%]: restart", byDesign: true, lane: laneA},
	DeliverStray:    {text: "deliver stray beat to p[%] from p[%]", byDesign: true},
	Retune:          {text: "p[0]: retune to (%,%)", lane: laneP0},

	FigVInactivate:  {text: "inactivate v p%"},
	FigNVInactivate: {text: "inactivate nv p%"},
	FigTimeout:      {text: "timeout at P%"},
	FigBeatFor:      {text: "for p%(hb%)"},
	FigBeatFrom:     {text: "from p%(hb%)"},
}

// arity counts the arguments each kind's text renders.
var arity = func() (n [NumKinds]int) {
	for k, row := range table {
		n[k] = strings.Count(row.text, "%")
	}
	return n
}()

// Observable reports whether the runtime can see an action of kind k. The
// unobservable kinds become internal steps of a conformance specification.
func (k Kind) Observable() bool { return k >= NumKinds || !table[k].hidden }

// Wire returns the kind the runtime observes for k: a join solicitation is
// an ordinary beat on the wire, so its delivery is a DeliverBeatP0.
func (k Kind) Wire() Kind {
	if k == DeliverJoinP0 {
		return DeliverBeatP0
	}
	return k
}

// ByDesign reports the kinds the conformance scope excludes on purpose:
// the runtime's leaver-initiated leave handshake, supervisor restarts,
// churn rejoins and the stray beats a departed or restarted node may still
// receive. A divergence at one of them is confirmed, not a failure.
func (k Kind) ByDesign() bool { return k < NumKinds && table[k].byDesign }

// Of returns the label of kind k about process a.
func (k Kind) Of(a int) Label { return Label{Kind: k, A: int32(a)} }

// Label is one action of the alphabet. A and B are the arguments of Kind's
// table row, in order; a row with fewer ignores the rest.
type Label struct {
	Kind Kind
	A, B int32
}

// String renders l. It is total: a Kind outside the enumeration renders as
// "unknown kind" with both arguments.
func (l Label) String() string {
	var buf [80]byte
	b := buf[:0]
	if l.Kind >= NumKinds {
		b = strconv.AppendInt(append(b, "unknown kind "...), int64(l.Kind), 10)
		b = strconv.AppendInt(append(b, " ("...), int64(l.A), 10)
		b = strconv.AppendInt(append(b, ','), int64(l.B), 10)
		return string(append(b, ')'))
	}
	text, arg := table[l.Kind].text, [2]int32{l.A, l.B}
	for i, n := 0, 0; i < len(text); i++ {
		if text[i] != '%' {
			b = append(b, text[i])
			continue
		}
		b = strconv.AppendInt(b, int64(arg[n]), 10)
		n++
	}
	return string(b)
}

// Lane returns the process whose lane of a message-sequence chart l is drawn
// in, and false for the channel lane: the lane of every kind outside the
// enumeration, and of a label about a negative process.
func (l Label) Lane() (int32, bool) {
	switch {
	case l.Kind >= NumKinds:
		return 0, false
	case table[l.Kind].lane == laneA:
		return l.A, l.A >= 0
	}
	return 0, table[l.Kind].lane == laneP0
}

// canonical zeroes the arguments l's row does not render, and reports
// false for a kind outside the enumeration.
func (l Label) canonical() (Label, bool) {
	if l.Kind >= NumKinds {
		return l, false
	}
	switch arity[l.Kind] {
	case 0:
		l.A = 0
		fallthrough
	case 1:
		l.B = 0
	}
	return l, true
}

// Index numbers labels densely, for tables indexed by label: kind-major,
// then A, then B, over the arguments [0, maxA] × [0, maxB] of the labels it
// has been widened to cover. Only the arguments a kind renders count, so
// labels that render alike share an id. The zero Index covers exactly the
// labels whose rendered arguments are 0 — tau and tick among them.
type Index struct{ maxA, maxB int32 }

// Cover widens x to number l. It reports false, leaving x as it was, for a
// label no Index numbers: one outside the enumeration, one with a negative
// argument, or one that would take Len past math.MaxInt32.
func (x *Index) Cover(l Label) bool {
	l, ok := l.canonical()
	if !ok || l.A < 0 || l.B < 0 {
		return false
	}
	w := Index{maxA: max(x.maxA, l.A), maxB: max(x.maxB, l.B)}
	if (int64(w.maxA)+1)*(int64(w.maxB)+1) > math.MaxInt32/int64(NumKinds) {
		return false
	}
	*x = w
	return true
}

// Len is the number of ids: every id lies in [0, Len).
func (x Index) Len() int { return int(NumKinds) * int(x.maxA+1) * int(x.maxB+1) }

// ID returns l's id, and false when x does not cover l.
func (x Index) ID(l Label) (int, bool) {
	l, ok := l.canonical()
	if !ok || uint32(l.A) > uint32(x.maxA) || uint32(l.B) > uint32(x.maxB) {
		return 0, false
	}
	return (int(l.Kind)*int(x.maxA+1)+int(l.A))*int(x.maxB+1) + int(l.B), true
}

// Label returns the label numbered id, with the arguments its row does not
// render zero: ID's inverse.
func (x Index) Label(id int) Label {
	nA, nB := int(x.maxA+1), int(x.maxB+1)
	return Label{Kind: Kind(id / nB / nA), A: int32(id / nB % nA), B: int32(id % nB)}
}
