// Package alphabet owns the event vocabulary the timed-automata models and
// the detector runtime share: every action either side can name is a Label
// — a Kind plus up to two integers — and the text a human reads is produced
// and accepted here and nowhere else. internal/models labels its edges by
// rendering Labels, internal/conform records and checks them as values, and
// strings reappear only in reports.
//
// The grammar is the table below, one row per kind: "%" stands for an
// argument, rendered in canonical decimal (strconv.Itoa's form). Parse is
// the exact inverse of String on the enumerated kinds — it rejects signs,
// leading zeros and trailing bytes, so a malformed text cannot impersonate
// a real label ("crash p[01]" is not p[1] crashing).
package alphabet

import "strconv"

// Kind enumerates the alphabet.
type Kind uint8

// The kinds, grouped as DESIGN.md "Event alphabet" tabulates them. A is the
// process the label is about unless noted.
const (
	// Tick is the passage of one time unit in the model LTS.
	Tick Kind = iota

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

	// NumKinds bounds the enumeration; a Label whose Kind is not below it
	// is outside every alphabet.
	NumKinds
)

// table is the grammar and the classification, one row per kind.
var table = [NumKinds]struct {
	text     string
	hidden   bool
	byDesign bool
}{
	Tick: {text: "tick"},

	SendBeat:       {text: "p[%]: send beat"},
	SendJoin:       {text: "p[%]: send join beat"},
	SendLeave:      {text: "p[%]: send leave beat", byDesign: true},
	DecideLeave:    {text: "p[%]: decide leave", byDesign: true},
	DeliverBeat:    {text: "deliver beat to p[%]"},
	DeliverBeatP0:  {text: "deliver beat to p[0] from p[%]"},
	DeliverJoinP0:  {text: "deliver join beat to p[0] from p[%]"},
	DeliverLeaveP0: {text: "deliver leave beat to p[0] from p[%]", byDesign: true},
	Timeout:        {text: "timeout p[%]"},
	Inactivate:     {text: "inactivate nv p[%]"},
	Crash:          {text: "crash p[%]"},

	Start:        {text: "p[%]: start", hidden: true},
	LoseBeatTo:   {text: "lose beat to p[%]", hidden: true},
	LoseBeatFrom: {text: "lose beat from p[%]", hidden: true},
	LoseJoinFrom: {text: "lose join beat from p[%]", hidden: true},
	// byDesign with the rest of the leave handshake; being hidden it never
	// reaches a checker's event path.
	LoseLeaveFrom: {text: "lose leave beat from p[%]", hidden: true, byDesign: true},
	NoReply:       {text: "p[%] gives no reply", hidden: true},
	SuppressJoin:  {text: "p[%]: suppress duplicate join", hidden: true},
	ErrorR1:       {text: "error R1 p[%]", hidden: true},
	ErrorShutdown: {text: "error shutdown", hidden: true},

	DeliverLeaveAck: {text: "deliver leave ack to p[%]", byDesign: true},
	SendLeaveAck:    {text: "p[0]: send leave ack to p[%]", byDesign: true},
	Rejoin:          {text: "p[%]: rejoin", byDesign: true},
	Restart:         {text: "p[%]: restart", byDesign: true},
	DeliverStray:    {text: "deliver stray beat to p[%] from p[%]", byDesign: true},
	Retune:          {text: "p[0]: retune to (%,%)"},
}

// form is a table text cut at its "%"s: part[0] A part[1] B part[2].
type form struct {
	part [3]string
	args int
}

var forms = func() (fs [NumKinds]form) {
	for k, row := range table {
		f, start := &fs[k], 0
		for i := 0; i < len(row.text); i++ {
			if row.text[i] == '%' {
				f.part[f.args] = row.text[start:i]
				f.args++
				start = i + 1
			}
		}
		f.part[f.args] = row.text[start:]
	}
	return fs
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
// a text Parse rejects.
func (l Label) String() string {
	var buf [80]byte
	b := buf[:0]
	if l.Kind >= NumKinds {
		b = strconv.AppendInt(append(b, "unknown kind "...), int64(l.Kind), 10)
		b = strconv.AppendInt(append(b, " ("...), int64(l.A), 10)
		b = strconv.AppendInt(append(b, ','), int64(l.B), 10)
		return string(append(b, ')'))
	}
	f, args := &forms[l.Kind], [2]int32{l.A, l.B}
	b = append(b, f.part[0]...)
	for i, arg := range args[:f.args] {
		b = append(strconv.AppendInt(b, int64(arg), 10), f.part[i+1]...)
	}
	return string(b)
}

// Parse is the inverse of String on the enumerated kinds: it accepts s
// exactly when some Label renders to it, and returns that Label with its
// unused arguments zero.
func Parse(s string) (Label, bool) {
	for k := range forms {
		if args, ok := forms[k].match(s); ok {
			return Label{Kind: Kind(k), A: args[0], B: args[1]}, true
		}
	}
	return Label{}, false
}

func (f *form) match(s string) (args [2]int32, ok bool) {
	rest, ok := cutPrefix(s, f.part[0])
	for i := 0; ok && i < f.args; i++ {
		n := 0
		for n < len(rest) && (rest[n] == '-' || '0' <= rest[n] && rest[n] <= '9') {
			n++
		}
		if args[i], ok = atoi(rest[:n]); ok {
			rest, ok = cutPrefix(rest[n:], f.part[i+1])
		}
	}
	return args, ok && rest == ""
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) < len(prefix) || s[:len(prefix)] != prefix {
		return s, false
	}
	return s[len(prefix):], true
}

// atoi parses a canonical decimal int32: what strconv.Itoa renders and
// nothing else (ParseInt alone also takes "+2", "02" and "-0").
func atoi(s string) (int32, bool) {
	digits := s
	if digits != "" && digits[0] == '-' {
		digits = digits[1:]
	}
	if digits == "" || digits[0] == '-' || digits[0] == '0' && s != "0" {
		return 0, false
	}
	v, err := strconv.ParseInt(s, 10, 32)
	return int32(v), err == nil
}
