package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

// ParseSchedule parses the textual fault-schedule format used by scenario
// files and hbsim's -faults flag. Directives are separated by newlines or
// semicolons; '#' starts a comment. Each directive is a name followed by
// key=value fields (and, for loss and delay, the bare flag "all" in place
// of from/to):
//
//	seed 42
//	loss      t=0 all pgb=0.05 pbg=0.5 lg=0 lb=0.9   # Gilbert–Elliott
//	loss      t=0 from=1 to=0 pgb=0.1 pbg=0.5 lb=1
//	crash     t=100 node=1
//	restart   t=400 node=1
//	partition t=200 node=2
//	heal      t=400 node=2
//	linkdown  t=50 from=1 to=0
//	linkup    t=80 from=1 to=0
//	dup       t=0 prob=0.05
//	reorder   t=0 prob=0.1 maxdelay=3
//	drift     t=0 node=2 rate=102/100 skew=5
//	delay     t=0 from=0 to=1 mindelay=2 maxdelay=4
//	leave     t=100 node=2
//	rejoin    t=300 node=2
//
// A topo directive places nodes into racks and racks into zones; the
// topology directives after it expand to the primitive events above at
// parse time (Format renders the expansion, so round trips still hold):
//
//	topo      racks=0:0,1:0,2:1,3:1 zones=1:1
//	rackfail  t=100 rack=1            # linkdown on every boundary link
//	rackheal  t=300 rack=1
//	rackloss  t=100 rack=1 pgb=0.1 pbg=0.5 lb=0.9   # no GE fields clears
//	zonedelay t=50 from=0 to=1 mindelay=2 maxdelay=4 # one direction only
//	churn     t=100 stagger=10 down=40 nodes=1,2,3
//
// Every directive but seed and topo is one row of the directives table,
// which is the grammar's single definition: a directive accepts exactly
// the fields its row lists (t, or its alias at, is every row's), and
// Format renders exactly those. Omitted fields default to zero, except
// drift's rate, which defaults to 1/1.
//
// ParseSchedule additionally rejects overlapping fault windows: a
// partition of an already-partitioned node, a linkdown of a link that is
// already down, or a heal/linkup without a matching opener is an error
// rather than a silently collapsed window.
func ParseSchedule(text string) (*Schedule, error) {
	s := &Schedule{}
	var topo *Topology
	lines := strings.FieldsFunc(text, func(r rune) bool { return r == '\n' || r == ';' })
	for li, line := range lines {
		line, _, _ = strings.Cut(line, "#")
		words := strings.Fields(line)
		if len(words) == 0 {
			continue
		}
		var err error
		switch name, words := strings.ToLower(words[0]), words[1:]; name {
		case "seed":
			if len(words) != 1 {
				err = fmt.Errorf("%w: seed takes one value, got %q", ErrSchedule, line)
			} else if s.Seed, err = strconv.ParseInt(words[0], 10, 64); err != nil {
				err = fmt.Errorf("%w: bad seed %q", ErrSchedule, words[0])
			}
		case "topo":
			topo, err = parseTopo(words)
		default:
			var evs []Event
			evs, err = parseDirective(name, words, topo)
			s.Events = append(s.Events, evs...)
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", li+1, err)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := checkWindows(s); err != nil {
		return nil, err
	}
	return s, nil
}

// parseTopo parses "topo racks=node:rack,... [zones=rack:zone,...]".
func parseTopo(words []string) (*Topology, error) {
	t := &Topology{Racks: map[netem.NodeID]int{}, Zones: map[int]int{}}
	for _, w := range words {
		key, val, _ := strings.Cut(w, "=")
		var put func(a, b int)
		switch strings.ToLower(key) {
		case "racks":
			put = func(node, rack int) { t.Racks[netem.NodeID(node)] = rack }
		case "zones":
			put = func(rack, zone int) { t.Zones[rack] = zone }
		default:
			return nil, fmt.Errorf("%w: topo does not take %q", ErrSchedule, w)
		}
		for _, pair := range strings.Split(val, ",") {
			as, bs, _ := strings.Cut(pair, ":")
			a, err1 := strconv.Atoi(as)
			b, err2 := strconv.Atoi(bs)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("%w: %s wants a:b pairs, got %q", ErrSchedule, key, pair)
			}
			put(a, b)
		}
	}
	return t, t.Validate()
}

// directive is one row of the schedule grammar: a name, the Kind of the
// Event it parses to (none for a topology directive, which expand turns
// into primitive events instead), whether it takes the bare flag "all" in
// place of from/to, and its fields beyond t in the order Format renders
// them.
type directive struct {
	name   string
	kind   Kind
	all    bool
	fields []*field
	expand func(t *Topology, a *args) []Event
}

// args is what a directive's fields decode into: the Event of a primitive
// directive, plus the fields only topology directives take.
type args struct {
	Event
	rack          int
	stagger, down sim.Time
	nodes         []netem.NodeID
}

// ge returns the loss channel the Gilbert–Elliott fields fill, made by the
// first of them.
func (a *args) ge() *GilbertElliott {
	if a.GE == nil {
		a.GE = new(GilbertElliott)
	}
	return a.GE
}

// A field is one key=value codec: its key, how a value decodes into args,
// and how Format renders it back. Format leaves the field out when omit is
// set and reports true. A field's preset, if any, sets its default before a
// directive that takes the field is decoded; every other Event field starts
// at zero, as in an Event the Topology helpers build. Fields only topology
// directives take have no render: Format sees their expansion, never the
// directive.
type field struct {
	key    string
	decode func(a *args, v string) error
	render func(a *args) string
	omit   func(a *args) bool
	preset func(a *args)
}

// unless sets f's omit and returns f.
func (f *field) unless(omit func(a *args) bool) *field {
	f.omit = omit
	return f
}

// intField is a base-10 integer field stored at at.
func intField[T ~int | ~int64](key string, at func(*args) *T) *field {
	return &field{key: key,
		decode: func(a *args, v string) error {
			n, err := strconv.ParseInt(v, 10, 64)
			*at(a) = T(n)
			return err
		},
		render: func(a *args) string { return fmt.Sprintf(" %s=%d", key, *at(a)) },
	}
}

// floatField is a float field stored at at.
func floatField(key string, at func(*args) *float64) *field {
	return &field{key: key,
		decode: func(a *args, v string) (err error) {
			*at(a), err = strconv.ParseFloat(v, 64)
			return err
		},
		render: func(a *args) string { return fmt.Sprintf(" %s=%g", key, *at(a)) },
	}
}

func allLinks(a *args) bool { return a.AllLinks }
func noGE(a *args) bool     { return a.GE == nil }

// The field codecs the directives share.
var (
	fTime     = intField("t", func(a *args) *sim.Time { return &a.At })
	fNode     = intField("node", func(a *args) *netem.NodeID { return &a.Node })
	fFrom     = intField("from", func(a *args) *netem.NodeID { return &a.From }).unless(allLinks)
	fTo       = intField("to", func(a *args) *netem.NodeID { return &a.To }).unless(allLinks)
	fProb     = floatField("prob", func(a *args) *float64 { return &a.Prob })
	fMinDelay = intField("mindelay", func(a *args) *sim.Time { return &a.MinDelay })
	fMaxDelay = intField("maxdelay", func(a *args) *sim.Time { return &a.MaxDelay })
	fGE       = []*field{
		floatField("pgb", func(a *args) *float64 { return &a.ge().PGoodBad }).unless(noGE),
		floatField("pbg", func(a *args) *float64 { return &a.ge().PBadGood }).unless(noGE),
		floatField("lg", func(a *args) *float64 { return &a.ge().LossGood }).unless(noGE),
		floatField("lb", func(a *args) *float64 { return &a.ge().LossBad }).unless(noGE),
	}
	fRate = &field{key: "rate",
		decode: func(a *args, v string) error {
			num, den, found := strings.Cut(v, "/")
			if !found {
				den = "1"
			}
			var err1, err2 error
			a.Num, err1 = strconv.ParseInt(num, 10, 64)
			a.Den, err2 = strconv.ParseInt(den, 10, 64)
			return errors.Join(err1, err2)
		},
		render: func(a *args) string { return fmt.Sprintf(" rate=%d/%d", a.Num, a.Den) },
		preset: func(a *args) { a.Num, a.Den = 1, 1 },
	}
	fSkew    = intField("skew", func(a *args) *core.Tick { return &a.Skew })
	fRack    = intField("rack", func(a *args) *int { return &a.rack })
	fStagger = intField("stagger", func(a *args) *sim.Time { return &a.stagger })
	fDown    = intField("down", func(a *args) *sim.Time { return &a.down })
	fNodes   = &field{key: "nodes",
		decode: func(a *args, v string) error {
			for _, s := range strings.Split(v, ",") {
				n, err := strconv.Atoi(s)
				if err != nil {
					return err
				}
				a.nodes = append(a.nodes, netem.NodeID(n))
			}
			return nil
		},
	}
)

// directives is the schedule grammar. Kind.String and Format read a
// kind's name and fields from its row.
var directives = []directive{
	{name: "crash", kind: KindCrash, fields: []*field{fNode}},
	{name: "restart", kind: KindRestart, fields: []*field{fNode}},
	{name: "partition", kind: KindPartition, fields: []*field{fNode}},
	{name: "heal", kind: KindHeal, fields: []*field{fNode}},
	{name: "linkdown", kind: KindLinkDown, fields: []*field{fFrom, fTo}},
	{name: "linkup", kind: KindLinkUp, fields: []*field{fFrom, fTo}},
	{name: "loss", kind: KindLoss, all: true, fields: append([]*field{fFrom, fTo}, fGE...)},
	{name: "dup", kind: KindDup, fields: []*field{fProb}},
	{name: "reorder", kind: KindReorder, fields: []*field{fProb, fMaxDelay}},
	{name: "drift", kind: KindDrift, fields: []*field{fNode, fRate, fSkew}},
	{name: "delay", kind: KindDelay, all: true, fields: []*field{fFrom, fTo, fMinDelay, fMaxDelay}},
	{name: "leave", kind: KindLeave, fields: []*field{fNode}},
	{name: "rejoin", kind: KindRejoin, fields: []*field{fNode}},

	{name: "rackfail", fields: []*field{fRack},
		expand: func(t *Topology, a *args) []Event { return t.RackFail(a.At, a.rack) }},
	{name: "rackheal", fields: []*field{fRack},
		expand: func(t *Topology, a *args) []Event { return t.RackHeal(a.At, a.rack) }},
	{name: "rackloss", fields: append([]*field{fRack}, fGE...),
		expand: func(t *Topology, a *args) []Event { return t.RackLoss(a.At, a.rack, a.GE) }},
	{name: "zonedelay", fields: []*field{fFrom, fTo, fMinDelay, fMaxDelay},
		expand: func(t *Topology, a *args) []Event {
			return t.ZoneDelay(a.At, int(a.From), int(a.To), a.MinDelay, a.MaxDelay)
		}},
	{name: "churn", fields: []*field{fStagger, fDown, fNodes},
		expand: func(_ *Topology, a *args) []Event { return ChurnStorm(a.At, a.stagger, a.down, a.nodes) }},
}

// row returns kind k's directive, or nil when the grammar has no such kind.
func row(k Kind) *directive {
	for i := range directives {
		if d := &directives[i]; d.kind == k && k != 0 {
			return d
		}
	}
	return nil
}

// lookup returns the directive called name, or nil.
func lookup(name string) *directive {
	for i := range directives {
		if d := &directives[i]; d.name == name {
			return d
		}
	}
	return nil
}

// field returns d's codec for key; every directive takes t (or at).
func (d *directive) field(key string) *field {
	if key == "t" || key == "at" {
		return fTime
	}
	for _, f := range d.fields {
		if f.key == key {
			return f
		}
	}
	return nil
}

// parseDirective decodes one directive through its row and returns its
// events: the one a primitive directive stands for, or the expansion of a
// topology directive over topo.
func parseDirective(name string, words []string, topo *Topology) ([]Event, error) {
	d := lookup(name)
	switch {
	case d == nil:
		return nil, fmt.Errorf("%w: unknown directive %q", ErrSchedule, name)
	case d.expand != nil && topo == nil:
		return nil, fmt.Errorf("%w: %s needs a prior topo directive", ErrSchedule, name)
	}
	a := args{Event: Event{Kind: d.kind, At: -1}}
	for _, f := range d.fields {
		if f.preset != nil {
			f.preset(&a)
		}
	}
	var omissible []*field // given fields Format may leave out
	for _, w := range words {
		if d.all && strings.EqualFold(w, "all") {
			a.AllLinks = true
			continue
		}
		key, val, found := strings.Cut(w, "=")
		f := d.field(strings.ToLower(key))
		switch {
		case f == nil:
			return nil, fmt.Errorf("%w: %s does not take %q", ErrSchedule, name, w)
		case !found:
			return nil, fmt.Errorf("%w: %s wants key=value, got %q", ErrSchedule, name, w)
		}
		if err := f.decode(&a, val); err != nil {
			return nil, fmt.Errorf("%w: bad %s %q", ErrSchedule, key, val)
		}
		if f.omit != nil {
			omissible = append(omissible, f)
		}
	}
	// A field Format leaves out (from/to beside all) would not survive a
	// round trip, so it cannot be given.
	for _, f := range omissible {
		if f.omit(&a) {
			return nil, fmt.Errorf("%w: %s all does not take %s", ErrSchedule, name, f.key)
		}
	}
	if a.At < 0 {
		return nil, fmt.Errorf("%w: %s needs t=<time>", ErrSchedule, name)
	}
	if d.expand == nil {
		return []Event{a.Event}, nil
	}
	evs := d.expand(topo, &a)
	if len(evs) == 0 {
		return nil, fmt.Errorf("%w: %s expands to no events (empty fault domain)", ErrSchedule, name)
	}
	return evs, nil
}

// Format renders the schedule back to the textual form ParseSchedule
// accepts, for logging and round-trip tests: each event as its kind's row,
// t first, then the row's fields.
func (s *Schedule) Format() string {
	var b strings.Builder
	if s.Seed != 0 {
		fmt.Fprintf(&b, "seed %d\n", s.Seed)
	}
	for _, e := range s.Events {
		a := args{Event: e}
		b.WriteString(e.Kind.String() + fTime.render(&a))
		if d := row(e.Kind); d != nil {
			if a.AllLinks = e.AllLinks && d.all; a.AllLinks {
				b.WriteString(" all")
			}
			for _, f := range d.fields {
				if f.omit == nil || !f.omit(&a) {
					b.WriteString(f.render(&a))
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// checkWindows rejects overlapping fault windows: opening a window that
// is already open (double partition, double linkdown) or closing one that
// is not. A heal that silently collapses two overlapping windows used to
// reopen connectivity an outer window still claims; now it is a parse
// error. Checking lives here rather than in Schedule.Validate so that
// programmatic fault-space exploration may still build transient
// overlapping states on purpose.
func checkWindows(s *Schedule) error {
	order := make([]int, len(s.Events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return s.Events[order[a]].At < s.Events[order[b]].At
	})
	part := make(map[netem.NodeID]bool)
	link := make(map[[2]netem.NodeID]bool)
	for _, i := range order {
		e := s.Events[i]
		switch e.Kind {
		case KindPartition:
			if part[e.Node] {
				return fmt.Errorf("%w: event %d: partition of node %d at t=%d overlaps an open partition window",
					ErrSchedule, i, e.Node, e.At)
			}
			part[e.Node] = true
		case KindHeal:
			if !part[e.Node] {
				return fmt.Errorf("%w: event %d: heal of node %d at t=%d without an open partition window",
					ErrSchedule, i, e.Node, e.At)
			}
			part[e.Node] = false
		case KindLinkDown:
			key := [2]netem.NodeID{e.From, e.To}
			if link[key] {
				return fmt.Errorf("%w: event %d: linkdown %d→%d at t=%d overlaps an open link window",
					ErrSchedule, i, e.From, e.To, e.At)
			}
			link[key] = true
		case KindLinkUp:
			key := [2]netem.NodeID{e.From, e.To}
			if !link[key] {
				return fmt.Errorf("%w: event %d: linkup %d→%d at t=%d without an open link window",
					ErrSchedule, i, e.From, e.To, e.At)
			}
			link[key] = false
		}
	}
	return nil
}
