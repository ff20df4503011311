// Package ta implements a discrete-time timed-automata modeling framework
// in the style of UPPAAL, specialised to the needs of the accelerated
// heartbeat analysis.
//
// A Network is a parallel composition of automata over shared integer
// variables and integer-valued clocks. Time advances in unit ticks: a delay
// transition increments every (uncapped) clock by one and is enabled only
// when no automaton occupies an urgent or committed location and every
// location invariant still holds after the increment. Discrete transitions
// are internal edges, binary handshakes (a! with a?), or broadcasts (a!
// with every enabled a? receiver). Committed locations have priority over
// everything and block time, as in UPPAAL.
//
// All constants in the heartbeat models are naturals, and the original
// mCRL2 formalisation is itself discrete-time (explicit tick actions and
// counting stopwatches), so exploring integer clock valuations — capped at
// each clock's largest relevant constant — is exact for this model class.
//
// Clock constraints are data, as in UPPAAL: guards and invariants compare
// clocks only through atoms (clock op constant or variable), so what reads
// a clock, and against which constants, is known without running a model.
package ta

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/alphabet"
)

// LocKind classifies a location's urgency.
type LocKind int

// Location kinds. Urgent locations block delay transitions; committed
// locations additionally get exclusive priority for the next discrete
// transition.
const (
	Normal LocKind = iota
	Urgent
	Committed
)

// EdgeClass tags edges for the §6.1 receive-priority fix: when a network
// has priorities enabled and any Deliver-class transition is enabled,
// Timeout-class transitions are suppressed.
type EdgeClass int

// Edge classes.
const (
	// ClassDefault edges are unaffected by priorities.
	ClassDefault EdgeClass = iota
	// ClassDeliver marks message-delivery transitions.
	ClassDeliver
	// ClassTimeout marks timeout transitions (suppressed under priority
	// when a delivery is enabled).
	ClassTimeout
)

// State is a configuration of the network: one location per automaton plus
// the flat clock and variable vectors. Clocks and variables share value
// semantics; only clocks advance on delay transitions.
type State struct {
	Locs   []uint8
	Clocks []int32
	Vars   []int32
}

// Clone returns a deep copy.
func (s *State) Clone() State {
	return State{
		Locs:   append([]uint8(nil), s.Locs...),
		Clocks: append([]int32(nil), s.Clocks...),
		Vars:   append([]int32(nil), s.Vars...),
	}
}

// AppendKey appends the state's canonical key encoding to buf and returns
// the extended slice: the location vector verbatim, then each clock and
// variable as a big-endian 16-bit truncation. It never allocates beyond
// growing buf, so a caller reusing one buffer encodes states alloc-free.
//
//hbvet:noalloc
func (s *State) AppendKey(buf []byte) []byte {
	buf = append(buf, s.Locs...)
	for _, c := range s.Clocks {
		buf = append(buf, byte(uint16(c)>>8), byte(uint16(c)))
	}
	for _, v := range s.Vars {
		buf = append(buf, byte(uint16(v)>>8), byte(uint16(v)))
	}
	return buf
}

// KeyLen returns the length of the state's AppendKey encoding.
func (s *State) KeyLen() int {
	return len(s.Locs) + 2*len(s.Clocks) + 2*len(s.Vars)
}

// DecodeKey rebuilds the state encoded by AppendKey into s, reusing s's
// slice capacity. numLocs and numClocks fix the layout; the variable count
// is the remainder of the key. Values round-trip exactly when they fit in
// int16 — the same 16-bit truncation AppendKey applies (wider values
// already collide as keys, so no checker that dedups on keys can tell the
// difference).
//
//hbvet:noalloc
func (s *State) DecodeKey(key []byte, numLocs, numClocks int) {
	s.Locs = append(s.Locs[:0], key[:numLocs]...)
	key = key[numLocs:]
	s.Clocks = s.Clocks[:0]
	for i := 0; i < numClocks; i++ {
		s.Clocks = append(s.Clocks, int32(int16(uint16(key[2*i])<<8|uint16(key[2*i+1]))))
	}
	key = key[2*numClocks:]
	s.Vars = s.Vars[:0]
	for i := 0; i+1 < len(key); i += 2 {
		s.Vars = append(s.Vars, int32(int16(uint16(key[i])<<8|uint16(key[i+1]))))
	}
}

// MaxClockCap is the largest clock cap a network accepts: the largest
// value AppendKey's 16-bit fields round-trip through DecodeKey.
const MaxClockCap = math.MaxInt16

// Op is the comparison of a clock atom: the set of orderings of the clock
// against its bound that satisfy it.
type Op uint8

// Comparisons.
const (
	Lt Op = 1 << iota
	Eq
	Gt
	Le = Lt | Eq
	Ge = Gt | Eq
)

// Atom is a clock constraint, data as in UPPAAL: Clock Op K, or with Var
// >= 0 Clock Op the value of variable Var. Build atoms with Clk and ClkVar.
type Atom struct {
	Clock, Var int
	Op         Op
	K          int32
}

// Clk returns the atom clock c op k.
func Clk(c int, op Op, k int32) Atom { return Atom{Clock: c, Op: op, K: k, Var: -1} }

// ClkVar returns the atom clock c op variable v.
func ClkVar(c int, op Op, v int) Atom { return Atom{Clock: c, Op: op, Var: v} }

// bound returns what the atom compares its clock with under vars.
func (a *Atom) bound(vars []int32) int32 {
	if a.Var >= 0 {
		return vars[a.Var]
	}
	return a.K
}

// narrow intersects the clock values lo..hi with those the atom admits
// when its bound is k.
func (a *Atom) narrow(k, lo, hi int32) (int32, int32) {
	strict := int32(1) // the bound itself is excluded
	if a.Op&Eq != 0 {
		strict = 0
	}
	if a.Op&Lt == 0 {
		lo = max(lo, k+strict)
	}
	if a.Op&Gt == 0 {
		hi = min(hi, k-strict)
	}
	return lo, hi
}

// atomsHold reports whether every atom of as holds in s.
func atomsHold(as []Atom, s *State) bool {
	for i := range as {
		d := s.Clocks[as[i].Clock] - as[i].bound(s.Vars)
		sign := d>>31 | int32(uint32(-d)>>31) // -1, 0 or 1, without a branch
		if as[i].Op&(1<<uint(sign+1)) == 0 {  // Lt, Eq or Gt
			return false
		}
	}
	return true
}

// Lit is a variable literal: Var == K, or with Not Var != K.
type Lit struct {
	Var int
	K   int32
	Not bool
}

// Is returns the literal v == k.
func Is(v int, k int32) Lit { return Lit{Var: v, K: k} }

// IsNot returns the literal v != k.
func IsNot(v int, k int32) Lit { return Lit{Var: v, K: k, Not: true} }

// excludes reports whether l is false while variable v holds k.
func (l Lit) excludes(v int, k int32) bool { return l.Var == v && (l.K == k) == l.Not }

// litsHold reports whether every literal of ls holds under vars.
func litsHold(ls []Lit, vars []int32) bool {
	for _, l := range ls {
		if (vars[l.Var] == l.K) == l.Not {
			return false
		}
	}
	return true
}

// Guard is a conjunction: the variable literals Vars, the clock atoms
// Clocks and, unless nil, Pred, a predicate over variables and locations
// that reads no clock. Clock reads are data, so what a guard reads of the
// clocks is known exactly; what Pred reads is declared by its edge's
// Footprint. The zero Guard is true.
type Guard struct {
	Vars   []Lit
	Clocks []Atom
	Pred   func(s *State) bool
}

// Case is one case of an invariant: while every literal of When holds,
// every atom of Then must.
type Case struct {
	When []Lit
	Then []Atom
}

// Invariant is a location invariant, a list of cases; nil is true.
type Invariant []Case

// holds reports whether inv holds in s.
func (inv Invariant) holds(s *State) bool {
	for _, c := range inv {
		if litsHold(c.When, s.Vars) && !atomsHold(c.Then, s) {
			return false
		}
	}
	return true
}

// Update mutates a configuration; nil means no effect.
type Update func(s *State)

// ChanID identifies a synchronisation channel; zero means an internal
// (tau) edge.
type ChanID int

// Location is a node of an automaton's control graph.
type Location struct {
	Name string
	Kind LocKind
	// Invariant must hold for time to pass while the automaton occupies
	// this location: a delay is allowed only if the invariant still
	// holds after all clocks advance. It is data, so it needs no
	// footprint.
	Invariant Invariant
}

// Edge is a transition of one automaton.
type Edge struct {
	From, To int
	Guard    Guard
	// Chan and Send select synchronisation: Chan == 0 is internal;
	// otherwise Send distinguishes a! from a?.
	Chan   ChanID
	Send   bool
	Update Update
	// Assign lists the edge's constant assignments, made after Update.
	Assign []Assign
	// Label names the action for traces (the sending side's label wins
	// for synchronisations unless it is tau, the zero Label).
	Label alphabet.Label
	Class EdgeClass
	// Footprint declares what Guard.Pred and Update read and what Update
	// writes (footprint.go); an edge with neither needs none.
	Footprint *Footprint
}

// Assign is a constant assignment: clock (Clock set) or variable Idx
// takes Val.
type Assign struct {
	Clock bool
	Idx   int
	Val   int32
}

// Reset assigns clock c zero.
func Reset(c int) Assign { return Assign{Clock: true, Idx: c} }

// Set assigns variable v the constant k.
func Set(v int, k int32) Assign { return Assign{Idx: v, Val: k} }

// apply runs e's effect on t: Update, then the constant assignments.
//
//hbvet:noalloc
func (e *Edge) apply(t *State) {
	if e.Update != nil {
		//lint:allow noalloc-closure model-defined update; the automaton definition contract requires it allocation-free, pinned by the mc alloc tests
		e.Update(t)
	}
	for _, as := range e.Assign {
		if as.Clock {
			t.Clocks[as.Idx] = as.Val
		} else {
			t.Vars[as.Idx] = as.Val
		}
	}
}

// Automaton is one component of the network.
type Automaton struct {
	Name      string
	Locations []Location
	Edges     []Edge
	Init      int
	index     int // position in the network
}

// Channel declares a synchronisation channel.
type Channel struct {
	Name      string
	Broadcast bool
}

// Network is a parallel composition.
type Network struct {
	automata   []*Automaton
	channels   []Channel // index 0 reserved (internal)
	clockNames []string
	clockCaps  []int32
	varNames   []string
	varInit    []int32
	// priority enables the §6.1 receive-priority rule.
	priority bool
	// compiled edge indices, built lazily; indexed by ChanID (dense, so
	// Successors pays an array index per channel, not a map lookup)
	compiled  bool
	sendEdges [][]edgeRef
	recvEdges [][]edgeRef
	// internalAt[a][l] lists, in declaration order, the internal edges of
	// automaton a that leave its location l.
	internalAt [][][]int
	// sendsAt[a] holds chanWords words per location of automaton a: the
	// bit set of the channels that location has a send edge on. A channel
	// fires only with an enabled sender, so the union over the current
	// locations is every channel Successors must look at.
	sendsAt   [][]uint64
	chanWords int
	// defaultCtx backs the convenience Network.Successors method.
	defaultCtx *SuccCtx
}

type edgeRef struct {
	aut  int
	edge int
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{channels: []Channel{{Name: "internal"}}}
}

// SetReceivePriority enables the §6.1 fix: whenever a ClassDeliver
// transition is enabled AND due (its initiating automaton's invariant
// blocks further delay), ClassTimeout transitions are suppressed until
// the delivery (or a competing non-timeout move, such as a loss) happens.
func (n *Network) SetReceivePriority(on bool) { n.priority = on }

// Clock declares a clock with the given state-space cap: once a clock
// reaches its cap it stops advancing, which is sound as long as every
// guard and invariant mentioning it only distinguishes values below the
// cap. The cap may not exceed MaxClockCap: state keys hold 16 bits per
// clock, and a clock that could count past them would wrap and merge
// distinct states. Returns the clock's index.
func (n *Network) Clock(name string, cap int32) int {
	if cap < 1 || cap > MaxClockCap {
		panic(fmt.Sprintf("ta: clock %q needs a cap in 1..%d, got %d", name, MaxClockCap, cap))
	}
	n.clockNames = append(n.clockNames, name)
	n.clockCaps = append(n.clockCaps, cap)
	return len(n.clockNames) - 1
}

// Var declares an integer variable with an initial value and returns its
// index.
func (n *Network) Var(name string, init int32) int {
	n.varNames = append(n.varNames, name)
	n.varInit = append(n.varInit, init)
	return len(n.varNames) - 1
}

// Chan declares a synchronisation channel and returns its ID.
func (n *Network) Chan(name string, broadcast bool) ChanID {
	n.channels = append(n.channels, Channel{Name: name, Broadcast: broadcast})
	n.compiled = false // the edge indices are sized by channel count
	return ChanID(len(n.channels) - 1)
}

// Add registers an automaton and returns it for edge/location population.
func (n *Network) Add(a *Automaton) *Automaton {
	a.index = len(n.automata)
	n.automata = append(n.automata, a)
	n.compiled = false
	return a
}

// Automata returns the registered automata in composition order.
func (n *Network) Automata() []*Automaton { return n.automata }

// ClockName returns the declared name of clock i.
//
//lint:allow unused-export oracle: mc's reference explorer finds p[1]'s watchdog clock by name (mc/reference_test.go)
func (n *Network) ClockName(i int) string { return n.clockNames[i] }

// NumClocks returns the number of declared clocks.
//
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (n *Network) NumClocks() int { return len(n.clockNames) }

// Initial returns the initial configuration.
func (n *Network) Initial() State {
	s := State{
		Locs:   make([]uint8, len(n.automata)),
		Clocks: make([]int32, len(n.clockNames)),
		Vars:   append([]int32(nil), n.varInit...),
	}
	for i, a := range n.automata {
		s.Locs[i] = uint8(a.Init)
	}
	return s
}

// Transition is one outgoing move of a configuration.
type Transition struct {
	// Label is tick for delay transitions, otherwise the action label.
	Label alphabet.Label
	// Delay marks the delay (tick) transition.
	Delay bool
	// Class carries the edge class for priority filtering.
	Class EdgeClass
	// src is the initiating automaton (the sender for synchronisations),
	// used to decide whether a delivery is due for priority filtering.
	src int
	// Target is the successor configuration.
	Target State
}

// compile builds the channel-to-edge indices and the per-location ones.
// An edge whose source is no location of its automaton can never fire and
// is left out of the location indices.
func (n *Network) compile() {
	if n.compiled {
		return
	}
	n.sendEdges = make([][]edgeRef, len(n.channels))
	n.recvEdges = make([][]edgeRef, len(n.channels))
	n.chanWords = (len(n.channels) + 63) / 64
	n.internalAt = make([][][]int, len(n.automata))
	n.sendsAt = make([][]uint64, len(n.automata))
	for ai, a := range n.automata {
		n.internalAt[ai] = make([][]int, len(a.Locations))
		n.sendsAt[ai] = make([]uint64, len(a.Locations)*n.chanWords)
		for ei, e := range a.Edges {
			from := e.From >= 0 && e.From < len(a.Locations)
			if e.Chan == 0 && from {
				n.internalAt[ai][e.From] = append(n.internalAt[ai][e.From], ei)
			}
			if e.Chan <= 0 || int(e.Chan) >= len(n.channels) {
				continue // internal, or a channel never declared: no partner can exist
			}
			if e.Send {
				n.sendEdges[e.Chan] = append(n.sendEdges[e.Chan], edgeRef{ai, ei})
				if from {
					n.sendsAt[ai][e.From*n.chanWords+int(e.Chan)/64] |= 1 << (uint(e.Chan) % 64)
				}
			} else {
				n.recvEdges[e.Chan] = append(n.recvEdges[e.Chan], edgeRef{ai, ei})
			}
		}
	}
	n.compiled = true
}

// enabled reports whether edge e of automaton a can fire in s (location
// and guard only; synchronisation is the caller's concern). The
// synchronisation paths call it for every send and receive edge they
// consider, so it evaluates the literals and atoms inline, as the
// internal-edge loop does.
//
//hbvet:noalloc
func (n *Network) enabled(s *State, a int, e *Edge) bool {
	g := &e.Guard
	//lint:allow noalloc-closure model-defined predicate; the automaton definition contract requires it allocation-free, pinned by the mc alloc tests
	return int(s.Locs[a]) == e.From && litsHold(g.Vars, s.Vars) && atomsHold(g.Clocks, s) && (g.Pred == nil || g.Pred(s))
}

// SuccCtx is a successor-generation context: it owns the scratch buffers
// Successors reuses between calls, so distinct contexts over one (fully
// built, read-only) Network may generate successors concurrently — one
// context per worker goroutine. The network must not be modified (Add,
// Clock, Var, Chan, SetReceivePriority) after contexts are created, and
// its automata's Edges and Locations are frozen from then on too: the
// indices Successors walks — edges by channel, internal edges and send
// channels by location — are built when the first context is, and nothing
// rebuilds them when an automaton changes in place.
//
// A SuccCtx itself is not safe for concurrent use, and its buffer-reuse
// contract matches Network.Successors: targets live in buf's spare
// capacity and scratch masks are valid only until the next call on the
// same context.
type SuccCtx struct {
	n *Network
	// scratch buffers reused across Successors calls. None of them
	// escape a call.
	scratchCommitted []bool
	scratchMust      []bool
	scratchSeen      []bool
	scratchRecv      []edgeRef
	scratchChans     []uint64
	scratchTick      State
}

// NewSuccCtx compiles the network (if needed) and returns a fresh
// successor-generation context. Create one per worker goroutine; the
// creation itself must happen before any concurrent use of the network.
func (n *Network) NewSuccCtx() *SuccCtx {
	n.compile()
	return &SuccCtx{n: n}
}

// committedActive returns the set of automata in committed locations, or
// nil if none. The returned mask is a scratch buffer valid only until the
// next Successors call on this context.
//
//hbvet:noalloc
func (c *SuccCtx) committedActive(s *State) []bool {
	n := c.n
	var mask []bool
	for i, a := range n.automata {
		if a.Locations[s.Locs[i]].Kind == Committed {
			if mask == nil {
				if len(c.scratchCommitted) != len(n.automata) {
					//lint:allow noalloc-closure scratch warm-up, sized once per context; steady state reuses the mask
					c.scratchCommitted = make([]bool, len(n.automata))
				}
				mask = c.scratchCommitted
				clear(mask)
			}
			mask[i] = true
		}
	}
	return mask
}

// appendTarget extends buf by one transition whose target starts as a
// copy of src, reusing the spare slot's slice capacity (dead entries left
// beyond len(buf) by a caller recycling its buffer with buf[:0] donate
// their slices), and returns the grown buffer plus a pointer to the new
// entry for the caller to finish. Building the target in place keeps it
// off the heap: predicate and update closures receive a pointer into buf's
// backing array, not a stack local that escape analysis would box per
// transition. A caller that decides against the transition simply keeps
// the shorter original buffer. A recycled slot already has the source's
// lengths — every state of a network has one shape — so its slices are
// copied into, not re-appended: storing a slice header into the heap
// array costs a write barrier while the collector marks.
//
//hbvet:noalloc
func appendTarget(buf []Transition, src *State) ([]Transition, *Transition) {
	i := len(buf)
	if i < cap(buf) {
		buf = buf[:i+1]
	} else {
		buf = append(buf, Transition{})
	}
	tr := &buf[i]
	tr.Label, tr.Delay, tr.Class, tr.src = alphabet.Label{}, false, ClassDefault, 0
	t := &tr.Target
	if len(t.Locs) == len(src.Locs) && len(t.Clocks) == len(src.Clocks) && len(t.Vars) == len(src.Vars) {
		copy(t.Locs, src.Locs)
		copy(t.Clocks, src.Clocks)
		copy(t.Vars, src.Vars)
		return buf, tr
	}
	t.Locs = append(t.Locs[:0], src.Locs...)
	t.Clocks = append(t.Clocks[:0], src.Clocks...)
	t.Vars = append(t.Vars[:0], src.Vars...)
	return buf, tr
}

// Successors appends all outgoing transitions of s to buf and returns it.
//
// Target states reuse the spare capacity of buf beyond len(buf): a caller
// may recycle its buffer with buf[:0] between calls, but must not retain a
// Transition.Target from an earlier call while doing so (copy the state or
// its key first). This method reuses one internal default context, so it
// must not be called concurrently on one Network, nor re-entered from a
// guard predicate or an Update. Concurrent exploration goes through
// per-worker contexts from NewSuccCtx instead.
//
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (n *Network) Successors(s *State, buf []Transition) []Transition {
	if n.defaultCtx == nil || !n.compiled {
		n.defaultCtx = n.NewSuccCtx()
	}
	return n.defaultCtx.Successors(s, buf)
}

// Successors appends all outgoing transitions of s to buf and returns it.
// See Network.Successors for the buffer-reuse contract; the enumeration
// order is fixed by the network's declaration order and identical across
// contexts: internal edges by (automaton, edge), then channels ascending,
// each pairing senders and receivers by (automaton, edge), then the
// receive-priority filter, then the delay. Only the edges out of the
// current locations and the channels those locations send on are visited.
//
//hbvet:noalloc
func (c *SuccCtx) Successors(s *State, buf []Transition) []Transition {
	n := c.n
	committed := c.committedActive(s)
	start := len(buf)

	// Internal edges.
	for ai, a := range n.automata {
		if committed != nil && !committed[ai] {
			continue
		}
		for _, ei := range n.internalAt[ai][s.Locs[ai]] {
			e := &a.Edges[ei]
			g := &e.Guard
			//lint:allow noalloc-closure model-defined predicate; the automaton definition contract requires it allocation-free, pinned by the mc alloc tests
			if !litsHold(g.Vars, s.Vars) || !atomsHold(g.Clocks, s) || g.Pred != nil && !g.Pred(s) {
				continue
			}
			var tr *Transition
			buf, tr = appendTarget(buf, s)
			tr.Target.Locs[ai] = uint8(e.To)
			e.apply(&tr.Target)
			tr.Label, tr.Class, tr.src = e.Label, e.Class, ai
		}
	}

	// Handshakes and broadcasts, on the channels some current location
	// sends on.
	if len(c.scratchChans) != n.chanWords {
		//lint:allow noalloc-closure scratch warm-up, sized once per context; steady state reuses the set
		c.scratchChans = make([]uint64, n.chanWords)
	}
	chans := c.scratchChans
	clear(chans)
	for ai, l := range s.Locs {
		for w, m := range n.sendsAt[ai][int(l)*n.chanWords : (int(l)+1)*n.chanWords] {
			chans[w] |= m
		}
	}
	for w, set := range chans {
		for ; set != 0; set &= set - 1 {
			ch := ChanID(w*64 + bits.TrailingZeros64(set))
			if n.channels[ch].Broadcast {
				buf = c.broadcastSuccessors(s, ch, committed, buf)
			} else {
				buf = n.handshakeSuccessors(s, ch, committed, buf)
			}
		}
	}

	// Receive-priority (§6.1): if any delivery is due at this instant —
	// enabled, and its channel cannot let time pass — it is processed
	// before timeouts.
	if n.priority {
		buf = c.applyPriority(s, buf, start)
	}

	// Delay transition.
	return n.appendDelay(s, committed, buf)
}

// handshakeSuccessors pairs each enabled sender with each enabled receiver
// in a different automaton.
//
//hbvet:noalloc
func (n *Network) handshakeSuccessors(s *State, ch ChanID, committed []bool, buf []Transition) []Transition {
	for _, sr := range n.sendEdges[ch] {
		se := &n.automata[sr.aut].Edges[sr.edge]
		if !n.enabled(s, sr.aut, se) {
			continue
		}
		for _, rr := range n.recvEdges[ch] {
			if rr.aut == sr.aut {
				continue
			}
			re := &n.automata[rr.aut].Edges[rr.edge]
			if !n.enabled(s, rr.aut, re) {
				continue
			}
			if committed != nil && !committed[sr.aut] && !committed[rr.aut] {
				continue
			}
			var tr *Transition
			buf, tr = appendTarget(buf, s)
			t := &tr.Target
			t.Locs[sr.aut] = uint8(se.To)
			t.Locs[rr.aut] = uint8(re.To)
			se.apply(t)
			re.apply(t)
			tr.Label = se.Label
			if tr.Label == (alphabet.Label{}) {
				tr.Label = re.Label
			}
			tr.Class = se.Class
			if re.Class != ClassDefault {
				tr.Class = re.Class
			}
			tr.src = sr.aut
		}
	}
	return buf
}

// broadcastSuccessors fires each enabled sender together with every
// enabled receiver (receivers never block a broadcast).
//
//hbvet:noalloc
func (c *SuccCtx) broadcastSuccessors(s *State, ch ChanID, committed []bool, buf []Transition) []Transition {
	n := c.n
	for _, sr := range n.sendEdges[ch] {
		se := &n.automata[sr.aut].Edges[sr.edge]
		if !n.enabled(s, sr.aut, se) {
			continue
		}
		// Collect at most one enabled receive edge per automaton. The
		// heartbeat models never have two enabled receivers on the same
		// broadcast channel in one automaton; the first (declaration
		// order) wins, matching UPPAAL's deterministic model layout.
		if len(c.scratchSeen) != len(n.automata) {
			//lint:allow noalloc-closure scratch warm-up, sized once per context; steady state reuses the mask
			c.scratchSeen = make([]bool, len(n.automata))
		}
		seen := c.scratchSeen
		clear(seen)
		receivers := c.scratchRecv[:0]
		for _, rr := range n.recvEdges[ch] {
			if rr.aut == sr.aut || seen[rr.aut] {
				continue
			}
			re := &n.automata[rr.aut].Edges[rr.edge]
			if n.enabled(s, rr.aut, re) {
				receivers = append(receivers, rr)
				seen[rr.aut] = true
			}
		}
		c.scratchRecv = receivers
		if committed != nil && !committed[sr.aut] {
			anyCommitted := false
			for _, rr := range receivers {
				if committed[rr.aut] {
					anyCommitted = true
					break
				}
			}
			if !anyCommitted {
				continue
			}
		}
		var tr *Transition
		buf, tr = appendTarget(buf, s)
		t := &tr.Target
		t.Locs[sr.aut] = uint8(se.To)
		se.apply(t)
		tr.Label, tr.Class, tr.src = se.Label, se.Class, sr.aut
		for _, rr := range receivers {
			re := &n.automata[rr.aut].Edges[rr.edge]
			t.Locs[rr.aut] = uint8(re.To)
			re.apply(t)
			if re.Class != ClassDefault {
				tr.Class = re.Class
			}
		}
	}
	return buf
}

// appendDelay appends the tick transition to buf if time may pass.
//
//hbvet:noalloc
func (n *Network) appendDelay(s *State, committed []bool, buf []Transition) []Transition {
	if committed != nil {
		return buf
	}
	for i, a := range n.automata {
		if a.Locations[s.Locs[i]].Kind == Urgent {
			return buf
		}
	}
	grown, tr := appendTarget(buf, s)
	t := &tr.Target
	for i := range t.Clocks {
		if t.Clocks[i] < n.clockCaps[i] {
			t.Clocks[i]++
		}
	}
	for i, a := range n.automata {
		for _, c := range a.Locations[s.Locs[i]].Invariant { // Invariant.holds, inlined
			if litsHold(c.When, t.Vars) && !atomsHold(c.Then, t) {
				// Retract the speculative entry: the shorter buf leaves the
				// slot (and its slices) in spare capacity for the next reuse.
				return buf
			}
		}
	}
	tr.Label, tr.Delay = alphabet.Label{Kind: alphabet.Tick}, true
	return grown
}

// applyPriority implements the §6.1 fix: ClassTimeout transitions are
// suppressed while some enabled ClassDeliver transition is DUE — its
// initiating automaton (the channel) can no longer let time pass, so the
// message is being offered at this very instant. A delivery that could
// still wait does not pre-empt timeouts: the fix re-orders simultaneous
// events, it does not shrink channel delays. Only entries from index
// start on are considered.
//
//hbvet:noalloc
func (c *SuccCtx) applyPriority(s *State, buf []Transition, start int) []Transition {
	anyDue := false
	var mustMove []bool // lazily computed per initiating automaton
	for _, t := range buf[start:] {
		if t.Class != ClassDeliver {
			continue
		}
		if mustMove == nil {
			mustMove = c.mustMoveNow(s)
		}
		if mustMove[t.src] {
			anyDue = true
			break
		}
	}
	if !anyDue {
		return buf
	}
	// Filter by swapping rather than copying: a plain copy would leave a
	// second Transition aliasing a survivor's Target slices in the spare
	// capacity, which reuseTarget would later scribble over.
	keep := start
	for i := start; i < len(buf); i++ {
		if buf[i].Class != ClassTimeout {
			buf[keep], buf[i] = buf[i], buf[keep]
			keep++
		}
	}
	return buf[:keep]
}

// mustMoveNow reports, per automaton, whether its current location's
// invariant would fail after one tick — i.e. the automaton must take a
// discrete transition before time passes. The returned mask and the ticked
// state are scratch buffers valid only until the next Successors call on
// this context.
//
//hbvet:noalloc
func (c *SuccCtx) mustMoveNow(s *State) []bool {
	n := c.n
	t := &c.scratchTick
	t.Locs = append(t.Locs[:0], s.Locs...)
	t.Clocks = append(t.Clocks[:0], s.Clocks...)
	t.Vars = append(t.Vars[:0], s.Vars...)
	for i := range t.Clocks {
		if t.Clocks[i] < n.clockCaps[i] {
			t.Clocks[i]++
		}
	}
	if len(c.scratchMust) != len(n.automata) {
		//lint:allow noalloc-closure scratch warm-up, sized once per context; steady state reuses the mask
		c.scratchMust = make([]bool, len(n.automata))
	}
	out := c.scratchMust
	for i, a := range n.automata {
		out[i] = !a.Locations[s.Locs[i]].Invariant.holds(t)
	}
	return out
}
