package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// refCoordinator is the oracle for Coordinator's parallel order/state
// slices: the coordinator as it was when each member's bookkeeping hung off
// a map[ProcID]*memberState, with the round's iteration order obtained by
// sorting the map's keys. It keeps no index at all, so nothing can go
// stale on a join or a leave.
type refCoordinator struct {
	cfg     CoordinatorConfig
	status  Status
	t       Tick
	members map[ProcID]*memberState
	left    map[ProcID]uint8
}

func newRefCoordinator(cfg CoordinatorConfig) *refCoordinator {
	r := &refCoordinator{cfg: cfg, status: StatusActive, t: cfg.TMax,
		members: map[ProcID]*memberState{}, left: map[ProcID]uint8{}}
	for _, id := range cfg.Members {
		r.members[id] = &memberState{rcvd: true, tm: cfg.TMax}
	}
	return r
}

func (r *refCoordinator) sorted() []ProcID {
	ids := make([]ProcID, 0, len(r.members))
	for id := range r.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (r *refCoordinator) OnBeat(b Beat) []Action {
	if r.status != StatusActive || b.From == CoordinatorID {
		return nil
	}
	if !b.Stay && r.cfg.Membership == MembershipDynamic {
		if m, known := r.members[b.From]; known {
			if b.Inc < m.inc {
				return nil
			}
			delete(r.members, b.From)
		}
		if prev, ok := r.left[b.From]; !ok || b.Inc > prev {
			r.left[b.From] = b.Inc
		}
		return []Action{SendBeat(b.From, Beat{From: CoordinatorID, Stay: false, Inc: b.Inc})}
	}
	if m, known := r.members[b.From]; known {
		if b.Inc >= m.inc {
			m.inc, m.rcvd, m.tm = b.Inc, true, r.cfg.TMax
		}
		return nil
	}
	if r.cfg.Membership == MembershipFixed {
		return nil
	}
	if leftInc, departed := r.left[b.From]; departed {
		if !r.cfg.AllowRejoin || b.Inc <= leftInc {
			return nil
		}
		delete(r.left, b.From)
	}
	r.members[b.From] = &memberState{rcvd: true, tm: r.cfg.TMax, inc: b.Inc}
	return nil
}

func (r *refCoordinator) OnTimer() []Action {
	if r.status != StatusActive {
		return nil
	}
	var actions []Action
	next := r.cfg.TMax
	ids := r.sorted()
	for _, pid := range ids {
		m := r.members[pid]
		tm, ok := r.cfg.NextWait(m.tm, m.rcvd)
		if !ok {
			actions = append(actions, Suspect(pid))
		}
		m.tm, m.rcvd = tm, false
		next = min(next, tm)
	}
	if len(actions) > 0 {
		r.status = StatusInactive
		return append(actions, Inactivate(false))
	}
	r.t = next
	for _, pid := range ids {
		actions = append(actions, SendBeat(pid, Beat{From: CoordinatorID, Stay: true}))
	}
	return append(actions, SetTimer(TimerRound, r.t))
}

// coordinatorPair steps a Coordinator and its reference together and fails
// on the first step whose actions, member list, round length or status
// differ.
type coordinatorPair struct {
	t   *testing.T
	c   *Coordinator
	ref *refCoordinator
	now Tick
}

func newCoordinatorPair(t *testing.T, cfg CoordinatorConfig) *coordinatorPair {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	c.Start(0)
	return &coordinatorPair{t: t, c: c, ref: newRefCoordinator(cfg)}
}

func (p *coordinatorPair) check(what string, got, want []Action) {
	p.t.Helper()
	if !slices.Equal(got, want) {
		p.t.Fatalf("%s at %d: actions %+v, reference %+v", what, p.now, got, want)
	}
	if got, want := p.c.order, p.ref.sorted(); !slices.Equal(got, want) {
		p.t.Fatalf("%s at %d: members %v, reference %v", what, p.now, got, want)
	}
	if p.c.t != p.ref.t || p.c.Status() != p.ref.status {
		p.t.Fatalf("%s at %d: round %d status %v, reference %d %v",
			what, p.now, p.c.t, p.c.Status(), p.ref.t, p.ref.status)
	}
	for i, id := range p.c.order {
		if p.c.state[i] != *p.ref.members[id] {
			p.t.Fatalf("%s at %d: member %d state %+v, reference %+v", what, p.now, id, p.c.state[i], *p.ref.members[id])
		}
		if got := p.c.find(id); got != i {
			p.t.Fatalf("%s at %d: member %d at position %d is found at %d", what, p.now, id, i, got)
		}
	}
	// No index entry outlives its member or points at another one.
	for id, e := range p.c.index {
		if e != 0 && (int(e) > len(p.c.order) || p.c.order[e-1] != ProcID(id)) {
			p.t.Fatalf("%s at %d: index entry %d for %d, members %v", what, p.now, e, id, p.c.order)
		}
	}
}

func (p *coordinatorPair) beat(b Beat) {
	p.t.Helper()
	p.now++
	p.check("beat", p.c.OnBeat(b, p.now), p.ref.OnBeat(b))
}

func (p *coordinatorPair) round() {
	p.t.Helper()
	p.now++
	p.check("round", p.c.OnTimer(TimerRound, p.now), p.ref.OnTimer())
}

// TestCoordinatorChurnKeepsStateWithOrder joins a lower ID while a higher
// member is mid-decay, then leaves and rejoins it with a higher
// incarnation: every insertion and deletion lands below the decaying
// member, so its bookkeeping must move with its ID. A Coordinator that
// shifts order without state hands the joiner's fresh state to the
// decaying member (or the reverse) and diverges from the reference at the
// next round.
func TestCoordinatorChurnKeepsStateWithOrder(t *testing.T) {
	p := newCoordinatorPair(t, CoordinatorConfig{
		Config: Config{TMin: 2, TMax: 16}, Membership: MembershipDynamic, AllowRejoin: true,
	})
	stay := func(id ProcID, inc uint8) Beat { return Beat{From: id, Stay: true, Inc: inc} }
	p.beat(stay(5, 0))
	p.beat(stay(7, 0))
	p.round() // grace round: both rcvd
	p.beat(stay(5, 0))
	p.round() // 7 missed: tm halves to 8, rcvd false
	if i, _ := slices.BinarySearch(p.c.order, 7); p.c.state[i].rcvd || p.c.state[i].tm != 8 {
		t.Fatalf("member 7 is not mid-decay: %+v", p.c.state[i])
	}
	p.beat(stay(3, 0)) // joins below 5 and 7
	p.beat(stay(5, 0))
	p.round() // 7 missed again: tm 4; the round length follows it
	if p.c.t != 4 {
		t.Fatalf("round length %d, want member 7's decayed 4", p.c.t)
	}
	p.beat(Beat{From: 3, Stay: false, Inc: 0}) // 3 leaves
	p.beat(stay(5, 0))
	p.round()          // 7: tm 2
	p.beat(stay(3, 0)) // stale incarnation: stays out
	p.beat(stay(3, 1)) // rejoins, higher incarnation
	p.beat(stay(5, 0))
	p.beat(stay(3, 1))
	p.round() // 7: tm 1 < tmin: suspected, and only 7
	if p.c.Status() != StatusInactive {
		t.Fatalf("status %v, want the coordinator inactivated on member 7", p.c.Status())
	}
}

// TestCoordinatorRandomChurnMatchesMapReference drives random joins,
// beats, leaves, rejoins and rounds through both. Most beats come from the
// dense IDs 0..6; the rest from sparse ones, among them a negative ID, the
// highest wire ID 2^15-1 and 2^15 just past it, which the coordinator's
// dense index does not cover.
func TestCoordinatorRandomChurnMatchesMapReference(t *testing.T) {
	sparse := []ProcID{9, 64, 1000, 4095, -1, -(1 << 15), 1<<15 - 1, 1 << 15, 1 << 40}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newCoordinatorPair(t, CoordinatorConfig{
			Config:      Config{TMin: 2, TMax: 32, TwoPhase: seed%5 == 0},
			Membership:  []Membership{MembershipDynamic, MembershipExpanding}[seed%2],
			AllowRejoin: seed%4 == 0, // dynamic runs only
		})
		for step := 0; step < 400 && p.c.Status() == StatusActive; step++ {
			if rng.Intn(8) == 0 {
				p.round()
				continue
			}
			from := ProcID(rng.Intn(7))
			if rng.Intn(3) == 0 {
				from = sparse[rng.Intn(len(sparse))]
			}
			p.beat(Beat{From: from, Stay: rng.Intn(6) != 0, Inc: uint8(rng.Intn(3))})
		}
	}
}

// refPlainCoordinator is the plain heartbeat the 1998 paper improves on,
// written as that paper's baseline with no acceleration rule in it: a fixed
// period, rcvd in a map, and the first round without a reply from a member
// suspects it. It is the oracle for the Coordinator at tmin = tmax.
type refPlainCoordinator struct {
	period  Tick
	members []ProcID // ascending: beats go out in ID order
	status  Status
	rcvd    map[ProcID]bool
}

func (r *refPlainCoordinator) OnBeat(b Beat) {
	if _, known := r.rcvd[b.From]; known && r.status == StatusActive {
		r.rcvd[b.From] = true
	}
}

func (r *refPlainCoordinator) OnTimer(id TimerID) []Action {
	if r.status != StatusActive || id != TimerRound {
		return nil
	}
	var actions []Action
	for _, pid := range r.members {
		if !r.rcvd[pid] {
			actions = append(actions, Suspect(pid))
		}
		r.rcvd[pid] = false
	}
	if len(actions) > 0 {
		r.status = StatusInactive
		return append(actions, Inactivate(false))
	}
	for _, pid := range r.members {
		actions = append(actions, SendBeat(pid, Beat{From: CoordinatorID, Stay: true}))
	}
	return append(actions, SetTimer(TimerRound, r.period))
}

// TestPlainCoordinatorIsCoordinatorAtTMinEqualsTMax: the plain baseline is
// the accelerated coordinator at tmin = tmax = P. Driven by the same random
// beats and timers, the Coordinator must emit exactly the reference's
// action lists. The members arrive unsorted ({7, 3, 5, …}), so the
// reference's ascending send and suspect order is checked against the
// Coordinator's own sorting, not the configuration order.
func TestPlainCoordinatorIsCoordinatorAtTMinEqualsTMax(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		period := []Tick{1, 2, 5, 16}[seed%4]
		members := []ProcID{7, 3, 5, 9, 1}[:1+seed%5]
		c, err := NewCoordinator(CoordinatorConfig{
			Config:     Config{TMin: period, TMax: period},
			Membership: MembershipFixed,
			Members:    members,
		})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		ref := &refPlainCoordinator{period: period, members: slices.Clone(members), status: StatusActive, rcvd: map[ProcID]bool{}}
		slices.Sort(ref.members)
		for _, id := range members {
			ref.rcvd[id] = true // the first round is a grace round
		}
		if got, want := c.Start(0), []Action{SetTimer(TimerRound, period)}; !slices.Equal(got, want) {
			t.Fatalf("seed %d: Start %+v, reference %+v", seed, got, want)
		}
		for step := 0; step < 300 && c.Status() == StatusActive; step++ {
			now := Tick(step)
			if rng.Intn(4) == 0 {
				id := []TimerID{TimerRound, TimerRound, TimerRound, TimerExpiry}[rng.Intn(4)]
				got, want := c.OnTimer(id, now), ref.OnTimer(id)
				if !slices.Equal(got, want) || c.Status() != ref.status {
					t.Fatalf("seed %d step %d: timer %v actions %+v status %v, reference %+v %v",
						seed, step, id, got, c.Status(), want, ref.status)
				}
				continue
			}
			b := Beat{From: ProcID(rng.Intn(11)), Stay: rng.Intn(5) != 0}
			if got := c.OnBeat(b, now); got != nil {
				t.Fatalf("seed %d step %d: beat %+v answered %+v; the reference answers nothing", seed, step, b, got)
			}
			ref.OnBeat(b)
		}
		if c.Status() != StatusInactive {
			t.Fatalf("seed %d: the run never reached a suspicion", seed)
		}
	}
}

// TestNewPlainCoordinator: the baseline's constructor is the Coordinator at
// tmin = tmax = Period, and it refuses every miss limit but 1 and every
// configuration the Coordinator refuses.
func TestNewPlainCoordinator(t *testing.T) {
	c, err := NewPlainCoordinator(PlainConfig{Period: 5, MissLimit: 1, Members: []ProcID{1}})
	if err != nil {
		t.Fatalf("NewPlainCoordinator: %v", err)
	}
	if c.cfg.TMin != 5 || c.cfg.TMax != 5 || c.cfg.Membership != MembershipFixed {
		t.Fatalf("built %+v, want a fixed-membership coordinator at tmin = tmax = 5", c.cfg)
	}
	for _, cfg := range []PlainConfig{
		{Period: 0, MissLimit: 1, Members: []ProcID{1}},
		{Period: 5, MissLimit: 0, Members: []ProcID{1}},
		{Period: 5, MissLimit: 2, Members: []ProcID{1}},
		{Period: 5, MissLimit: 1},
		{Period: 5, MissLimit: 1, Members: []ProcID{0}},
		{Period: 5, MissLimit: 1, Members: []ProcID{1, 1}},
	} {
		if _, err := NewPlainCoordinator(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestActionSize pins what keeps Action copies inline: at 64 bytes the
// compiler moves an Action with eight register-width moves, past it with a
// runtime.duffcopy call on every append and range.
func TestActionSize(t *testing.T) {
	if size := unsafe.Sizeof(Action{}); size != 64 {
		t.Fatalf("Action is %d bytes, want 64", size)
	}
}
