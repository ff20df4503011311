package ta_test

import (
	"errors"
	"flag"
	"fmt"
	"testing"

	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/ta"
)

// TestSuccessorsMatchAllEdgesReference holds the location-indexed
// Successors to the all-edges enumerator it replaced, on the five table
// variants, original and corrected, each at a short and a long tmin: the
// same transitions — label, delay, class, initiating automaton, target — in
// the same order. At N = 1 it compares them on every reachable state of
// the network (tmax 4). The joiner variants' networks at N = 2 run to
// millions of states even at tmax 2, so there it compares them on every
// state the R1 check expands, the quotient the verdict path explores
// (tmax 2). Asked for by name (-run) it walks all of each; a plain
// `go test` walks a breadth-first prefix of each.
func TestSuccessorsMatchAllEdgesReference(t *testing.T) {
	limit := 5_000
	if f := flag.Lookup("test.run"); f != nil && f.Value.String() != "" && !testing.Short() {
		limit = 0
	}
	for _, v := range []models.Variant{models.Binary, models.RevisedBinary, models.TwoPhase, models.Expanding, models.Dynamic} {
		for _, n := range []int{1, 2} {
			if n == 2 && (v == models.Binary || v == models.RevisedBinary || v == models.TwoPhase) {
				continue // the binary family has one participant
			}
			tmax := int32(4)
			if n == 2 {
				tmax = 2
			}
			for _, fixed := range []bool{false, true} {
				for _, tmin := range []int32{1, tmax} {
					cfg := models.Config{Variant: v, N: n, TMin: tmin, TMax: tmax, Fixed: fixed}
					t.Run(fmt.Sprintf("%v/n=%d/fixed=%v/tmin=%d", v, n, fixed, tmin), func(t *testing.T) {
						m, err := models.Build(cfg)
						if err != nil {
							t.Fatal(err)
						}
						c := newComparer(t, m.Net)
						if n == 1 {
							c.walk(limit)
						} else {
							compare := func(s *ta.State) bool { c.compare(s); return false }
							_, err := m.Verify(models.R1, mc.Options{MaxStates: limit, Prune: compare})
							if err != nil && (limit == 0 || !errors.Is(err, mc.ErrStateLimit)) {
								t.Fatal(err)
							}
						}
						t.Logf("%d states, %d transitions", c.states, c.transitions)
					})
				}
			}
		}
	}
}

// comparer runs both enumerators on each state it is given, on contexts
// of its own.
type comparer struct {
	t                   *testing.T
	net                 *ta.Network
	ctx, ref            *ta.SuccCtx
	got, want           []ta.Transition
	states, transitions int
}

func newComparer(t *testing.T, net *ta.Network) *comparer {
	return &comparer{t: t, net: net, ctx: net.NewSuccCtx(), ref: net.NewSuccCtx()}
}

// compare fails the test unless both enumerators emit the same successors
// of s, in the same order; they are left in c.got.
func (c *comparer) compare(s *ta.State) {
	c.t.Helper()
	c.got = c.ctx.Successors(s, c.got[:0])
	c.want = c.ref.ReferenceSuccessors(s, c.want[:0])
	if len(c.got) != len(c.want) {
		c.t.Fatalf("state %v: %d successors, reference %d", s, len(c.got), len(c.want))
	}
	for k := range c.got {
		g, w := &c.got[k], &c.want[k]
		if g.Label != w.Label || g.Delay != w.Delay || g.Class != w.Class || g.Src() != w.Src() ||
			string(g.Target.AppendKey(nil)) != string(w.Target.AppendKey(nil)) {
			c.t.Fatalf("state %v, successor %d: %q delay=%v class=%v src=%d %v, reference %q delay=%v class=%v src=%d %v",
				s, k, g.Label, g.Delay, g.Class, g.Src(), g.Target, w.Label, w.Delay, w.Class, w.Src(), w.Target)
		}
	}
	c.states++
	c.transitions += len(c.got)
}

// walk explores the network breadth-first (limit 0: to the end, otherwise
// its first limit states), comparing the enumerators on every state.
func (c *comparer) walk(limit int) {
	init := c.net.Initial()
	queue := []ta.State{init}
	seen := map[string]bool{string(init.AppendKey(nil)): true}
	for i := 0; i < len(queue); i++ {
		c.compare(&queue[i])
		for k := range c.got {
			key := string(c.got[k].Target.AppendKey(nil))
			if !seen[key] && (limit == 0 || len(queue) < limit) {
				seen[key] = true
				queue = append(queue, c.got[k].Target.Clone())
			}
		}
	}
}
