package conform

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/models"
)

// setKey is a state set as a map key, order included.
func setKey(set []int32) string { return fmt.Sprint(set) }

// sortedKey is a state set as a map key, order ignored.
func sortedKey(set []int32) string {
	sorted := slices.Clone(set)
	slices.Sort(sorted)
	return setKey(sorted)
}

// publishedNodes lists every node in sp's graph index.
func publishedNodes(sp *Spec) []*node {
	var out []*node
	for _, n := range sp.graph.index {
		for ; n != nil; n = n.chain {
			out = append(out, n)
		}
	}
	return out
}

// TestEqualFrontiersAreOneNode: a frontier is one node of its spec's graph
// however it was reached. Two label sequences from the initial frontier
// whose images hold the same states in different orders must end on the
// same *node; and the graph the three topology campaigns build over 20
// trials each holds sorted sets, no two of them equal.
func TestEqualFrontiersAreOneNode(t *testing.T) {
	t.Run("paths", func(t *testing.T) {
		check := &CampaignCheck{Model: models.Config{TMin: 2, TMax: 4, Variant: models.Static, N: 1, Fixed: true}}
		sp, err := check.Spec()
		if err != nil {
			t.Fatal(err)
		}
		// Breadth-first over label sequences from the initial frontier and
		// from a reseed, on the reference frontier, which keeps each image
		// in the order it was built, until two sequences reach one set in
		// two orders.
		type reached struct {
			start  *node
			labels []int32
			ck     *refChecker
		}
		first := map[string]reached{} // by sorted set
		queue := []reached{
			{start: sp.graph.initial, ck: newRefChecker(sp)},
			{start: &sp.graph.root, ck: newRefCheckerAll(sp)},
		}
		var a, b reached
		for len(queue) > 0 && a.ck == nil {
			r := queue[0]
			queue = queue[1:]
			for label := int32(0); label < int32(len(sp.labels)) && a.ck == nil; label++ {
				ck := &refChecker{sp: sp, cur: r.ck.cur}
				if !ck.step(label) {
					continue
				}
				next := reached{start: r.start, labels: append(slices.Clone(r.labels), label), ck: ck}
				key := sortedKey(ck.cur)
				prev, seen := first[key]
				switch {
				case !seen:
					first[key] = next
					if len(next.labels) < 8 {
						queue = append(queue, next)
					}
				case setKey(prev.ck.cur) != setKey(ck.cur):
					a, b = prev, next
				}
			}
		}
		if a.ck == nil {
			t.Fatal("no two label sequences of up to 8 labels reach one set in two orders")
		}
		walk := func(r reached) *node {
			n := r.start
			for _, l := range r.labels {
				if n = sp.step(n, l); len(n.set) == 0 {
					t.Fatalf("%v: the graph dead-ends where the reference steps", r.labels)
				}
			}
			return n
		}
		if na, nb := walk(a), walk(b); na != nb {
			t.Fatalf("label sequences %v and %v reach one set as two nodes: %v and %v", a.labels, b.labels, na.set, nb.set)
		}
	})

	t.Run("campaigns", func(t *testing.T) {
		const (
			horizon = core.Tick(1200)
			trials  = 20
		)
		for _, tc := range topoCampaigns {
			sched, err := faults.ParseSchedule(tc.schedule)
			if err != nil {
				t.Fatal(err)
			}
			check := topoCheck(tc.variant, tc.n)
			published := 0
			for seed := int64(1); seed <= trials; seed++ {
				events, lost := recordAdaptive(t, check, sched, seed, horizon)
				if res := streamAll(t, StreamConfig{Check: check, Horizon: horizon}, events, lost); res.Unconfirmed != nil {
					t.Fatalf("%s seed %d: healthy campaign trial diverged: %v", tc.name, seed, res.Unconfirmed)
				}
			}
			for level := 0; level < topoEnvelope.Levels(); level++ {
				sp, err := check.SpecAt(level)
				if err != nil {
					t.Fatal(err)
				}
				nodes := publishedNodes(sp)
				published += len(nodes)
				bySet := map[string]*node{}
				for _, n := range nodes {
					if !slices.IsSorted(n.set) {
						t.Fatalf("%s level %d: published set %v is not sorted", tc.name, level, n.set)
					}
					key := sortedKey(n.set)
					if other, ok := bySet[key]; ok {
						t.Fatalf("%s level %d: two published nodes hold the set %v (%p, %p)", tc.name, level, n.set, other, n)
					}
					bySet[key] = n
				}
			}
			if published <= topoEnvelope.Levels() {
				t.Fatalf("%s: the campaign published %d nodes over %d specs", tc.name, published, topoEnvelope.Levels())
			}
		}
	})
}
