package mc

import (
	"testing"

	"repro/internal/ta"
)

// TestSerialCheckerAllocBudget pins the allocation count of one small
// check (the benchmark's mc.allocs_per_check reports the figure for a
// real model). The bound includes network construction and covers growth
// headroom; per-state or per-level allocation back on the path blows
// straight through it.
func TestSerialCheckerAllocBudget(t *testing.T) {
	check := func() {
		net, v := counterNet(30)
		res, err := CheckReachability(net, func(s *ta.State) bool { return s.Vars[v] == 29 }, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reachable {
			t.Fatal("goal unreachable")
		}
	}
	check() // warm any lazy package state
	avg := testing.AllocsPerRun(20, check)
	// The counter model plus one exploration sits around 100 allocs.
	if avg > 200 {
		t.Fatalf("check allocates %.0f/op, budget 200", avg)
	}
}
