package models

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mc"
	"repro/internal/ta"
)

// Each verdict search stores as 0 the observer-only variables its own goals
// and cut do not read ((*Model).reads, (*Model).quotient). The oracles here
// hold each search's canonicaliser to that search's predicates, on the
// grids the dead-clock and symmetry oracles walk, and the differential
// holds the sliced verdict path to the unsliced one at table scale.

// verdictSearches are the two verdict searches by the properties they
// answer: R1's, and the one R2 and R3 share.
var verdictSearches = [][]Property{{R1}, {R2, R3}}

// searchPreds are the predicates a verdict search for props evaluates:
// its cut, then its goals.
func (m *Model) searchPreds(props []Property) []func(*ta.State) bool {
	preds := []func(*ta.State) bool{m.cut(props)}
	for _, p := range props {
		goal, err := m.Violation(p)
		if err != nil {
			panic(err)
		}
		preds = append(preds, goal)
	}
	return preds
}

// checkSlices walks m's network once with an oracle per verdict search:
// the bisimulation oracle on its canonicaliser without the sort, or with
// equiv the equivariance oracle on its canonicaliser, each holding it to
// the search's own predicates. reads declares what a search keeps
// ((*Model).reads, or a mutant of it). It walks every reachable state
// (loss-free ones if lossless), or a breadth-first prefix with prefix set.
func checkSlices(m *Model, reads func([]Property) []int, equiv, lossless, prefix bool) (states int, failure string, err error) {
	var opts mc.Options
	if lossless {
		opts.Prune = m.MessageLost
	}
	type oracle struct {
		name   string
		broken func(*ta.State) bool
		why    *string
	}
	var oracles []oracle
	for _, props := range verdictSearches {
		name, preds := fmt.Sprint(props), m.searchPreds(props)
		if equiv {
			o := &equivOracle{sym: m.sym, first: m.Cfg.N - m.sym.members, canon: m.quotient(reads(props), true), preds: preds, ctx: m.Net.NewSuccCtx()}
			oracles = append(oracles, oracle{name, o.broken, &o.why})
		} else {
			o := &bisimOracle{canon: m.quotient(reads(props), false), preds: preds, ctx: m.Net.NewSuccCtx(), repCtx: m.Net.NewSuccCtx()}
			oracles = append(oracles, oracle{name, o.broken, &o.why})
		}
	}
	var why string
	broken := func(s *ta.State) bool {
		for _, o := range oracles {
			if o.broken(s) {
				why = fmt.Sprintf("the %s search: %s", o.name, *o.why)
				return true
			}
		}
		return false
	}
	return runOracle(m.Net, broken, &why, prefix, opts)
}

// TestObserverSliceIsBisimulation is the oracle for each verdict search's
// slice: on every model of the quotient grid, monitored and sliced, each
// search's canonicaliser, unsorted, is a functional strong bisimulation
// that its own goals and cut do not see through. At full scale
// (fullScale) it walks every reachable state; otherwise a breadth-first
// prefix of each.
func TestObserverSliceIsBisimulation(t *testing.T) {
	t.Parallel()
	grid, total := quotientGrid(), 0
	for _, tc := range grid {
		m, err := Build(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		states, failure, err := checkSlices(m, m.reads, false, tc.lossless, !fullScale())
		if err != nil {
			t.Fatal(err)
		}
		if failure != "" {
			t.Errorf("%+v lossless=%v: %s", tc.cfg, tc.lossless, failure)
		}
		total += states
	}
	t.Logf("%d models, %d unreduced states checked (full scale: %v)", len(grid), total, fullScale())
}

// TestObserverSliceIsEquivariant: the same with the sort, over the
// symmetry grid — each search's canonicaliser maps every orbit to one
// state, and its predicates respect the group. At full scale (fullScale)
// it walks every reachable state; otherwise a breadth-first prefix of each.
func TestObserverSliceIsEquivariant(t *testing.T) {
	t.Parallel()
	grid, total := symmetryGrid(), 0
	for _, tc := range grid {
		m, err := Build(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		states, failure, err := checkSlices(m, m.reads, true, tc.lossless, !fullScale())
		if err != nil {
			t.Fatal(err)
		}
		if failure != "" {
			t.Errorf("%+v lossless=%v: %s", tc.cfg, tc.lossless, failure)
		}
		total += states
	}
	t.Logf("%d models, %d unreduced states checked (full scale: %v)", len(grid), total, fullScale())
}

// TestObserverSliceOracleCatchesMutants: the bisimulation oracle can fail.
// One mutant declares that the R2/R3 search does not read lostMsg, which
// its cut and goals read; the other that the R1 search does not read
// active0, which its cut reads (active0 is observer-only only where no
// monitor reads it, so this one bites on the sliced models). Each must
// fail on some model of the quotient grid. (The equivariance oracle holds
// the predicates to the group, not to the canonicaliser, so zeroing a
// variable every member shares is not its to catch.)
func TestObserverSliceOracleCatchesMutants(t *testing.T) {
	for _, mutant := range []struct {
		name   string
		search Property
		unread func(m *Model) int
	}{
		{"lostMsg unread by the R2/R3 search", R2, func(m *Model) int { return m.vLost }},
		{"active0 unread by the R1 search", R1, func(m *Model) int { return m.vActive0 }},
	} {
		caught := ""
		for _, tc := range quotientGrid() {
			m, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			reads := func(props []Property) []int {
				r := m.reads(props)
				if sliced(props[0]) == sliced(mutant.search) {
					r = slices.DeleteFunc(r, func(v int) bool { return v == mutant.unread(m) })
				}
				return r
			}
			_, failure, err := checkSlices(m, reads, false, tc.lossless, testing.Short())
			if err != nil {
				t.Fatal(err)
			}
			if failure != "" {
				caught = fmt.Sprintf("%+v: %s", tc.cfg, failure)
				break
			}
		}
		if caught == "" {
			t.Errorf("%s: the oracle accepts it on every model of the grid", mutant.name)
			continue
		}
		t.Logf("%s caught at %s", mutant.name, caught)
	}
}

// TestVerdictCanonAllocFree: a verdict search's canonicaliser runs on every
// successor the search keeps, inside the explorer's allocation-free
// expansion loop.
func TestVerdictCanonAllocFree(t *testing.T) {
	for _, cfg := range []Config{
		{TMin: 2, TMax: 4, Variant: Dynamic, N: 2, Fixed: true, MonitorAll: true},
		{TMin: 2, TMax: 4, Variant: Dynamic, N: 2, Fixed: true, NoMonitor: true},
	} {
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, props := range verdictSearches {
			canon := m.quotient(m.reads(props), true)
			s := m.Net.Initial()
			if allocs := testing.AllocsPerRun(100, func() { canon(&s) }); allocs != 0 {
				t.Errorf("%+v %v: the verdict canonicaliser allocates %.0f/op", cfg, props, allocs)
			}
		}
	}
}

// unsliced is what Verify returns for prop on cfg with no observer-only
// variable stored as 0: dead clocks, the sort and the cut as before.
func unsliced(cfg Config, prop Property) (Verdict, error) {
	m, err := Build(verifiedConfig(cfg, prop))
	if err != nil {
		return Verdict{}, err
	}
	m.observers = nil
	v, err := m.Verify(prop, mc.Options{})
	v.Cfg.NoMonitor = cfg.NoMonitor
	return v, err
}

// TestObserverSliceMatchesUnslicedAtTableScale is the differential for the
// slice where the verdicts are the paper's: every cell of the four hbcheck
// tables (tmax 10; the binary family and static at N=2, expanding and
// dynamic at N=1; original and corrected) and the R1 figures, checked by
// Verify and unsliced. Verdicts are equal, witnesses reflect.DeepEqual
// (labels, times and states), no cell takes more states, and the total is
// strictly smaller.
func TestObserverSliceMatchesUnslicedAtTableScale(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs every table cell unsliced; skipped in -short")
	}
	type check struct {
		name, table string
		cfg         Config
		prop        Property
	}
	var checks []check
	family := []Variant{Binary, RevisedBinary, TwoPhase, Static}
	for _, fixed := range []bool{false, true} {
		for ti, spec := range []TableSpec{
			{Variants: family, N: 2},
			{Variants: []Variant{Expanding, Dynamic}, N: 1},
		} {
			table := fmt.Sprintf("table %d", ti+1)
			if fixed {
				table = fmt.Sprintf("corrected table %d", ti+1)
			}
			for _, variant := range spec.Variants {
				for _, tmin := range DefaultTMins() {
					for _, prop := range []Property{R1, R2, R3} {
						cfg := Config{TMin: tmin, TMax: 10, Variant: variant, N: spec.N, Fixed: fixed}
						checks = append(checks, check{fmt.Sprintf("%v tmin=%d fixed=%v %v", variant, tmin, fixed, prop), table, cfg, prop})
					}
				}
			}
		}
	}
	for _, f := range Figures() {
		if f.Prop == R1 {
			checks = append(checks, check{"figure " + f.ID, "figures", f.Cfg, f.Prop})
		}
	}
	got, want := map[string]int{}, map[string]int{}
	for _, c := range checks {
		sliced, err := Verify(c.cfg, c.prop, mc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		whole, err := unsliced(c.cfg, c.prop)
		if err != nil {
			t.Fatal(err)
		}
		if sliced.Satisfied != whole.Satisfied {
			t.Errorf("%s: satisfied=%v, unsliced %v", c.name, sliced.Satisfied, whole.Satisfied)
		}
		if !reflect.DeepEqual(sliced.Result.Trace, whole.Result.Trace) {
			t.Errorf("%s: the witness differs from the unsliced one", c.name)
		}
		if s, w := sliced.Result.StatesExplored, whole.Result.StatesExplored; s > w {
			t.Errorf("%s: %d states, unsliced %d", c.name, s, w)
		}
		key := c.table + " R1"
		if c.prop != R1 {
			key = c.table + " R2+R3"
		}
		got[key] += sliced.Result.StatesExplored
		want[key] += whole.Result.StatesExplored
		got[""] += sliced.Result.StatesExplored
		want[""] += whole.Result.StatesExplored
	}
	var keys []string
	for k := range got {
		if k != "" {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		t.Logf("%s: %d states sliced, %d unsliced", k, got[k], want[k])
	}
	t.Logf("%d checks: %d states sliced, %d unsliced", len(checks), got[""], want[""])
	if got[""] >= want[""] {
		t.Errorf("%d states sliced, %d unsliced: the slice merges nothing", got[""], want[""])
	}
}

// TestShutdownSliceOracleCatchesMutant: the shutdown search stores every
// observer-only variable as 0 (ShutdownModel.canon), which is sound only
// because Observers is derived with the monitor in place, so no variable
// the monitor reads is among them. TestQuotientIsBisimulationShutdown holds
// that canonicaliser to the monitor; here it must reject the slice that
// also zeroes crashed, which the monitor's guard and the arming updates
// read, on some shutdown model.
func TestShutdownSliceOracleCatchesMutant(t *testing.T) {
	for _, cfg := range shutdownOracleConfigs() {
		sm, err := BuildWithShutdownMonitor(cfg, cfg.ShutdownBound())
		if err != nil {
			t.Fatal(err)
		}
		deadClocksOnly(sm.Model)
		sm.observers = append(slices.Clone(sm.observers), sm.vCrashed)
		_, failure, err := checkBisimulation(sm.Net, sm.canon(), []func(*ta.State) bool{sm.Violated}, false, mc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if failure != "" {
			t.Logf("caught at %+v: %s", cfg, failure)
			return
		}
	}
	t.Error("the oracle accepts crashed as observer-only on every shutdown model")
}
