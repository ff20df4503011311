package models

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mc"
)

// TestRunTableParallelDeterminism pins the parallel-table contract: any
// worker count must return cells — and therefore FormatTable output and
// VerdictStrings — byte-identical to sequential execution.
func TestRunTableParallelDeterminism(t *testing.T) {
	spec := TableSpec{
		Variants: []Variant{Binary, Expanding},
		TMins:    []int32{1, 2, 4},
		TMax:     4,
		N:        1,
	}
	seq := spec
	seq.Workers = 1
	par := spec
	par.Workers = 8

	seqCells, err := RunTable(seq)
	if err != nil {
		t.Fatalf("sequential RunTable: %v", err)
	}
	parCells, err := RunTable(par)
	if err != nil {
		t.Fatalf("parallel RunTable: %v", err)
	}

	if len(seqCells) != len(parCells) {
		t.Fatalf("cell counts differ: %d sequential, %d parallel", len(seqCells), len(parCells))
	}
	for i := range seqCells {
		s, p := seqCells[i], parCells[i]
		if s.Variant != p.Variant || s.TMin != p.TMin || s.Prop != p.Prop ||
			s.Verdict.Satisfied != p.Verdict.Satisfied ||
			s.Verdict.Result.StatesExplored != p.Verdict.Result.StatesExplored ||
			s.Verdict.Result.TransitionsExplored != p.Verdict.Result.TransitionsExplored {
			t.Fatalf("cell %d differs: sequential %+v, parallel %+v", i, s, p)
		}
	}
	if sf, pf := FormatTable(seqCells), FormatTable(parCells); sf != pf {
		t.Fatalf("FormatTable differs:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", sf, pf)
	}
	for _, variant := range spec.Variants {
		for _, tmin := range spec.TMins {
			sv := VerdictString(seqCells, variant, tmin)
			pv := VerdictString(parCells, variant, tmin)
			if sv != pv {
				t.Fatalf("%v tmin=%d: verdicts %q sequential, %q parallel", variant, tmin, sv, pv)
			}
		}
	}
}

// TestRunTableErrorPrefix pins the failure contract: the error of the
// earliest failing cell is reported and the returned cells are exactly the
// clean prefix before it, each equal to its solo Verify, for sequential and
// parallel runs alike.
//
// In the first case a one-state limit fails every cell immediately; the
// earliest is (Binary, tmin=1, R1), so no clean prefix exists. In the
// second R2 and R3 share one exploration and the limit falls between their
// verdicts: R2's witness commits under it and R3 needs more states, so the
// R2 cell is clean and the error is R3's. Dynamic N=2 tmin=1 tmax=2 splits
// at every limit in 14,201..36,341. Since R1's search stores ever_i and
// lostMsg as 0, five N=1 models up to tmax 10 split too (expanding at
// tmin=1 tmax=2 and tmin=2 tmax=4, dynamic at tmin = tmax/2 up to 3), but
// only within windows of a few hundred states (expanding tmin=1 tmax=2:
// 356..385). (R3 is satisfied in both without the limit; mc's shared-goal
// differential places limits between two witnesses.)
func TestRunTableErrorPrefix(t *testing.T) {
	for _, tc := range []struct {
		cfg   Config
		limit int
		want  string
		clean []Property
	}{
		{Config{Variant: Binary, N: 1, TMin: 1, TMax: 4}, 1, "table cell binary tmin=1 R1", nil},
		{Config{Variant: Dynamic, N: 2, TMin: 1, TMax: 2}, 27_000, "table cell dynamic tmin=1 R3", []Property{R1, R2}},
	} {
		opts := mc.Options{MaxStates: tc.limit}
		solo := map[Property]Verdict{}
		for _, p := range tc.clean {
			v, err := Verify(tc.cfg, p, opts)
			if err != nil {
				t.Fatalf("solo %v at %d states: %v", p, tc.limit, err)
			}
			solo[p] = v
		}
		spec := TableSpec{Variants: []Variant{tc.cfg.Variant}, TMins: []int32{tc.cfg.TMin, tc.cfg.TMin + 1}, TMax: tc.cfg.TMax, N: tc.cfg.N, Opts: opts}
		for _, workers := range []int{1, 4} {
			spec.Workers = workers
			cells, err := RunTable(spec)
			if !errors.Is(err, mc.ErrStateLimit) || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("workers=%d: error %v, want prefix %q wrapping ErrStateLimit", workers, err, tc.want)
			}
			if len(cells) != len(tc.clean) {
				t.Fatalf("workers=%d: %d cells returned before the earliest failure, want %d", workers, len(cells), len(tc.clean))
			}
			for i, c := range cells {
				if c.Prop != tc.clean[i] || !reflect.DeepEqual(c.Verdict, solo[c.Prop]) {
					t.Fatalf("workers=%d: cell %d is %v %+v, want %v %+v", workers, i, c.Prop, c.Verdict, tc.clean[i], solo[tc.clean[i]])
				}
			}
		}
	}
}
