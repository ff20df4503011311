package models

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/mc"
	"repro/internal/par"
)

// TableSpec describes a verification table: a tmin sweep checked for
// R1–R3 on one or more variants, as in Tables 1 and 2 of the analysis.
type TableSpec struct {
	// Variants are the protocols included in the table.
	Variants []Variant
	// TMins is the sweep (the paper uses 1, 4, 5, 9, 10).
	TMins []int32
	// TMax is the fixed upper bound (the paper uses 10).
	TMax int32
	// N is the participant count per model.
	N int
	// Fixed checks the corrected protocols instead of the originals.
	Fixed bool
	// Opts tunes the model checker.
	Opts mc.Options
	// Workers bounds how many cells are verified concurrently; 0 means
	// runtime.GOMAXPROCS(0). Cells are independent models, so any worker
	// count returns results byte-identical to sequential execution.
	Workers int
}

// DefaultTMins is the data-set sweep of the analysis.
func DefaultTMins() []int32 { return []int32{1, 4, 5, 9, 10} }

// Cell is one verdict of a table.
type Cell struct {
	Variant Variant
	TMin    int32
	Prop    Property
	Verdict Verdict
}

// RunTable evaluates every (variant, tmin, property) combination. Each
// (variant, tmin) is two independent units of work: R1 on the model, and
// R2 with R3 in one exploration of the sliced model. Units are fanned out
// by par.Do and their cells reassembled in spec order: the result — and on
// failure, the error of the earliest failing cell and the completed-cell
// prefix before it — is identical for every worker count, and to checking
// each cell on its own with Verify.
func RunTable(spec TableSpec) ([]Cell, error) {
	groups := [][]Property{{R1}, {R2, R3}}
	jobs := make([]Cell, 0, len(spec.Variants)*len(spec.TMins)*3)
	var units [][2]int // each unit's cells, jobs[lo:hi]
	for _, variant := range spec.Variants {
		for _, tmin := range spec.TMins {
			for _, props := range groups {
				units = append(units, [2]int{len(jobs), len(jobs) + len(props)})
				for _, prop := range props {
					jobs = append(jobs, Cell{Variant: variant, TMin: tmin, Prop: prop})
				}
			}
		}
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// clean[u] counts unit u's leading cells that completed cleanly.
	clean := make([]int, len(units))
	done, err := par.Do(len(units), workers, func(_, u int) error {
		cells := jobs[units[u][0]:units[u][1]]
		props := make([]Property, len(cells))
		for k, c := range cells {
			props[k] = c.Prop
		}
		cfg := Config{
			TMin:    cells[0].TMin,
			TMax:    spec.TMax,
			Variant: cells[0].Variant,
			N:       spec.N,
			Fixed:   spec.Fixed,
		}
		vs, err := verifyAll(cfg, props, spec.Opts)
		for k, v := range vs {
			cells[k].Verdict = v
		}
		clean[u] = len(vs)
		if err != nil {
			c := cells[len(vs)]
			return fmt.Errorf("table cell %v tmin=%d %v: %w", c.Variant, c.TMin, c.Prop, err)
		}
		return nil
	})
	if err != nil {
		return jobs[:units[done][0]+clean[done]], err
	}
	return jobs, nil
}

// FormatTable renders cells in the layout of the paper's tables: one block
// per variant, properties as rows, the tmin sweep as columns, T/F entries.
func FormatTable(cells []Cell) string {
	var sb strings.Builder
	byVariant := map[Variant][]Cell{}
	var order []Variant
	for _, c := range cells {
		if _, ok := byVariant[c.Variant]; !ok {
			order = append(order, c.Variant)
		}
		byVariant[c.Variant] = append(byVariant[c.Variant], c)
	}
	for _, variant := range order {
		vs := byVariant[variant]
		var tmins []int32
		seen := map[int32]bool{}
		for _, c := range vs {
			if !seen[c.TMin] {
				seen[c.TMin] = true
				tmins = append(tmins, c.TMin)
			}
		}
		fmt.Fprintf(&sb, "%s protocol\n", variant)
		fmt.Fprintf(&sb, "  %-6s", "tmin")
		for _, tm := range tmins {
			fmt.Fprintf(&sb, " %3d", tm)
		}
		sb.WriteString("\n")
		for _, prop := range []Property{R1, R2, R3} {
			fmt.Fprintf(&sb, "  %-6s", prop)
			for _, tm := range tmins {
				mark := "?"
				for _, c := range vs {
					if c.TMin == tm && c.Prop == prop {
						if c.Verdict.Satisfied {
							mark = "T"
						} else {
							mark = "F"
						}
					}
				}
				fmt.Fprintf(&sb, " %3s", mark)
			}
			sb.WriteString("\n")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// VerdictString flattens the R1R2R3 verdicts for one variant and tmin into
// a compact "FTT"-style string, for tests.
//
//lint:allow unused-export Tables 1-2 check every row with it: go test -bench BenchmarkTable -benchtime 1x .
func VerdictString(cells []Cell, variant Variant, tmin int32) string {
	out := ""
	for _, prop := range []Property{R1, R2, R3} {
		for _, c := range cells {
			if c.Variant == variant && c.TMin == tmin && c.Prop == prop {
				if c.Verdict.Satisfied {
					out += "T"
				} else {
					out += "F"
				}
			}
		}
	}
	return out
}
