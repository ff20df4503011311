// Command hbcheck model-checks the accelerated heartbeat protocols and
// regenerates the verification tables of the analysis:
//
//	hbcheck -table 1        # binary family (Table 1)
//	hbcheck -table 2        # expanding + dynamic (Table 2)
//	hbcheck -table fixed    # corrected protocols (§6), all entries T
//	hbcheck -table all      # everything
//	hbcheck -table 2 -workers 4   # fan cells over 4 goroutines, same output
//	hbcheck -variant binary -tmin 10 -prop R2 -trace
//	hbcheck -analyze                  # structural analysis of all six variants
//	hbcheck -analyze -variant dynamic # pre-flight analysis, then the check
//
// Exit status is 0 when every verdict matches the analysis' expectation
// (tables mode) or when the requested property holds (single mode).
// -analyze runs ta.Analyze as a pre-flight over the model(s) about to be
// explored — with no table or variant, over all six variants (original and
// corrected) — and refuses to run the BFS on a model with structural
// problems (exit 1).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/trace"
)

func main() {
	var (
		table     = flag.String("table", "", "regenerate a verification table: 1, 2, fixed, or all")
		variant   = flag.String("variant", "", "single check: binary, revised-binary, two-phase, static, expanding, dynamic")
		prop      = flag.String("prop", "R1", "single check: property R1, R2 or R3")
		tmin      = flag.Int("tmin", 1, "single check: tmin")
		tmax      = flag.Int("tmax", 10, "tmax (tables use the paper's 10)")
		n         = flag.Int("n", 0, "participants (default: 2 for static, 1 otherwise)")
		fixed     = flag.Bool("fixed", false, "single check: check the corrected (§6) protocol")
		showTrace = flag.Bool("trace", false, "single check: print the counter-example when the property fails")
		maxStates = flag.Int("max-states", 20_000_000, "state-space limit per check")
		workers   = flag.Int("workers", 0, "concurrent table cells (0 = GOMAXPROCS); a single check is sequential")
		analyze   = flag.Bool("analyze", false, "run the structural model analysis (ta.Analyze) before exploring; alone: analyze all six variants and exit")
	)
	flag.Parse()

	opts := mc.Options{MaxStates: *maxStates}
	switch {
	case *table != "":
		// Pre-flight every variant the tables will build before spending
		// minutes of BFS on a structurally broken model.
		if *analyze {
			if err := runAnalyzeAll(int32(*tmin), int32(*tmax)); err != nil {
				fmt.Fprintln(os.Stderr, "hbcheck:", err)
				os.Exit(1)
			}
		}
		// Tables parallelise across cells (each cell is an independent
		// model); every check is itself sequential.
		if err := runTables(*table, int32(*tmax), *workers, opts); err != nil {
			fmt.Fprintln(os.Stderr, "hbcheck:", err)
			os.Exit(1)
		}
	case *variant != "":
		if *analyze {
			v, err := parseVariant(*variant)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hbcheck:", err)
				os.Exit(1)
			}
			cfg := models.Config{TMin: int32(*tmin), TMax: int32(*tmax), Variant: v, N: defaultN(v, *n), Fixed: *fixed}
			if err := analyzeConfig(cfg); err != nil {
				fmt.Fprintln(os.Stderr, "hbcheck:", err)
				os.Exit(1)
			}
		}
		ok, err := runSingle(*variant, *prop, int32(*tmin), int32(*tmax), *n, *fixed, *showTrace, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hbcheck:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(2)
		}
	case *analyze:
		if err := runAnalyzeAll(int32(*tmin), int32(*tmax)); err != nil {
			fmt.Fprintln(os.Stderr, "hbcheck:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(1)
	}
}

// analyzeConfig builds cfg's network and runs the structural analysis,
// printing every problem; a non-nil error means the model failed.
func analyzeConfig(cfg models.Config) error {
	m, err := models.Build(cfg)
	if err != nil {
		return err
	}
	problems := m.Net.Analyze()
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "analyze %v tmin=%d tmax=%d fixed=%v: %s\n",
			cfg.Variant, cfg.TMin, cfg.TMax, cfg.Fixed, p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("analyze: %v (tmin=%d tmax=%d fixed=%v): %d problem(s)",
			cfg.Variant, cfg.TMin, cfg.TMax, cfg.Fixed, len(problems))
	}
	return nil
}

// runAnalyzeAll analyzes all six variants, original and corrected, at the
// given constants.
func runAnalyzeAll(tmin, tmax int32) error {
	for _, v := range []models.Variant{
		models.Binary, models.RevisedBinary, models.TwoPhase,
		models.Static, models.Expanding, models.Dynamic,
	} {
		for _, fixed := range []bool{false, true} {
			cfg := models.Config{TMin: tmin, TMax: tmax, Variant: v, N: defaultN(v, 0), Fixed: fixed}
			if err := analyzeConfig(cfg); err != nil {
				return err
			}
			fmt.Printf("analyze %v tmin=%d tmax=%d fixed=%v: ok\n", v, tmin, tmax, fixed)
		}
	}
	return nil
}

func parseVariant(s string) (models.Variant, error) {
	for _, v := range []models.Variant{
		models.Binary, models.RevisedBinary, models.TwoPhase,
		models.Static, models.Expanding, models.Dynamic,
	} {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q", s)
}

func parseProp(s string) (models.Property, error) {
	switch strings.ToUpper(s) {
	case "R1":
		return models.R1, nil
	case "R2":
		return models.R2, nil
	case "R3":
		return models.R3, nil
	}
	return 0, fmt.Errorf("unknown property %q", s)
}

func defaultN(v models.Variant, n int) int {
	if n > 0 {
		return n
	}
	if v == models.Static {
		return 2
	}
	return 1
}

func runSingle(variant, prop string, tmin, tmax int32, n int, fixed, showTrace bool, opts mc.Options) (bool, error) {
	v, err := parseVariant(variant)
	if err != nil {
		return false, err
	}
	p, err := parseProp(prop)
	if err != nil {
		return false, err
	}
	cfg := models.Config{TMin: tmin, TMax: tmax, Variant: v, N: defaultN(v, n), Fixed: fixed}
	verdict, err := models.Verify(cfg, p, opts)
	if err != nil {
		return false, err
	}
	status := "satisfied"
	if !verdict.Satisfied {
		status = "VIOLATED"
	}
	fmt.Printf("%v %v tmin=%d tmax=%d fixed=%v: %s (%d states, %d transitions)\n",
		v, p, tmin, tmax, fixed, status,
		verdict.Result.StatesExplored, verdict.Result.TransitionsExplored)
	if !verdict.Satisfied && showTrace {
		title := fmt.Sprintf("counter-example for %v on the %v protocol (tmin=%d, tmax=%d)", p, v, tmin, tmax)
		if err := trace.Render(os.Stdout, title, verdict.Result.Trace); err != nil {
			return false, err
		}
	}
	return verdict.Satisfied, nil
}

func runTables(which string, tmax int32, workers int, opts mc.Options) error {
	run := func(title string, spec models.TableSpec) error {
		fmt.Println("==", title)
		cells, err := models.RunTable(spec)
		if err != nil {
			return err
		}
		fmt.Print(models.FormatTable(cells))
		return nil
	}
	tmins := models.DefaultTMins()
	table1 := models.TableSpec{
		Variants: []models.Variant{models.Binary, models.RevisedBinary, models.TwoPhase, models.Static},
		TMins:    tmins, TMax: tmax, N: 2, Opts: opts, Workers: workers,
	}
	table2 := models.TableSpec{
		Variants: []models.Variant{models.Expanding, models.Dynamic},
		TMins:    tmins, TMax: tmax, N: 1, Opts: opts, Workers: workers,
	}
	fixed1 := table1
	fixed1.Fixed = true
	fixed2 := table2
	fixed2.Fixed = true

	switch which {
	case "1":
		return run("Table 1: binary family, original protocols (expect R1: F F F T T; R2/R3: T T T T F; two-phase R1 diverges at tmin=9)", table1)
	case "2":
		return run("Table 2: expanding and dynamic, original protocols (expect R1: F F F T T; R2: T T F F F; R3: T T T T F)", table2)
	case "fixed":
		if err := run("Corrected binary family (§6, expect all T)", fixed1); err != nil {
			return err
		}
		return run("Corrected expanding and dynamic (§6, expect all T)", fixed2)
	case "all":
		for _, t := range []struct {
			title string
			spec  models.TableSpec
		}{
			{"Table 1: binary family, original protocols", table1},
			{"Table 2: expanding and dynamic, original protocols", table2},
			{"Corrected binary family (§6)", fixed1},
			{"Corrected expanding and dynamic (§6)", fixed2},
		} {
			if err := run(t.title, t.spec); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown table %q (want 1, 2, fixed or all)", which)
	}
}
