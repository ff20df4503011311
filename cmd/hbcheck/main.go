// Command hbcheck model-checks the accelerated heartbeat protocols and
// regenerates the verification tables of the analysis:
//
//	hbcheck -table 1        # binary family (Table 1)
//	hbcheck -table 2        # expanding + dynamic (Table 2)
//	hbcheck -table fixed    # corrected protocols (§6), all entries T
//	hbcheck -table all      # everything
//	hbcheck -table 2 -workers 4   # fan cells over 4 goroutines, same output
//	hbcheck -variant binary -tmin 10 -prop R2 -trace
//	hbcheck -analyze                  # structural analysis of every shipped network
//	hbcheck -analyze -variant dynamic # pre-flight analysis, then the check
//
// Exit status is 0 when every verdict matches the analysis' expectation
// (tables mode) or when the requested property holds (single mode).
// -analyze runs ta.Analyze as a pre-flight over the model(s) about to be
// explored — with no table or variant, over every network the commands
// ship: all six variants (original and corrected, with and without the
// shutdown monitor) and the isolated processes of Figures 1 and 2 — and
// refuses to run the BFS on a model with structural problems, an
// undeclared footprint among them (exit 1). A shutdown network whose bound
// is too large for its clock is skipped, with a line saying so.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/ta"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams passed in: verdicts, tables and traces go
// to w, usage, analysis problems and the final error line to stderr. It
// returns the exit status: 0, 1 for an error, 2 for a violated single check
// (and, as the flag package has it, for a malformed command line).
func run(args []string, w, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table     = fs.String("table", "", "regenerate a verification table: 1, 2, fixed, or all")
		variant   = fs.String("variant", "", "single check: binary, revised-binary, two-phase, static, expanding, dynamic")
		prop      = fs.String("prop", "R1", "single check: property R1, R2 or R3")
		tmin      = fs.Int("tmin", 1, "single check: tmin")
		tmax      = fs.Int("tmax", 10, "tmax (tables use the paper's 10)")
		n         = fs.Int("n", 0, "participants (default: 2 for static, 1 otherwise)")
		fixed     = fs.Bool("fixed", false, "single check: check the corrected (§6) protocol")
		showTrace = fs.Bool("trace", false, "single check: print the counter-example when the property fails")
		maxStates = fs.Int("max-states", 20_000_000, "state-space limit per check")
		workers   = fs.Int("workers", 0, "concurrent table cells (0 = GOMAXPROCS); a single check is sequential")
		analyze   = fs.Bool("analyze", false, "run the structural model analysis (ta.Analyze) before exploring; alone: analyze every shipped network and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := mc.Options{MaxStates: *maxStates}
	satisfied := true
	var err error
	switch {
	case *table != "":
		// Pre-flight every variant the tables will build before spending
		// the BFS on a structurally broken model.
		if *analyze {
			err = runAnalyzeAll(w, stderr, int32(*tmin), int32(*tmax))
		}
		// Tables parallelise across cells (each cell is an independent
		// model); every check is itself sequential.
		if err == nil {
			err = runTables(w, *table, int32(*tmax), *workers, opts)
		}
	case *variant != "":
		cfg := models.Config{TMin: int32(*tmin), TMax: int32(*tmax), N: *n, Fixed: *fixed}
		satisfied, err = runSingle(w, stderr, *variant, *prop, cfg, *analyze, *showTrace, opts)
	case *analyze:
		err = runAnalyzeAll(w, stderr, int32(*tmin), int32(*tmax))
	default:
		fs.Usage()
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "hbcheck:", err)
		return 1
	}
	if !satisfied {
		return 2
	}
	return 0
}

// analyzeConfig builds cfg's network and runs the structural analysis,
// printing every problem; a non-nil error means the model failed.
func analyzeConfig(stderr io.Writer, cfg models.Config) error {
	m, err := models.Build(cfg)
	if err != nil {
		return err
	}
	return analyzeNet(stderr, fmt.Sprintf("%v tmin=%d tmax=%d fixed=%v", cfg.Variant, cfg.TMin, cfg.TMax, cfg.Fixed), m.Net)
}

// analyzeNet runs the structural analysis on the network called name,
// printing every problem; a non-nil error means the network failed.
func analyzeNet(stderr io.Writer, name string, net *ta.Network) error {
	problems := net.Analyze()
	for _, p := range problems {
		fmt.Fprintf(stderr, "analyze %s: %s\n", name, p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("analyze: %s: %d problem(s)", name, len(problems))
	}
	return nil
}

// runAnalyzeAll analyzes every network the commands ship at the given
// constants: all six variants, original and corrected, each also with the
// shutdown monitor VerifyShutdown attaches, and the isolated processes of
// Figures 1 and 2.
func runAnalyzeAll(w, stderr io.Writer, tmin, tmax int32) error {
	for _, v := range models.Variants {
		for _, fixed := range []bool{false, true} {
			cfg := models.Config{TMin: tmin, TMax: tmax, Variant: v, N: defaultN(v, 0), Fixed: fixed}
			if err := analyzeConfig(stderr, cfg); err != nil {
				return err
			}
			fmt.Fprintf(w, "analyze %v tmin=%d tmax=%d fixed=%v: ok\n", v, tmin, tmax, fixed)
			if err := analyzeShutdown(w, stderr, cfg); err != nil {
				return err
			}
		}
	}
	for p, build := range []func(int32, int32) (*ta.Network, error){models.BuildIsolatedP0, models.BuildIsolatedP1} {
		net, err := build(tmin, tmax)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("isolated p%d tmin=%d tmax=%d", p, tmin, tmax)
		if err := analyzeNet(stderr, name, net); err != nil {
			return err
		}
		fmt.Fprintf(w, "analyze %s: ok\n", name)
	}
	return nil
}

// analyzeShutdown analyzes the network VerifyShutdown builds for cfg,
// which Build accepts. A shutdown bound the monitor's clock cannot hold
// (tmax above 5,460 for the binary protocol) is skipped with a line
// on w, as VerifyShutdown refuses those constants.
func analyzeShutdown(w, stderr io.Writer, cfg models.Config) error {
	cfg.NoMonitor = true
	name := fmt.Sprintf("%v tmin=%d tmax=%d fixed=%v shutdown", cfg.Variant, cfg.TMin, cfg.TMax, cfg.Fixed)
	bound := cfg.ShutdownBound()
	sm, err := models.BuildWithShutdownMonitor(cfg, bound)
	if errors.Is(err, models.ErrConfig) {
		fmt.Fprintf(w, "analyze %s: skipped, bound %d: %v\n", name, bound, err)
		return nil
	}
	if err != nil {
		return err
	}
	if err := analyzeNet(stderr, name, sm.Net); err != nil {
		return err
	}
	fmt.Fprintf(w, "analyze %s: ok\n", name)
	return nil
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

// runSingle checks one property of one configuration — cfg completed by
// the named variant and its default participant count — after the
// pre-flight analysis if asked for. It prints the verdict with the size of
// the quotient explored (models.Verify), then the counter-example if asked
// for.
func runSingle(w, stderr io.Writer, variant, prop string, cfg models.Config, analyze, showTrace bool, opts mc.Options) (bool, error) {
	v, err := models.ParseVariant(variant)
	if err != nil {
		return false, err
	}
	p, err := parseProp(prop)
	if err != nil {
		return false, err
	}
	switch {
	case cfg.N < 0:
		return false, fmt.Errorf("-n %d: the participant count must be positive (0 means the variant's default)", cfg.N)
	case cfg.N > 1 && (v == models.Binary || v == models.RevisedBinary || v == models.TwoPhase):
		return false, fmt.Errorf("-n %d: the %v protocol has exactly one participant", cfg.N, v)
	}
	cfg.Variant, cfg.N = v, defaultN(v, cfg.N)
	if analyze {
		if err := analyzeConfig(stderr, cfg); err != nil {
			return false, err
		}
	}
	verdict, err := models.Verify(cfg, p, opts)
	if err != nil {
		return false, err
	}
	status := "satisfied"
	if !verdict.Satisfied {
		status = "VIOLATED"
	}
	fmt.Fprintf(w, "%v %v tmin=%d tmax=%d fixed=%v: %s (%d states, %d transitions)\n",
		cfg.Variant, p, cfg.TMin, cfg.TMax, cfg.Fixed, status,
		verdict.Result.StatesExplored, verdict.Result.TransitionsExplored)
	if !verdict.Satisfied && showTrace {
		title := fmt.Sprintf("counter-example for %v on the %v protocol (tmin=%d, tmax=%d)", p, cfg.Variant, cfg.TMin, cfg.TMax)
		if err := trace.Render(w, title, verdict.Result.Trace); err != nil {
			return false, err
		}
	}
	return verdict.Satisfied, nil
}

func runTables(w io.Writer, which string, tmax int32, workers int, opts mc.Options) error {
	run := func(title string, spec models.TableSpec) error {
		fmt.Fprintln(w, "==", title)
		cells, err := models.RunTable(spec)
		if err != nil {
			return err
		}
		fmt.Fprint(w, models.FormatTable(cells))
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
