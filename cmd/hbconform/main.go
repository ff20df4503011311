// Command hbconform checks the detector runtime against the timed-automata
// models by differential trace checking (internal/conform).
//
// Walk mode (default): seeded random-walk campaigns per variant —
//
//	hbconform -variant all -walks 200 -seed 1
//
// Single-run mode (-horizon > 0): one fully specified, deterministic run —
//
//	hbconform -variant binary -tmin 2 -tmax 4 -fixed -horizon 30 \
//	    -schedule 'crash t=9 node=0' -mutate expiry+1
//
// Every run is checked online while it executes
// (internal/conform.StreamChecker): in single-run mode incidents are
// reported as they fire, violations are cross-checked against the model
// inline, and a divergence is shrunk to a minimal reproduction.
//
// Exit status 1 when any divergence or verdict mismatch is found.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mc"
	"repro/internal/models"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

var variants = []models.Variant{
	models.Binary, models.RevisedBinary, models.TwoPhase,
	models.Static, models.Expanding, models.Dynamic,
}

// parseVariant resolves one variant name. Walk mode takes "all" as well,
// and handles it before calling; the error names the choices of the mode.
func parseVariant(name string, walk bool) (models.Variant, error) {
	names := make([]string, len(variants))
	for i, v := range variants {
		if v.String() == name {
			return v, nil
		}
		names[i] = v.String()
	}
	if walk {
		return 0, fmt.Errorf("unknown variant %q (have all, %s)", name, strings.Join(names, ", "))
	}
	return 0, fmt.Errorf("unknown variant %q (single-run mode has %s)", name, strings.Join(names, ", "))
}

// loadSchedule reads a fault schedule from a file, or parses the flag
// value itself when it is not a readable file (inline schedules).
func loadSchedule(spec string) (*faults.Schedule, error) {
	if spec == "" {
		return nil, nil
	}
	text := spec
	if data, err := os.ReadFile(spec); err == nil {
		text = string(data)
	}
	return faults.ParseSchedule(text)
}

// run writes reports to stdout; flag errors and every "hbconform:"
// diagnostic (exit status 2) go to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbconform", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		variant   = fs.String("variant", "all", "protocol variant, or all (walk mode only)")
		walks     = fs.Int("walks", 200, "random walks per variant")
		seed      = fs.Int64("seed", 1, "campaign seed (walk mode) or simulator seed (single-run mode)")
		shrink    = fs.Bool("shrink", true, "minimise failing walks before reporting")
		maxStates = fs.Int("max-states", 0, "state limit per specification LTS (0: default)")
		schedule  = fs.String("schedule", "", "fault schedule: a file path or inline text")
		tmin      = fs.Int("tmin", 2, "tmin (single-run mode)")
		tmax      = fs.Int("tmax", 4, "tmax (single-run mode)")
		n         = fs.Int("n", 1, "participants (single-run mode)")
		fixed     = fs.Bool("fixed", false, "apply the §6 fixes (single-run mode)")
		horizon   = fs.Int("horizon", 0, "virtual run length; > 0 selects single-run mode")
		maxDelay  = fs.Int("maxdelay", 0, "per-direction link delay bound (single-run mode)")
		mutate    = fs.String("mutate", "", "inject a named detector defect (single-run mode)")
		workers   = fs.Int("workers", 1, "concurrent walks per campaign; results are identical at any count (walk mode only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var (
		status int
		err    error
	)
	switch {
	case *horizon > 0:
		var rc conform.RunConfig
		if rc, err = singleConfig(*variant, *tmin, *tmax, *n, *fixed, *horizon, *maxDelay, *seed, *schedule, *mutate); err != nil {
			break
		}
		status, err = runSingle(stdout, rc, mc.Options{MaxStates: *maxStates}, *mutate)
	case *schedule != "" || *mutate != "":
		err = errors.New("-schedule/-mutate need single-run mode (set -horizon)")
	case *walks < 1:
		err = fmt.Errorf("-walks %d: a campaign needs at least one walk", *walks)
	default:
		status, err = runWalks(stdout, *variant, *walks, *seed, *maxStates, *shrink, *workers)
	}
	if err != nil {
		fmt.Fprintf(stderr, "hbconform: %v\n", err)
		return 2
	}
	return status
}

// singleConfig assembles the RunConfig for single-run mode from flags.
func singleConfig(variantName string, tmin, tmax, n int, fixed bool, horizon, maxDelay int, seed int64, schedule, mutate string) (conform.RunConfig, error) {
	v, err := parseVariant(variantName, false)
	if err != nil {
		return conform.RunConfig{}, err
	}
	sched, err := loadSchedule(schedule)
	if err != nil {
		return conform.RunConfig{}, fmt.Errorf("schedule: %v", err)
	}
	wrap, err := conform.Mutation(mutate)
	if err != nil {
		return conform.RunConfig{}, err
	}
	return conform.RunConfig{
		Model: models.Config{
			TMin: int32(tmin), TMax: int32(tmax),
			Variant: v, N: n, Fixed: fixed,
		},
		Seed:     seed,
		Horizon:  core.Tick(horizon),
		MaxDelay: core.Tick(maxDelay),
		Schedule: sched,
		Wrap:     wrap,
	}, nil
}

// runSingle checks one deterministic run online: the stream checker rides
// the cluster as its observer, violations are cross-checked against the
// model checker as they fire, and a divergence is shrunk to a minimal
// reproduction before reporting. Like the other modes it returns the exit
// status of a completed check, or the error that kept it from completing.
func runSingle(w io.Writer, rc conform.RunConfig, opts mc.Options, mutate string) (int, error) {
	cc := &conform.CampaignCheck{Model: rc.Model, Opts: opts}
	verify := func(cfg models.Config, p models.Property) (models.Verdict, error) {
		return models.Verify(cfg, p, opts)
	}
	res, err := conform.RunStream(rc, conform.StreamConfig{Check: cc, Verify: verify})
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "stream %s: tmin=%d tmax=%d n=%d fixed=%v seed=%d horizon=%d events=%d frontier=%d\n",
		rc.Model.Variant, rc.Model.TMin, rc.Model.TMax, rc.Model.N, rc.Model.Fixed, rc.Seed, rc.Horizon, res.Events, res.MaxFrontierSeen)

	status := 0
	switch {
	case res.Unconfirmed != nil:
		status = 1
		inc := res.Unconfirmed
		if shr, sdiv, err := conform.ShrinkRun(rc, cc); err == nil {
			inc.Shrunk, inc.ShrunkDiv = &shr, sdiv
		}
		fmt.Fprintln(w)
		if err := inc.Render(w, "trace before divergence"); err != nil {
			return 0, fmt.Errorf("render: %v", err)
		}
		if src := inc.Shrunk; src != nil {
			fmt.Fprintf(w, "\nshrunk reproduction:\n  hbconform -variant %s -tmin %d -tmax %d -n %d -fixed=%v -seed %d -horizon %d -maxdelay %d",
				src.Model.Variant, src.Model.TMin, src.Model.TMax, src.Model.N, src.Model.Fixed, src.Seed, src.Horizon, src.MaxDelay)
			if src.Schedule != nil {
				fmt.Fprintf(w, " -schedule '%s'", strings.TrimSpace(strings.ReplaceAll(src.Schedule.Format(), "\n", "; ")))
			}
			if mutate != "" {
				fmt.Fprintf(w, " -mutate %s", mutate)
			}
			fmt.Fprintln(w)
		}
	case res.Shed:
		fmt.Fprintf(w, "stream inclusion: shed at frontier budget (%d events unchecked)\n", res.ShedEvents)
	default:
		fmt.Fprintln(w, "stream inclusion: conforms")
	}

	violations := 0
	for _, inc := range res.Incidents {
		if inc.Kind != conform.IncidentViolation {
			continue
		}
		violations++
		fmt.Fprintf(w, "incident: %s\n", inc)
		if inc.Verified && !inc.ModelAgrees {
			status = 1
		}
	}
	if violations == 0 {
		fmt.Fprintln(w, "verdicts: no R1-R3 violations observed")
	}
	return status, nil
}

func runWalks(w io.Writer, variantName string, walks int, seed int64, maxStates int, shrink bool, workers int) (int, error) {
	list := variants
	if variantName != "all" {
		v, err := parseVariant(variantName, true)
		if err != nil {
			return 0, err
		}
		list = []models.Variant{v}
	}
	status := 0
	for _, v := range list {
		ec := conform.ExploreConfig{
			Variant: v, Walks: walks, Seed: seed,
			MaxStates: maxStates, Shrink: shrink, Workers: workers,
		}
		res, err := ec.Explore()
		if err != nil {
			return 0, fmt.Errorf("%s: %v", v, err)
		}
		fmt.Fprintf(w, "conform %s: walks=%d clean=%d events=%d consistent-violations=%d failures=%d\n",
			v, res.Walks, res.Clean, res.Events, res.ConsistentViolations, len(res.Failures))
		for _, f := range res.Failures {
			status = 1
			if err := reportFailure(w, v, f); err != nil {
				return 0, err
			}
		}
	}
	return status, nil
}

func reportFailure(w io.Writer, v models.Variant, f conform.WalkFailure) error {
	rc, div := f.Run, f.Div
	if div != nil && div.Shrunk != nil {
		rc, div = *div.Shrunk, div.ShrunkDiv
	}
	fmt.Fprintf(w, "\nwalk %d FAILED; reproduce with:\n  hbconform -variant %s -tmin %d -tmax %d -n %d -fixed=%v -seed %d -horizon %d -maxdelay %d",
		f.Walk, v, rc.Model.TMin, rc.Model.TMax, rc.Model.N, rc.Model.Fixed, rc.Seed, rc.Horizon, rc.MaxDelay)
	if rc.Schedule != nil {
		fmt.Fprintf(w, " -schedule '%s'", strings.TrimSpace(strings.ReplaceAll(rc.Schedule.Format(), "\n", "; ")))
	}
	fmt.Fprintln(w)
	if div != nil {
		if err := div.Render(w, "trace before divergence"); err != nil {
			return fmt.Errorf("render: %v", err)
		}
	}
	for _, inc := range f.Mismatches {
		fmt.Fprintf(w, "verdict %v violated at t=%d (p[%d]) but the model proves it satisfied\n",
			inc.Prop, inc.Time, inc.Proc)
	}
	return nil
}
