// Verify: use the model-checking API directly — build the formal model of
// a protocol variant, check a requirement, and render the counter-example
// as a message-sequence chart. This is the programmatic face of the
// hbcheck/hbtrace tools, for embedding protocol verification in your own
// tests.
//
//	go run ./examples/verify
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Stdout))
}

func run(w io.Writer) int {
	if err := verify(w); err != nil {
		fmt.Fprintln(w, "verify:", err)
		return 1
	}
	return 0
}

func verify(w io.Writer) error {
	// The headline finding of the analysis: with tmin = tmax, a beat and
	// a watchdog expiry can land on the same instant, and if the timeout
	// is processed first a healthy responder kills itself (requirement
	// R2 fails).
	cfg := models.Config{TMin: 10, TMax: 10, Variant: models.Binary, N: 1}
	verdict, err := models.Verify(cfg, models.R2, mc.Options{})
	if err != nil {
		return fmt.Errorf("R2 on the original protocol: %w", err)
	}
	fmt.Fprintf(w, "binary protocol, tmin=tmax=10: R2 satisfied = %v (explored %d states)\n",
		verdict.Satisfied, verdict.Result.StatesExplored)
	if !verdict.Satisfied {
		if err := trace.Render(w, "counter-example:", verdict.Result.Trace); err != nil {
			return fmt.Errorf("rendering the counter-example: %w", err)
		}
	}

	// The §6 fix: give deliveries priority over same-instant timeouts and
	// adopt the corrected bounds — the requirement now holds.
	cfg.Fixed = true
	fixed, err := models.Verify(cfg, models.R2, mc.Options{})
	if err != nil {
		return fmt.Errorf("R2 on the corrected protocol: %w", err)
	}
	fmt.Fprintf(w, "\nwith the §6 corrections: R2 satisfied = %v (explored %d states)\n",
		fixed.Satisfied, fixed.Result.StatesExplored)

	// Custom goals beyond R1–R3: how quickly can p[0] be non-voluntarily
	// inactivated at all?
	m, err := models.Build(models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1})
	if err != nil {
		return fmt.Errorf("building the custom-goal model: %w", err)
	}
	res, err := m.VerifyGoal(m.P0NVInactivated, mc.Options{})
	if err != nil {
		return fmt.Errorf("custom goal: %w", err)
	}
	if res.Reachable {
		last := res.Trace[len(res.Trace)-1]
		fmt.Fprintf(w, "\nfastest possible p[0] self-inactivation with tmin=2, tmax=4: t=%d ticks\n", last.Time)
	}
	return nil
}
