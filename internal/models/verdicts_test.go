package models

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mc"
	"repro/internal/trace"
)

// expected verdicts per variant: R1, R2, R3 over the paper's tmin sweep
// {1, 4, 5, 9, 10} at tmax = 10.
//
// Binary, revised binary and static reproduce Table 1 of the analysis;
// expanding and dynamic reproduce Table 2. The two-phase protocol is not a
// column of Table 1 (its inactivation rule is under-specified in the 1998
// paper; the analysis only notes its counter-examples coincide with the
// binary ones where reported) — under the inactivation rule implemented
// here (a missed round at t == tmin exhausts p[0]) its R1 row diverges at
// tmin = 9: the stale-reset round plus the tmin probe takes
// 2·tmax + tmin > 2·tmax.
var expectedOriginal = map[Variant][3]string{
	Binary:        {"FFFTT", "TTTTF", "TTTTF"},
	RevisedBinary: {"FFFTT", "TTTTF", "TTTTF"},
	TwoPhase:      {"FFFFT", "TTTTF", "TTTTF"},
	Static:        {"FFFTT", "TTTTF", "TTTTF"},
	Expanding:     {"FFFTT", "TTFFF", "TTTTF"},
	Dynamic:       {"FFFTT", "TTFFF", "TTTTF"},
}

func participantsFor(v Variant) int {
	if v == Static {
		return 2
	}
	return 1
}

// checkRow verifies one (variant, property) row against the expected
// T/F string over the tmin sweep.
func checkRow(t *testing.T, variant Variant, prop Property, fixed bool, want string) {
	t.Helper()
	for i, tmin := range DefaultTMins() {
		cfg := Config{
			TMin:    tmin,
			TMax:    10,
			Variant: variant,
			N:       participantsFor(variant),
			Fixed:   fixed,
		}
		v, err := Verify(cfg, prop, mc.Options{MaxStates: 20_000_000})
		if err != nil {
			t.Fatalf("%v %v tmin=%d: %v", variant, prop, tmin, err)
		}
		wantSat := want[i] == 'T'
		if v.Satisfied != wantSat {
			detail := ""
			if !v.Satisfied {
				detail = "\n" + summary(v.Result.Trace)
			}
			t.Errorf("%v %v tmin=%d fixed=%v: satisfied=%v, want %v%s",
				variant, prop, tmin, fixed, v.Satisfied, wantSat, detail)
		}
	}
}

func TestTable1BinaryFamily(t *testing.T) {
	for _, variant := range []Variant{Binary, RevisedBinary, TwoPhase} {
		rows := expectedOriginal[variant]
		for pi, prop := range []Property{R1, R2, R3} {
			checkRow(t, variant, prop, false, rows[pi])
		}
	}
}

func TestTable1Static(t *testing.T) {
	if testing.Short() {
		t.Skip("static exploration reaches millions of states; skipped in -short")
	}
	rows := expectedOriginal[Static]
	for pi, prop := range []Property{R1, R2, R3} {
		checkRow(t, Static, prop, false, rows[pi])
	}
}

func TestTable2ExpandingDynamic(t *testing.T) {
	for _, variant := range []Variant{Expanding, Dynamic} {
		rows := expectedOriginal[variant]
		for pi, prop := range []Property{R1, R2, R3} {
			checkRow(t, variant, prop, false, rows[pi])
		}
	}
}

// TestFixedProtocolsSatisfyEverything is the §6 result: with receive
// priority and the corrected bounds, every requirement holds on every
// data set.
func TestFixedProtocolsSatisfyEverything(t *testing.T) {
	t.Parallel()
	variants := []Variant{Binary, RevisedBinary, TwoPhase, Expanding, Dynamic}
	if !testing.Short() {
		variants = append(variants, Static)
	}
	for _, variant := range variants {
		for _, prop := range []Property{R1, R2, R3} {
			checkRow(t, variant, prop, true, "TTTTT")
		}
	}
}

func TestRunTableAndFormat(t *testing.T) {
	cells, err := RunTable(TableSpec{
		Variants: []Variant{Binary},
		TMins:    []int32{1, 10},
		TMax:     10,
		N:        1,
		Opts:     mc.Options{MaxStates: 5_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(cells))
	}
	if got := VerdictString(cells, Binary, 1); got != "FTT" {
		t.Fatalf("verdicts tmin=1 = %q, want FTT", got)
	}
	if got := VerdictString(cells, Binary, 10); got != "TFF" {
		t.Fatalf("verdicts tmin=10 = %q, want TFF", got)
	}
	out := FormatTable(cells)
	for _, frag := range []string{"binary protocol", "R1", "R3", "tmin"} {
		if !contains(out, frag) {
			t.Fatalf("formatted table missing %q:\n%s", frag, out)
		}
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// witnessModel is the configuration whose model decodes the states of the
// figure's counter-example: Verify checks R2 and R3 with the R1 monitor
// sliced out.
func witnessModel(f Figure) Config {
	cfg := f.Cfg
	cfg.NoMonitor = f.Prop != R1
	return cfg
}

// TestFigureCatalogue reproduces every counter-example figure and asserts
// the shape the analysis describes.
func TestFigureCatalogue(t *testing.T) {
	opts := mc.Options{MaxStates: 10_000_000}

	t.Run("10a stale beat stretches R1 past 2tmax", func(t *testing.T) {
		f, err := FindFigure("10a")
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(f.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The distinguishing feature of 10(a) over 10(b): p[0] received
		// at least one beat from p[1] and still overshoots the bound.
		res, err := m.VerifyGoal(m.StaleBeat, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reachable {
			t.Fatal("stale-beat R1 counter-example not found")
		}
		last := res.Trace[len(res.Trace)-1]
		if last.Time <= 20 {
			t.Fatalf("error at %d, want after 2·tmax=20", last.Time)
		}
		if !contains(summary(res.Trace), "deliver beat to p[0]") {
			t.Fatalf("trace lacks the stale delivery:\n%s", summary(res.Trace))
		}
	})

	t.Run("10b plain decay overshoots at 2tmin<=tmax", func(t *testing.T) {
		f, err := FindFigure("10b")
		if err != nil {
			t.Fatal(err)
		}
		v, err := f.Reproduce(opts)
		if err != nil {
			t.Fatal(err)
		}
		last := v.Result.Trace[len(v.Result.Trace)-1]
		if last.Time <= 20 {
			t.Fatalf("error at %d, want after 2·tmax", last.Time)
		}
	})

	t.Run("11 simultaneous beat and watchdog at p[1]", func(t *testing.T) {
		f, err := FindFigure("11")
		if err != nil {
			t.Fatal(err)
		}
		v, err := f.Reproduce(opts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(witnessModel(f))
		if err != nil {
			t.Fatal(err)
		}
		last := v.Result.Trace[len(v.Result.Trace)-1]
		if !m.ParticipantNVInactivated(&last.State, 0) {
			t.Fatal("p[1] not NV-inactivated in the witness")
		}
		if m.MessageLost(&last.State) {
			t.Fatal("witness uses a lost message")
		}
		// The race happens exactly at p[1]'s watchdog bound
		// 3·tmax − tmin = 2·tmax = 20.
		if last.Time != 20 {
			t.Fatalf("p[1] inactivated at %d, want 20", last.Time)
		}
	})

	t.Run("12 simultaneous reply and round timeout at p[0]", func(t *testing.T) {
		f, err := FindFigure("12")
		if err != nil {
			t.Fatal(err)
		}
		v, err := f.Reproduce(opts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(witnessModel(f))
		if err != nil {
			t.Fatal(err)
		}
		last := v.Result.Trace[len(v.Result.Trace)-1]
		if !m.P0NVInactivated(&last.State) {
			t.Fatal("p[0] not NV-inactivated in the witness")
		}
		if !m.ParticipantAlive(&last.State, 0) {
			t.Fatal("p[1] not alive at p[0]'s inactivation")
		}
	})

	t.Run("13 joiner acknowledged too late at 2tmin>=tmax", func(t *testing.T) {
		f, err := FindFigure("13")
		if err != nil {
			t.Fatal(err)
		}
		v, err := f.Reproduce(opts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(witnessModel(f))
		if err != nil {
			t.Fatal(err)
		}
		last := v.Result.Trace[len(v.Result.Trace)-1]
		if !m.ParticipantNVInactivated(&last.State, 0) {
			t.Fatal("p[1] not NV-inactivated")
		}
		if !m.P0Alive(&last.State) {
			t.Fatal("p[0] not alive at the violation")
		}
		// The joiner gives up at 3·tmax − tmin = 25 without ever joining.
		if last.Time != 25 {
			t.Fatalf("give-up at %d, want 25", last.Time)
		}
	})
}

func TestFindFigureUnknown(t *testing.T) {
	if _, err := FindFigure("99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if len(Figures()) != 5 {
		t.Fatalf("catalogue has %d figures, want 5", len(Figures()))
	}
}

// TestReproduceFailsWhenSatisfied: Reproduce must reject a figure whose
// property actually holds (guards against silently-green "reproductions").
func TestReproduceFailsWhenSatisfied(t *testing.T) {
	f := Figure{
		ID:   "bogus",
		Cfg:  Config{TMin: 9, TMax: 10, Variant: Binary, N: 1},
		Prop: R1, // satisfied at tmin=9
	}
	if _, err := f.Reproduce(mc.Options{MaxStates: 5_000_000}); err == nil {
		t.Fatal("Reproduce on a satisfied property must fail")
	}
}

// summary renders a witness one line per displayed event, for failure
// messages.
func summary(steps []mc.Step) string {
	var sb strings.Builder
	for _, e := range trace.Events(steps) {
		fmt.Fprintf(&sb, "t=%-4d %-8s %s\n", e.Time, e.Lane, e.Text)
	}
	return sb.String()
}
