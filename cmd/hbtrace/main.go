// Command hbtrace regenerates the counter-example figures of the analysis
// as ASCII message-sequence charts:
//
//	hbtrace            # all five figures (10a, 10b, 11, 12, 13)
//	hbtrace -fig 11    # one figure
//	hbtrace -list      # catalogue
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("hbtrace", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		fig       = fs.String("fig", "", "figure to reproduce (10a, 10b, 11, 12, 13); empty = all")
		list      = fs.Bool("list", false, "list the figure catalogue")
		maxStates = fs.Int("max-states", 20_000_000, "state-space limit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, f := range models.Figures() {
			fmt.Fprintf(w, "%-4s %v/%v tmin=%d tmax=%d: %s\n",
				f.ID, f.Cfg.Variant, f.Prop, f.Cfg.TMin, f.Cfg.TMax, f.Title)
		}
		return 0
	}

	figures := models.Figures()
	if *fig != "" {
		f, err := models.FindFigure(*fig)
		if err != nil {
			fmt.Fprintln(w, "hbtrace:", err)
			return 1
		}
		figures = []models.Figure{f}
	}
	opts := mc.Options{MaxStates: *maxStates}
	for _, f := range figures {
		if err := render(w, f, opts); err != nil {
			fmt.Fprintln(w, "hbtrace:", err)
			return 1
		}
		fmt.Fprintln(w)
	}
	return 0
}

func render(w io.Writer, f models.Figure, opts mc.Options) error {
	steps, err := witness(f, opts)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Figure %s — %s", f.ID, f.Title)
	return trace.Render(w, title, steps)
}

// witness finds the figure's counter-example. Figure 10a additionally
// requires the stale-beat shape (p[0] heard from p[1] at least once), the
// feature distinguishing it from the trivial 10b decay.
func witness(f models.Figure, opts mc.Options) ([]mc.Step, error) {
	if f.ID == "10a" {
		m, err := models.Build(f.Cfg)
		if err != nil {
			return nil, err
		}
		res, err := m.VerifyGoal(m.StaleBeat, opts)
		if err != nil {
			return nil, err
		}
		if !res.Reachable {
			return nil, fmt.Errorf("figure 10a: stale-beat counter-example not found")
		}
		return res.Trace, nil
	}
	v, err := f.Reproduce(opts)
	if err != nil {
		return nil, err
	}
	return v.Result.Trace, nil
}
