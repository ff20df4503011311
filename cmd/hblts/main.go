// Command hblts generates the transition systems of the isolated binary
// protocol processes (Figures 1 and 2 of the analysis): the full reachable
// graph, then the weak-trace reduction the analysis applies, exported as
// text, Aldebaran (.aut) or Graphviz (.dot).
//
//	hblts -proc p0 -tmin 1 -tmax 2              # stats + transitions
//	hblts -proc p1 -format dot > p1.dot
//	hblts -proc p0 -format aut -no-reduce
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/alphabet"
	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/ta"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hblts", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		proc     = fs.String("proc", "p0", "process to isolate: p0 or p1")
		tmin     = fs.Int("tmin", 1, "tmin (the figures use 1)")
		tmax     = fs.Int("tmax", 2, "tmax (the figures use 2)")
		format   = fs.String("format", "text", "output: text, aut or dot")
		noReduce = fs.Bool("no-reduce", false, "emit the full graph instead of the weak-trace reduction")
		hideTick = fs.Bool("hide-tick", false, "hide tick transitions before reducing")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := export(stdout, *proc, int32(*tmin), int32(*tmax), *format, !*noReduce, *hideTick); err != nil {
		fmt.Fprintln(stderr, "hblts:", err)
		return 1
	}
	return 0
}

func export(w io.Writer, proc string, tmin, tmax int32, format string, reduce, hideTick bool) error {
	var (
		net *ta.Network
		err error
	)
	switch proc {
	case "p0":
		net, err = models.BuildIsolatedP0(tmin, tmax)
	case "p1":
		net, err = models.BuildIsolatedP1(tmin, tmax)
	default:
		return fmt.Errorf("unknown process %q (want p0 or p1)", proc)
	}
	if err != nil {
		return err
	}
	l, err := mc.BuildLTS(net, mc.Options{})
	if err != nil {
		return err
	}
	full := l
	if hideTick {
		l = l.Hide(func(l alphabet.Label) bool { return l.Kind == alphabet.Tick })
	}
	if reduce {
		l, err = l.WeakTraceReduce(mc.Options{})
		if err != nil {
			return err
		}
	}
	switch format {
	case "text":
		fmt.Fprintf(w, "isolated %s (tmin=%d, tmax=%d): %d states, %d transitions",
			proc, tmin, tmax, full.NumStates, len(full.Transitions))
		if reduce {
			fmt.Fprintf(w, " -> reduced: %d states, %d transitions", l.NumStates, len(l.Transitions))
		}
		fmt.Fprintln(w)
		for _, t := range l.Transitions {
			fmt.Fprintf(w, "  s%d --%s--> s%d\n", t.From, t.Label, t.To)
		}
		return nil
	case "aut":
		return l.WriteAUT(w)
	case "dot":
		return l.WriteDOT(w, proc)
	default:
		return fmt.Errorf("unknown format %q (want text, aut or dot)", format)
	}
}
