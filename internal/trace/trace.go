// Package trace renders model-checking counter-example traces as ASCII
// message-sequence charts, in the spirit of Figures 10–13 of the analysis:
// one lane per process plus a channel lane, with virtual timestamps.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/alphabet"
	"repro/internal/mc"
)

// Event is one visible step of a trace.
type Event struct {
	// Time is the virtual time of the event.
	Time int
	// Lane is the participant the event belongs to ("p[0]", "p[1]", ...,
	// or "channel").
	Lane string
	// Text is the displayed description.
	Text string
}

// ChannelLane is the lane used for message loss and delivery events.
const ChannelLane = "channel"

// laneOf names the lane the alphabet draws a label in.
func laneOf(l alphabet.Label) string {
	if p, ok := l.Lane(); ok {
		return "p[" + strconv.Itoa(int(p)) + "]"
	}
	return ChannelLane
}

// textOf renders a label for display in its lane: without the "p[…]: "
// that opens the texts of the kinds a process lane names.
func textOf(l alphabet.Label, lane string) string {
	text, _ := strings.CutPrefix(l.String(), lane+": ")
	return text
}

// Events extracts the visible events of a trace, dropping delay steps and
// the steps labelled tau: internal steps and the initial pseudo-step.
func Events(steps []mc.Step) []Event {
	var out []Event
	for _, s := range steps {
		if s.Delay || s.Label == (alphabet.Label{}) {
			continue
		}
		lane := laneOf(s.Label)
		out = append(out, Event{Time: s.Time, Lane: lane, Text: textOf(s.Label, lane)})
	}
	return out
}

// Lanes returns the lanes appearing in the events: processes in index
// order first, then the channel lane.
func Lanes(events []Event) []string {
	seen := map[string]bool{}
	var procs []string
	hasChannel := false
	for _, e := range events {
		if seen[e.Lane] {
			continue
		}
		seen[e.Lane] = true
		if e.Lane == ChannelLane {
			hasChannel = true
		} else {
			procs = append(procs, e.Lane)
		}
	}
	sort.Strings(procs)
	if hasChannel {
		procs = append(procs, ChannelLane)
	}
	return procs
}

// Render writes the trace as an ASCII sequence chart. The title is printed
// above the chart; pass "" to omit it.
func Render(w io.Writer, title string, steps []mc.Step) error {
	events := Events(steps)
	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	lanes := Lanes(events)
	width := make(map[string]int, len(lanes))
	for _, l := range lanes {
		width[l] = len(l)
	}
	for _, e := range events {
		if len(e.Text) > width[e.Lane] {
			width[e.Lane] = len(e.Text)
		}
	}

	if title != "" {
		if _, err := fmt.Fprintln(w, title); err != nil {
			return err
		}
	}
	// Header.
	var sb strings.Builder
	sb.WriteString(" time ")
	for _, l := range lanes {
		fmt.Fprintf(&sb, "| %-*s ", width[l], l)
	}
	if _, err := fmt.Fprintln(w, sb.String()); err != nil {
		return err
	}
	sb.Reset()
	sb.WriteString("------")
	for _, l := range lanes {
		sb.WriteString("+")
		sb.WriteString(strings.Repeat("-", width[l]+2))
	}
	if _, err := fmt.Fprintln(w, sb.String()); err != nil {
		return err
	}
	// Rows.
	lastTime := -1
	for _, e := range events {
		sb.Reset()
		if e.Time != lastTime {
			fmt.Fprintf(&sb, "%5d ", e.Time)
			lastTime = e.Time
		} else {
			sb.WriteString("      ")
		}
		for _, l := range lanes {
			if l == e.Lane {
				fmt.Fprintf(&sb, "| %-*s ", width[l], e.Text)
			} else {
				fmt.Fprintf(&sb, "| %-*s ", width[l], "")
			}
		}
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}
