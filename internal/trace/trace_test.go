package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/mc"
)

func sampleTrace() []mc.Step {
	return []mc.Step{
		{Time: 0},
		{Label: alphabet.Start.Of(0), Time: 0},
		{Label: alphabet.Label{Kind: alphabet.Tick}, Delay: true, Time: 1},
		{Label: alphabet.Timeout.Of(0), Time: 10},
		{Label: alphabet.SendBeat.Of(0), Time: 10},
		{Label: alphabet.DeliverBeat.Of(1), Time: 11},
		{Label: alphabet.SendBeat.Of(1), Time: 11},
		{Label: alphabet.LoseBeatFrom.Of(1), Time: 12},
		{Label: alphabet.Inactivate.Of(1), Time: 30},
	}
}

func TestEventsDropTicksAndInit(t *testing.T) {
	evs := Events(sampleTrace())
	if len(evs) != 7 {
		t.Fatalf("events = %d, want 7", len(evs))
	}
	for _, e := range evs {
		if e.Text == "tick" || e.Text == "" {
			t.Fatalf("tick or empty survived: %+v", e)
		}
	}
}

// laneRows pins the lane and the displayed text of every kind at processes
// 0, 1 and -3, of the two-argument kinds and of a kind outside the
// enumeration — the runtime-only labels no golden renders among them. A
// negative process draws no process lane, and only the texts that open with
// the lane's "p[…]: " lose it.
var laneRows = []struct {
	label      alphabet.Label
	lane, text string
}{
	{alphabet.Tau.Of(0), "channel", "tau"},
	{alphabet.Tau.Of(1), "channel", "tau"},
	{alphabet.Tau.Of(-3), "channel", "tau"},
	{alphabet.Tick.Of(0), "channel", "tick"},
	{alphabet.Tick.Of(1), "channel", "tick"},
	{alphabet.Tick.Of(-3), "channel", "tick"},
	{alphabet.SendBeat.Of(0), "p[0]", "send beat"},
	{alphabet.SendBeat.Of(1), "p[1]", "send beat"},
	{alphabet.SendBeat.Of(-3), "channel", "p[-3]: send beat"},
	{alphabet.SendJoin.Of(0), "p[0]", "send join beat"},
	{alphabet.SendJoin.Of(1), "p[1]", "send join beat"},
	{alphabet.SendJoin.Of(-3), "channel", "p[-3]: send join beat"},
	{alphabet.SendLeave.Of(0), "p[0]", "send leave beat"},
	{alphabet.SendLeave.Of(1), "p[1]", "send leave beat"},
	{alphabet.SendLeave.Of(-3), "channel", "p[-3]: send leave beat"},
	{alphabet.DecideLeave.Of(0), "p[0]", "decide leave"},
	{alphabet.DecideLeave.Of(1), "p[1]", "decide leave"},
	{alphabet.DecideLeave.Of(-3), "channel", "p[-3]: decide leave"},
	{alphabet.DeliverBeat.Of(0), "channel", "deliver beat to p[0]"},
	{alphabet.DeliverBeat.Of(1), "channel", "deliver beat to p[1]"},
	{alphabet.DeliverBeat.Of(-3), "channel", "deliver beat to p[-3]"},
	{alphabet.DeliverBeatP0.Of(0), "channel", "deliver beat to p[0] from p[0]"},
	{alphabet.DeliverBeatP0.Of(1), "channel", "deliver beat to p[0] from p[1]"},
	{alphabet.DeliverBeatP0.Of(-3), "channel", "deliver beat to p[0] from p[-3]"},
	{alphabet.DeliverJoinP0.Of(0), "channel", "deliver join beat to p[0] from p[0]"},
	{alphabet.DeliverJoinP0.Of(1), "channel", "deliver join beat to p[0] from p[1]"},
	{alphabet.DeliverJoinP0.Of(-3), "channel", "deliver join beat to p[0] from p[-3]"},
	{alphabet.DeliverLeaveP0.Of(0), "channel", "deliver leave beat to p[0] from p[0]"},
	{alphabet.DeliverLeaveP0.Of(1), "channel", "deliver leave beat to p[0] from p[1]"},
	{alphabet.DeliverLeaveP0.Of(-3), "channel", "deliver leave beat to p[0] from p[-3]"},
	{alphabet.Timeout.Of(0), "p[0]", "timeout p[0]"},
	{alphabet.Timeout.Of(1), "p[1]", "timeout p[1]"},
	{alphabet.Timeout.Of(-3), "channel", "timeout p[-3]"},
	{alphabet.Inactivate.Of(0), "p[0]", "inactivate nv p[0]"},
	{alphabet.Inactivate.Of(1), "p[1]", "inactivate nv p[1]"},
	{alphabet.Inactivate.Of(-3), "channel", "inactivate nv p[-3]"},
	{alphabet.Crash.Of(0), "p[0]", "crash p[0]"},
	{alphabet.Crash.Of(1), "p[1]", "crash p[1]"},
	{alphabet.Crash.Of(-3), "channel", "crash p[-3]"},
	{alphabet.Start.Of(0), "p[0]", "start"},
	{alphabet.Start.Of(1), "p[1]", "start"},
	{alphabet.Start.Of(-3), "channel", "p[-3]: start"},
	{alphabet.LoseBeatTo.Of(0), "channel", "lose beat to p[0]"},
	{alphabet.LoseBeatTo.Of(1), "channel", "lose beat to p[1]"},
	{alphabet.LoseBeatTo.Of(-3), "channel", "lose beat to p[-3]"},
	{alphabet.LoseBeatFrom.Of(0), "channel", "lose beat from p[0]"},
	{alphabet.LoseBeatFrom.Of(1), "channel", "lose beat from p[1]"},
	{alphabet.LoseBeatFrom.Of(-3), "channel", "lose beat from p[-3]"},
	{alphabet.LoseJoinFrom.Of(0), "channel", "lose join beat from p[0]"},
	{alphabet.LoseJoinFrom.Of(1), "channel", "lose join beat from p[1]"},
	{alphabet.LoseJoinFrom.Of(-3), "channel", "lose join beat from p[-3]"},
	{alphabet.LoseLeaveFrom.Of(0), "channel", "lose leave beat from p[0]"},
	{alphabet.LoseLeaveFrom.Of(1), "channel", "lose leave beat from p[1]"},
	{alphabet.LoseLeaveFrom.Of(-3), "channel", "lose leave beat from p[-3]"},
	{alphabet.NoReply.Of(0), "channel", "p[0] gives no reply"},
	{alphabet.NoReply.Of(1), "channel", "p[1] gives no reply"},
	{alphabet.NoReply.Of(-3), "channel", "p[-3] gives no reply"},
	{alphabet.SuppressJoin.Of(0), "p[0]", "suppress duplicate join"},
	{alphabet.SuppressJoin.Of(1), "p[1]", "suppress duplicate join"},
	{alphabet.SuppressJoin.Of(-3), "channel", "p[-3]: suppress duplicate join"},
	{alphabet.ErrorR1.Of(0), "p[0]", "error R1 p[0]"},
	{alphabet.ErrorR1.Of(1), "p[1]", "error R1 p[1]"},
	{alphabet.ErrorR1.Of(-3), "channel", "error R1 p[-3]"},
	{alphabet.ErrorShutdown.Of(0), "channel", "error shutdown"},
	{alphabet.ErrorShutdown.Of(1), "channel", "error shutdown"},
	{alphabet.ErrorShutdown.Of(-3), "channel", "error shutdown"},
	{alphabet.DeliverLeaveAck.Of(0), "channel", "deliver leave ack to p[0]"},
	{alphabet.DeliverLeaveAck.Of(1), "channel", "deliver leave ack to p[1]"},
	{alphabet.DeliverLeaveAck.Of(-3), "channel", "deliver leave ack to p[-3]"},
	{alphabet.SendLeaveAck.Of(0), "p[0]", "send leave ack to p[0]"},
	{alphabet.SendLeaveAck.Of(1), "p[0]", "send leave ack to p[1]"},
	{alphabet.SendLeaveAck.Of(-3), "p[0]", "send leave ack to p[-3]"},
	{alphabet.Rejoin.Of(0), "p[0]", "rejoin"},
	{alphabet.Rejoin.Of(1), "p[1]", "rejoin"},
	{alphabet.Rejoin.Of(-3), "channel", "p[-3]: rejoin"},
	{alphabet.Restart.Of(0), "p[0]", "restart"},
	{alphabet.Restart.Of(1), "p[1]", "restart"},
	{alphabet.Restart.Of(-3), "channel", "p[-3]: restart"},
	{alphabet.DeliverStray.Of(0), "channel", "deliver stray beat to p[0] from p[0]"},
	{alphabet.DeliverStray.Of(1), "channel", "deliver stray beat to p[1] from p[0]"},
	{alphabet.DeliverStray.Of(-3), "channel", "deliver stray beat to p[-3] from p[0]"},
	{alphabet.Retune.Of(0), "p[0]", "retune to (0,0)"},
	{alphabet.Retune.Of(1), "p[0]", "retune to (1,0)"},
	{alphabet.Retune.Of(-3), "p[0]", "retune to (-3,0)"},
	{alphabet.FigVInactivate.Of(0), "channel", "inactivate v p0"},
	{alphabet.FigVInactivate.Of(1), "channel", "inactivate v p1"},
	{alphabet.FigVInactivate.Of(-3), "channel", "inactivate v p-3"},
	{alphabet.FigNVInactivate.Of(0), "channel", "inactivate nv p0"},
	{alphabet.FigNVInactivate.Of(1), "channel", "inactivate nv p1"},
	{alphabet.FigNVInactivate.Of(-3), "channel", "inactivate nv p-3"},
	{alphabet.FigTimeout.Of(0), "channel", "timeout at P0"},
	{alphabet.FigTimeout.Of(1), "channel", "timeout at P1"},
	{alphabet.FigTimeout.Of(-3), "channel", "timeout at P-3"},
	{alphabet.FigBeatFor.Of(0), "channel", "for p0(hb0)"},
	{alphabet.FigBeatFor.Of(1), "channel", "for p1(hb0)"},
	{alphabet.FigBeatFor.Of(-3), "channel", "for p-3(hb0)"},
	{alphabet.FigBeatFrom.Of(0), "channel", "from p0(hb0)"},
	{alphabet.FigBeatFrom.Of(1), "channel", "from p1(hb0)"},
	{alphabet.FigBeatFrom.Of(-3), "channel", "from p-3(hb0)"},
	{alphabet.Label{Kind: alphabet.DeliverStray, A: 2, B: 10}, "channel", "deliver stray beat to p[2] from p[10]"},
	{alphabet.Label{Kind: alphabet.Retune, A: 2, B: 8}, "p[0]", "retune to (2,8)"},
	{alphabet.Label{Kind: 200, A: 1, B: 2}, "channel", "unknown kind 200 (1,2)"},
}

func TestLaneClassification(t *testing.T) {
	for _, tt := range laneRows {
		if got := laneOf(tt.label); got != tt.lane {
			t.Errorf("%+v: lane %q, want %q", tt.label, got, tt.lane)
		}
	}
}

func TestTextOfStripsPrefix(t *testing.T) {
	for _, tt := range laneRows {
		if got := textOf(tt.label, tt.lane); got != tt.text {
			t.Errorf("%+v: text %q, want %q", tt.label, got, tt.text)
		}
	}
}

func TestLanesOrdering(t *testing.T) {
	evs := Events(sampleTrace())
	lanes := Lanes(evs)
	want := []string{"p[0]", "p[1]", ChannelLane}
	if len(lanes) != len(want) {
		t.Fatalf("lanes = %v", lanes)
	}
	for i := range want {
		if lanes[i] != want[i] {
			t.Fatalf("lanes = %v, want %v", lanes, want)
		}
	}
}

func TestRenderShape(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, "Figure X", sampleTrace()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure X") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "p[0]") || !strings.Contains(out, "channel") {
		t.Fatalf("lanes missing:\n%s", out)
	}
	if !strings.Contains(out, "   30 ") {
		t.Fatalf("timestamp missing:\n%s", out)
	}
	// Repeated timestamps are blanked for readability.
	if strings.Count(out, "   10 ") != 1 {
		t.Fatalf("timestamp 10 should appear once:\n%s", out)
	}
	// Each event row exists.
	if !strings.Contains(out, "send beat") || !strings.Contains(out, "inactivate nv") {
		t.Fatalf("events missing:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, "", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty trace") {
		t.Fatalf("got %q", buf.String())
	}
}

// TestSummary: the sample trace reduces to seven displayed events, one of
// them at t=10, on p[1]'s lane among others.
func TestSummary(t *testing.T) {
	evs := Events(sampleTrace())
	if len(evs) != 7 {
		t.Fatalf("events = %d, want 7: %v", len(evs), evs)
	}
	var at10, p1 bool
	for _, e := range evs {
		at10 = at10 || e.Time == 10
		p1 = p1 || e.Lane == "p[1]"
	}
	if !at10 || !p1 {
		t.Fatalf("no event at t=10 or on p[1]: %v", evs)
	}
}
