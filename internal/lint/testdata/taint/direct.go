package taint

import (
	"math/rand"
	"time"
)

// Direct sites: each call or reference of a source is a finding of its
// own, whatever else its function reaches.

var bootTime = time.Now() // want "wall-clock read time.Now"

func wallClock() time.Time {
	return time.Now() // want "wall-clock read time.Now breaks deterministic replay"
}

func sleepy() {
	time.Sleep(time.Second) // want "wall-clock read time.Sleep"
}

func ticking() *time.Ticker {
	return time.NewTicker(time.Second) // want "wall-clock read time.NewTicker"
}

func globalRand() int {
	return rand.Intn(10) // want "global rand.Intn uses the shared unseeded generator"
}

func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // constructing from a seed is the sanctioned pattern
	return r.Intn(10)
}

func methodCallsAreFine(r *rand.Rand) int {
	return r.Intn(10) // methods on an injected *rand.Rand carry their own seed
}

func durations() time.Duration {
	return 3 * time.Millisecond // arithmetic on time types reads no clock
}

func rearmTimer(t *time.Timer, d time.Duration) {
	t.Reset(d) // want "wall-clock method (*time.Timer).Reset re-arms a physical timer"
}

func rearmTicker(tk *time.Ticker, d time.Duration) {
	tk.Reset(d) // want "wall-clock method (*time.Ticker).Reset re-arms a physical timer"
}

func rearmByExpression(t *time.Timer, d time.Duration) {
	(*time.Timer).Reset(t, d) // want "wall-clock method (*time.Timer).Reset re-arms a physical timer"
}

// elapsed reads the clock once; the Sub over it is that same read, not a
// second finding.
func elapsed(start time.Time) time.Duration {
	return time.Now().Sub(start) // want "wall-clock read time.Now"
}

func suppressed() time.Time {
	//lint:allow determinism golden-test fixture for a justified suppression
	return time.Now()
}
