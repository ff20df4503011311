// Package taint is hbvet golden-test input for the determinism check:
// direct wall-clock and global-rand sites (direct.go), functions that
// reach them only through calls or function values, and the doc-comment
// wall-clock boundary. Each "want" comment pins a finding.
package taint

import (
	"math/rand"
	"time"
)

// nowMillis launders time.Now behind a wrapper: the taint seed.
func nowMillis() int64 {
	return time.Now().UnixMilli() // want "wall-clock read time.Now breaks deterministic replay"
}

// stamp never touches the clock directly; it is tainted transitively
// through nowMillis.
func stamp() int64 {
	return nowMillis() / 1000 // want "taint.stamp calls and so transitively reaches time.Now outside the wall-clock boundary (taint.stamp → taint.nowMillis → time.Now)"
}

// stampSource never calls the wrapper; capturing it as a value taints it
// all the same — the value can fire anywhere.
func stampSource() func() int64 {
	return stamp // want "taint.stampSource captures a reference to and so transitively reaches time.Now outside the wall-clock boundary (taint.stampSource → taint.stamp → taint.nowMillis → time.Now)"
}

// clockSource captures time.Now itself as a value: a direct site.
func clockSource() func() time.Time {
	return time.Now // want "wall-clock read time.Now breaks deterministic replay"
}

// pick launders the global generator.
func pick(n int) int {
	return rand.Intn(n) // want "global rand.Intn uses the shared unseeded generator"
}

func roll() int {
	return pick(6) + 1 // want "taint.roll calls and so transitively reaches rand.Intn outside the wall-clock boundary (taint.roll → taint.pick → rand.Intn)"
}

// WallNow is the wall-clock boundary: it may read the clock, and its
// callers are not tainted through it.
//
//lint:allow determinism fixture: the package's one wall-clock boundary
func WallNow() time.Time {
	return time.Now()
}

func viaBoundary() time.Time {
	return WallNow()
}

// suppressedSource carries a justified site directive: the site does not
// seed taint and callers stay clean.
func suppressedSource() int64 {
	//lint:allow determinism fixture: sanctioned wall-clock source
	return time.Now().UnixNano()
}

func viaSuppressed() int64 {
	return suppressedSource()
}
