package determinism

import "time"

// This file is on the test's WallClockAllow list, mirroring
// internal/netem/clock.go's WallClock: reading the wall clock here
// is the system's sanctioned time boundary.
func allowedWallClock() time.Time {
	return time.Now()
}
