package main

import "time"

// wallNow is the benchmark's only wall-clock read. Everything the
// benchmark times runs on virtual time or none at all; the harness
// itself exists to measure physical elapsed time.
func wallNow() time.Time {
	//lint:allow determinism the benchmark harness measures physical elapsed time; no measured layer reads this clock
	return time.Now()
}

var processStart = wallNow()

// nowNS is monotonic nanoseconds since this process started.
func nowNS() int64 { return int64(wallNow().Sub(processStart)) }

// unixNS is wall time in nanoseconds, comparable between the parent and
// the child processes it starts (set-up time is measured across exec).
func unixNS() int64 { return wallNow().UnixNano() }

// seconds converts a nanosecond interval to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }
