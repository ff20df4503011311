// Command tool is the unused-export fixture's root.
package main

import (
	"flag"
	"fmt"

	"repro/internal/lint/testdata/unusedexport/lib"
)

var seed = lib.Seed()

func main() {
	lib.Called()
	var s lib.Shape = lib.Square{}
	c := &lib.Counter{}
	inc := c.Inc
	inc()
	cfg := lib.Config{Keyed: 1}
	cfg.Assigned = s.Area()
	flag.IntVar(&cfg.Flag, "flag", 0, "")
	get := lib.Box[int]{}.Get
	fmt.Println(get(), lib.Level(seed), cfg)
}
