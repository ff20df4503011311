// Command bench is the fixture's benchmark: not a root.
package main

import "repro/internal/lint/testdata/unusedexport/lib"

func main() {
	lib.BenchShim()
	lib.Orphan()
	_ = lib.Config{TestOnly: 1}
}
